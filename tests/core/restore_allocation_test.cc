// A b1 image is outside input: however few bytes it holds, restoring it
// must not decode more than the restoring engine's workload holds.  The
// parser ties every live section's count to the header, and the loaders
// compare the header's shape with the workload before decoding any
// section.  A wire message is outside input too: net::Deserialize validates
// shard payloads without decoding them, and checks a repair response's
// entry count against its bytes; both come back as views of the input.
// The binary replaces the global operator new with one that counts bytes,
// so it stays out of the sanitizer copies; it also drives `lla solve
// --restore` on the same images.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "model/serialization.h"
#include "net/message.h"

namespace {

std::atomic<bool> counting{false};
std::atomic<std::size_t> allocated_bytes{0};

}  // namespace

void* operator new(std::size_t size) {
  if (counting.load(std::memory_order_relaxed)) {
    allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Not inlined: GCC's -Wmismatched-new-delete would otherwise see free() on
// a pointer from operator new at every inlined delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace lla {
namespace {

// Runs fn with the counting operator new on; returns the bytes it
// allocated.
template <typename Fn>
std::size_t CountBytes(Fn&& fn) {
  allocated_bytes.store(0);
  counting.store(true);
  fn();
  counting.store(false);
  return allocated_bytes.load();
}

const char* kPaperWorkload = LLA_SOURCE_DIR "/examples/data/paper_table1.lla";

// The b1 layout (DESIGN.md §7.10): an 88-byte header, then 32-byte table
// rows {id u32, elem_kind u8, encoding u8, pad u16, count u64, offset u64,
// size u64}, then the 8-byte aligned payload.
constexpr std::size_t kHeader = 88;
constexpr std::size_t kEntry = 32;
constexpr std::uint8_t kRaw = 0;
constexpr std::uint8_t kRle = 1;

// Points section `id` of a b1 image at `payload`, appended 8-byte aligned
// after the existing payload, as `count` decoded elements in `encoding`.
// The old payload stays behind, unreferenced.
void Repoint(std::string* image, std::uint32_t id, std::uint8_t encoding,
             std::uint64_t count, const std::string& payload) {
  std::uint32_t sections = 0;
  std::memcpy(&sections, image->data() + 12, 4);
  const std::size_t payload_start = kHeader + sections * kEntry;
  while ((image->size() - payload_start) % 8 != 0) image->push_back('\0');
  const std::uint64_t offset = image->size() - payload_start;
  const std::uint64_t size = payload.size();
  image->append(payload);
  for (std::uint32_t s = 0; s < sections; ++s) {
    char* row = image->data() + kHeader + s * kEntry;
    std::uint32_t row_id = 0;
    std::memcpy(&row_id, row, 4);
    if (row_id != id) continue;
    row[5] = static_cast<char>(encoding);
    std::memcpy(row + 8, &count, 8);
    std::memcpy(row + 16, &offset, 8);
    std::memcpy(row + 24, &size, 8);
    return;
  }
  ADD_FAILURE() << "image has no section " << id;
}

// An rle payload of one run: `count` copies of `value` in 24 bytes.
std::string OneRun(std::uint64_t count, double value) {
  std::string payload(24, '\0');
  const std::uint64_t runs = 1;
  std::memcpy(payload.data(), &runs, 8);
  std::memcpy(payload.data() + 8, &count, 8);
  std::memcpy(payload.data() + 16, &value, 8);
  return payload;
}

class RestoreAllocationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto workload = LoadWorkloadFromFile(kPaperWorkload);
    ASSERT_TRUE(workload.ok()) << workload.error();
    workload_ = std::make_unique<Workload>(std::move(workload).value());
    model_ = std::make_unique<LatencyModel>(*workload_);
    LlaEngine engine(*workload_, *model_);
    for (int i = 0; i < 50; ++i) engine.Step();
    image_ = SaveSnapshotToString(engine.Checkpoint()).value();
  }

  // LoadSnapshotFromString for this workload, counting the bytes it
  // allocates into *bytes.
  Expected<StateSnapshot> CountedLoad(const std::string& image,
                                      std::size_t* bytes) const {
    std::optional<Expected<StateSnapshot>> loaded;
    *bytes = CountBytes(
        [&] { loaded = LoadSnapshotFromString(image, *workload_); });
    return *std::move(loaded);
  }

  // Restores `image` through `lla solve --restore`; returns the exit code.
  int CliRestore(const std::string& image) const {
    const std::string path =
        ::testing::TempDir() + "/restore_allocation_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".snap";
    std::ofstream(path, std::ios::binary) << image;
    const std::string command = std::string(LLA_CLI_PATH) + " solve " +
                                kPaperWorkload + " --restore=" + path +
                                " >/dev/null 2>&1";
    const int status = std::system(command.c_str());
    std::remove(path.c_str());
    return status >= 0 && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  std::unique_ptr<Workload> workload_;
  std::unique_ptr<LatencyModel> model_;
  std::string image_;  ///< a 50-iteration checkpoint of the workload
};

// recent_utilities rewritten as one rle run of 2^22 words: a few hundred
// bytes that used to decode into 32 MiB and restore as valid.
TEST_F(RestoreAllocationTest, OversizedUtilityWindowIsRefused) {
  constexpr std::uint64_t kWords = std::uint64_t{1} << 22;
  std::string image = image_;
  Repoint(&image, 5, kRle, kWords, OneRun(kWords, -70.0));
  EXPECT_LT(image.size(), 1024u);

  std::size_t bytes = 0;
  const Expected<StateSnapshot> loaded = CountedLoad(image, &bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().find("recent_utilities"), std::string::npos)
      << loaded.error();
  EXPECT_LT(bytes, kWords * sizeof(double) / 256);
  EXPECT_EQ(CliRestore(image), 3);
}

// A header declaring R = 2^28 with mu as one rle run (and no resource-side
// step multipliers) is internally consistent, so the parser accepts it;
// only the workload shows it is not this engine's.  The loader must say so
// before decoding the 2 GiB mu the header declares.
TEST_F(RestoreAllocationTest, DeclaredShapeIsCheckedBeforeDecoding) {
  constexpr std::uint64_t kResources = std::uint64_t{1} << 28;
  std::string image = image_;
  std::memcpy(image.data() + 16, &kResources, 8);
  Repoint(&image, 1, kRle, kResources, OneRun(kResources, 0.0));
  Repoint(&image, 3, kRaw, 0, "");
  EXPECT_LT(image.size(), 1024u);
  ASSERT_TRUE(ParseSnapshotBinary(image.data(), image.size()).ok());

  std::size_t bytes = 0;
  const Expected<StateSnapshot> loaded = CountedLoad(image, &bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().find("does not match the workload"),
            std::string::npos)
      << loaded.error();
  EXPECT_LT(bytes, kResources * sizeof(double) / 256);
  EXPECT_EQ(CliRestore(image), 3);
}

// mu rewritten raw with mu[0] = +inf: a well-formed image the loader
// accepts, since it judges shapes and encodings, not values.  Restore
// refuses the price; it used to adopt it, and `lla solve --restore` then
// ran the whole budget to an infeasible point and exited 4.
TEST_F(RestoreAllocationTest, InfinitePriceIsRefused) {
  std::size_t bytes = 0;
  Expected<StateSnapshot> good = CountedLoad(image_, &bytes);
  ASSERT_TRUE(good.ok()) << good.error();
  std::vector<double> mu = good.value().mu;
  mu[0] = std::numeric_limits<double>::infinity();
  std::string payload(mu.size() * sizeof(double), '\0');
  std::memcpy(payload.data(), mu.data(), payload.size());
  std::string image = image_;
  Repoint(&image, 1, kRaw, mu.size(), payload);

  Expected<StateSnapshot> loaded = CountedLoad(image, &bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  LlaEngine engine(*workload_, *model_);
  const Status status = engine.Restore(std::move(loaded).value());
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().find("snapshot mu[0] = inf"), std::string::npos)
      << status.error();
  EXPECT_EQ(CliRestore(image), 3);
}

// A 50-byte ShardLatencyUpdate declaring 2^24 entries as one rle run is a
// valid message.  Deserialize validates its payload with a null output and
// returns a view of it, so accepting it allocates nothing near the 128 MiB
// its words decode to.
TEST(DeserializeAllocationTest, ValidatesShardPayloadsWithoutDecoding) {
  constexpr std::uint32_t kEntries = std::uint32_t{1} << 24;
  std::string payload(1, static_cast<char>(kRle));
  payload += OneRun(kEntries, 2.5);
  net::Message message;
  message.payload = net::ShardLatencyUpdate{
      0, 0, kEntries, net::WireSlice(payload.data(), payload.size())};
  const std::vector<std::uint8_t> bytes = net::Serialize(message);
  ASSERT_EQ(bytes.size(), 50u);

  std::optional<net::Message> decoded;
  const std::size_t allocated =
      CountBytes([&] { decoded = net::Deserialize(bytes); });
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, message);
  EXPECT_LT(allocated, 1024u);
}

// A 38-byte RepairResponse with no entries whose count field declares 2^32 - 1
// or 2^24 of them (12 bytes each) is refused before anything is reserved:
// the first used to request 17,179,869,180 bytes, the second 201,326,592.
TEST(DeserializeAllocationTest, RepairCountIsCheckedBeforeReserving) {
  net::Message message;
  message.payload = net::RepairResponse{};
  std::vector<std::uint8_t> bytes = net::Serialize(message);
  ASSERT_EQ(bytes.size(), 38u);
  for (const std::uint32_t count : {0xffffffffu, std::uint32_t{1} << 24}) {
    std::memcpy(bytes.data() + 34, &count, 4);  // the last field
    std::optional<net::Message> decoded;
    const std::size_t allocated =
        CountBytes([&] { decoded = net::Deserialize(bytes); });
    EXPECT_FALSE(decoded.has_value()) << count;
    EXPECT_LT(allocated, 1024u) << count;
  }
}

}  // namespace
}  // namespace lla
