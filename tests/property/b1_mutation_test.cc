// Seeded mutation test over the decoders of untrusted b1 bytes: the
// snapshot parser with its workload-checked loader, and net::Deserialize
// with the shard decoders over latency and price payloads.  The seeds are
// valid encodings: engine checkpoints under plain, heavy-ball and Nesterov
// dynamics, and shard messages in every word encoding, with stale bits on
// and off.  A mutant applies bit flips, truncations and splices, or sets a
// count, run, nnz, offset or size field (and sparse indices) to 0, 1,
// count, count + 1, 2^32 - 1 or 2^64 - 1.  Three properties hold:
//   - no mutant crashes, nor draws a report in a sanitizer build;
//   - an image ParseSnapshotBinary accepts loads with its workload, or is
//     refused only for its header shape;
//   - whatever loads or decodes re-encodes to bytes that decode to the same
//     bits.
// The mutants are a fixed function of the seeds and one RNG seed, so every
// run makes the same ones.  The test prints an FNV-1a digest of the
// verdicts: it stays the same as long as every input keeps its verdict.
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "model/section_codec.h"
#include "model/serialization.h"
#include "net/message.h"

namespace lla {
namespace {

const char* kPaperWorkload = LLA_SOURCE_DIR "/examples/data/paper_table1.lla";

// Random mutants per seed, on top of every boundary value of every field.
// A snapshot mutant costs microseconds.  A message mutant can cost much
// more: a bit flip in the count of a sparse latency update yields a valid
// message of up to 2^23 words, which the test decodes and re-encodes.
constexpr int kSnapshotMutantsPerSeed = 30000;
constexpr int kMessageMutantsPerSeed = 3000;

// The b1 layout (DESIGN.md §7.10): an 88-byte header, then 32-byte table
// rows {id u32, elem_kind u8, encoding u8, pad u16, count u64, offset u64,
// size u64}, then the payload.
constexpr std::size_t kHeader = 88;
constexpr std::size_t kEntry = 32;

// The shard message layout (net/message.cc): sender, receiver, incarnation
// (u32 each), the tag byte, three u32 fields of which the last is the entry
// count, then the payload.
constexpr std::size_t kTagAt = 12;
constexpr std::size_t kCountAt = 21;
constexpr std::size_t kPayloadAt = 25;

/// A length field of a seed that the boundary mutations overwrite.
struct Field {
  std::size_t at;      ///< byte offset in the seed
  std::size_t width;   ///< 4 or 8 bytes, little-endian
  std::uint64_t count; ///< the element count the field is bounded by
};

struct Seed {
  std::string bytes;
  std::vector<Field> fields;
};

template <typename T>
T Read(const std::string& bytes, std::size_t at) {
  T value;
  std::memcpy(&value, bytes.data() + at, sizeof(value));
  return value;
}

/// Appends the fields of one b1 word array of `count` words of `width`
/// bytes, encoded at `at`: the rle run word and run lengths, or the sparse
/// nnz word and indices.
void AddWordFields(const std::string& bytes, std::size_t at,
                   std::uint8_t encoding, std::uint64_t count,
                   std::size_t width, std::vector<Field>* fields) {
  if (encoding == b1::kEncodingRaw) return;
  const std::uint64_t entries = Read<std::uint64_t>(bytes, at);
  fields->push_back({at, 8, count});
  const std::size_t stride = (encoding == b1::kEncodingRle ? 8 : 4) + width;
  for (std::uint64_t k = 0; k < entries; ++k) {
    const std::size_t field_at = at + 8 + k * stride;
    fields->push_back({field_at, encoding == b1::kEncodingRle ? 8u : 4u,
                       count});
  }
}

Seed SnapshotSeed(const std::string& image) {
  Seed seed{image, {}};
  const std::uint32_t sections = Read<std::uint32_t>(image, 12);
  const std::size_t payload = kHeader + sections * kEntry;
  for (std::uint32_t s = 0; s < sections; ++s) {
    const std::size_t row = kHeader + s * kEntry;
    const auto kind = static_cast<std::uint8_t>(image[row + 4]);
    const auto encoding = static_cast<std::uint8_t>(image[row + 5]);
    const std::uint64_t count = Read<std::uint64_t>(image, row + 8);
    const std::uint64_t offset = Read<std::uint64_t>(image, row + 16);
    for (const std::size_t at : {row + 8, row + 16, row + 24}) {
      seed.fields.push_back({at, 8, count});
    }
    AddWordFields(image, payload + offset, encoding, count,
                  kSnapshotElemKinds[kind].width, &seed.fields);
  }
  return seed;
}

Seed MessageSeed(const net::Message& message, std::size_t words_at) {
  Seed seed;
  const std::vector<std::uint8_t> wire = net::Serialize(message);
  seed.bytes.assign(wire.begin(), wire.end());
  const std::uint32_t count = Read<std::uint32_t>(seed.bytes, kCountAt);
  seed.fields.push_back({kCountAt, 4, count});
  AddWordFields(seed.bytes, words_at,
                static_cast<std::uint8_t>(seed.bytes[words_at - 1]), count,
                sizeof(double), &seed.fields);
  return seed;
}

std::vector<Seed> SnapshotSeeds(const Workload& workload,
                                const LatencyModel& model) {
  std::vector<Seed> seeds;
  for (const DynamicsKind kind : {DynamicsKind::kPlain,
                                  DynamicsKind::kHeavyBall,
                                  DynamicsKind::kNesterov}) {
    LlaConfig config;
    config.dynamics.kind = kind;
    LlaEngine engine(workload, model, config);
    for (int i = 0; i < 50; ++i) engine.Step();
    seeds.push_back(
        SnapshotSeed(SaveSnapshotToString(engine.Checkpoint()).value()));
  }
  return seeds;
}

/// Nine values in each word encoding the shard payloads use: distinct
/// (raw), constant (one rle run), three runs (rle), all zero and one
/// nonzero (sparse).
std::vector<std::vector<double>> PayloadValues() {
  std::vector<double> distinct(9), constant(9, 37.5), runs(9), zero(9, 0.0),
      one(9, 0.0);
  for (std::size_t i = 0; i < 9; ++i) {
    distinct[i] = 1.5 * static_cast<double>(i) - 2.25;
    runs[i] = i < 3 ? 4.0 : (i < 6 ? -0.0 : 8.5);
  }
  one[4] = 3.5;
  return {distinct, constant, runs, zero, one};
}

/// The messages below view their payload in `*bytes`, which the caller
/// keeps until it serializes them.
net::Message LatencyMessage(const std::vector<double>& values,
                            std::string* bytes) {
  bytes->clear();
  net::AppendShardLatencyPayload(values.data(), values.size(), bytes);
  net::Message message;
  message.sender = 11;
  message.receiver = 6;
  message.payload = net::ShardLatencyUpdate{
      TaskId(5u), 2, static_cast<std::uint32_t>(values.size()),
      net::WireSlice(bytes->data(), bytes->size())};
  return message;
}

net::Message PriceMessage(const std::vector<double>& mu,
                          const std::vector<std::uint8_t>& congested,
                          const std::vector<std::uint8_t>* stale,
                          std::string* bytes) {
  bytes->clear();
  net::AppendShardPricePayload(mu.data(), congested.data(),
                               stale != nullptr ? stale->data() : nullptr,
                               mu.size(), bytes);
  net::Message message;
  message.sender = 6;
  message.receiver = 11;
  message.payload = net::ShardPriceUpdate{
      1, 77, static_cast<std::uint32_t>(mu.size()),
      net::WireSlice(bytes->data(), bytes->size())};
  return message;
}

std::vector<Seed> MessageSeeds() {
  std::vector<Seed> seeds;
  std::string bytes;
  for (const std::vector<double>& values : PayloadValues()) {
    seeds.push_back(
        MessageSeed(LatencyMessage(values, &bytes), kPayloadAt + 1));
    std::vector<std::uint8_t> congested(values.size()), stale(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      congested[i] = i % 3 != 1 ? 1 : 0;
      stale[i] = i % 2 == 0 ? 1 : 0;
    }
    seeds.push_back(MessageSeed(
        PriceMessage(values, congested, nullptr, &bytes), kPayloadAt + 2));
    seeds.push_back(MessageSeed(
        PriceMessage(values, congested, &stale, &bytes), kPayloadAt + 2));
  }
  return seeds;
}

/// Writes `value`'s low `field.width` bytes over the field, if it is still
/// inside `bytes`.
void SetField(const Field& field, std::uint64_t value, std::string* bytes) {
  if (field.at + field.width > bytes->size()) return;
  std::memcpy(bytes->data() + field.at, &value, field.width);
}

std::array<std::uint64_t, 6> BoundaryValues(const Field& field) {
  return {0, 1, field.count, field.count + 1, 0xffffffffull,
          0xffffffffffffffffull};
}

/// Makes every mutant of one family of seeds: first each boundary value of
/// each field of each seed, then `per_seed` random stacks of one to three
/// bit flips, truncations, splices (a prefix of this seed joined to a
/// suffix of any seed of the family) and boundary values.
template <typename Check>
void ForEachMutant(const std::vector<Seed>& family, int per_seed,
                   Check&& check) {
  for (const Seed& seed : family) {
    for (const Field& field : seed.fields) {
      for (const std::uint64_t value : BoundaryValues(field)) {
        std::string mutant = seed.bytes;
        SetField(field, value, &mutant);
        check(seed, mutant);
      }
    }
  }
  std::mt19937_64 rng(20081);
  const auto below = [&rng](std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng() % n);
  };
  for (const Seed& seed : family) {
    for (int m = 0; m < per_seed; ++m) {
      std::string mutant = seed.bytes;
      const std::size_t ops = 1 + below(3);
      for (std::size_t op = 0; op < ops; ++op) {
        switch (below(4)) {
          case 0: {  // bit flips
            const std::size_t flips = 1 + below(4);
            for (std::size_t f = 0; f < flips && !mutant.empty(); ++f) {
              mutant[below(mutant.size())] ^=
                  static_cast<char>(1u << below(8));
            }
            break;
          }
          case 1:  // truncation
            mutant.resize(below(mutant.size()));
            break;
          case 2: {  // splice
            const std::string& other = family[below(family.size())].bytes;
            mutant = mutant.substr(0, below(mutant.size() + 1)) +
                     other.substr(below(other.size() + 1));
            break;
          }
          default: {  // a boundary value
            const Field& field = seed.fields[below(seed.fields.size())];
            SetField(field, BoundaryValues(field)[below(6)], &mutant);
            break;
          }
        }
      }
      check(seed, mutant);
    }
  }
}

/// FNV-1a over the verdicts, one byte each, in mutant order.
struct Digest {
  std::uint64_t hash = 14695981039346656037ull;
  std::array<std::size_t, 3> tally{};
  std::size_t mutants = 0;

  void Add(std::uint8_t verdict) {
    hash = (hash ^ verdict) * 1099511628211ull;
    ++tally[verdict];
    ++mutants;
  }
};

/// Every value of a snapshot as raw bytes, vector lengths included, so two
/// snapshots compare equal exactly when their bits do.
std::string Bits(const StateSnapshot& s) {
  std::string out;
  const auto scalar = [&out](const auto& v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  scalar(s.resource_count);
  scalar(s.path_count);
  scalar(s.subtask_count);
  scalar(s.task_count);
  scalar(s.iteration);
  scalar(s.converged);
  scalar(s.total_subtask_solves);
  scalar(s.step_iteration);
  scalar(s.momentum_restarts);
  for (const std::vector<double>* v :
       {&s.mu, &s.lambda, &s.resource_step_multiplier,
        &s.path_step_multiplier, &s.recent_utilities, &s.mu_velocity,
        &s.lambda_velocity, &s.mu_base, &s.lambda_base, &s.mu_phase,
        &s.lambda_phase}) {
    scalar(v->size());
    out.append(reinterpret_cast<const char*>(v->data()),
               v->size() * sizeof(double));
  }
  return out;
}

// Snapshot verdicts: 0 refused by the parser, 1 loaded, 2 parsed but
// refused by the loader for its header shape.
TEST(B1MutationTest, SnapshotImages) {
  auto loaded_workload = LoadWorkloadFromFile(kPaperWorkload);
  ASSERT_TRUE(loaded_workload.ok()) << loaded_workload.error();
  const Workload& workload = loaded_workload.value();
  const LatencyModel model(workload);
  const std::vector<Seed> seeds = SnapshotSeeds(workload, model);

  // The seeds carry every encoding, so every rule is exercised.
  std::array<bool, 3> encodings{};
  for (const Seed& seed : seeds) {
    const std::uint32_t sections = Read<std::uint32_t>(seed.bytes, 12);
    for (std::uint32_t s = 0; s < sections; ++s) {
      encodings[static_cast<std::uint8_t>(
          seed.bytes[kHeader + s * kEntry + 5])] = true;
    }
  }
  EXPECT_EQ(encodings, (std::array<bool, 3>{true, true, true}));

  Digest digest;
  ForEachMutant(seeds, kSnapshotMutantsPerSeed, [&](const Seed&,
                                                    const std::string& image) {
    if (!ParseSnapshotBinary(image.data(), image.size()).ok()) {
      digest.Add(0);
      return;
    }
    const Expected<StateSnapshot> loaded =
        LoadSnapshotFromString(image, workload);
    if (!loaded.ok()) {
      EXPECT_NE(loaded.error().find("does not match the workload"),
                std::string::npos)
          << loaded.error();
      digest.Add(2);
      return;
    }
    digest.Add(1);
    const std::string reencoded =
        SaveSnapshotToString(loaded.value()).value();
    const Expected<StateSnapshot> reloaded =
        LoadSnapshotFromString(reencoded, workload);
    ASSERT_TRUE(reloaded.ok()) << reloaded.error();
    EXPECT_EQ(Bits(reloaded.value()), Bits(loaded.value()));
  });
  std::printf("b1 snapshot mutants: %zu (%zu refused, %zu loaded, %zu "
              "refused for shape), digest %016llx\n",
              digest.mutants, digest.tally[0], digest.tally[1],
              digest.tally[2], static_cast<unsigned long long>(digest.hash));
  EXPECT_GT(digest.tally[0], 0u);
  EXPECT_GT(digest.tally[1], 0u);
  EXPECT_GT(digest.tally[2], 0u);
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Decodes an accepted latency update, re-encodes the words and expects
/// them to decode to the same bits.
void ExpectLatencyRoundTrip(const net::ShardLatencyUpdate& update) {
  std::vector<double> latencies(update.count);
  ASSERT_TRUE(net::DecodeShardLatencyUpdate(update, latencies.data()));
  std::string bytes;
  const net::Message again = LatencyMessage(latencies, &bytes);
  std::vector<double> redecoded(update.count);
  ASSERT_TRUE(net::DecodeShardLatencyUpdate(
      std::get<net::ShardLatencyUpdate>(again.payload), redecoded.data()));
  EXPECT_TRUE(SameBits(redecoded, latencies));
}

/// The same for a price update, its congested and stale bits included (an
/// absent stale bitset reads as all clear).
void ExpectPriceRoundTrip(const net::ShardPriceUpdate& update) {
  std::vector<double> mu(update.count);
  net::ShardPriceBitsets bits;
  ASSERT_TRUE(net::DecodeShardPriceUpdate(update, mu.data(), &bits));
  std::vector<std::uint8_t> congested(mu.size()), stale(mu.size());
  for (std::size_t j = 0; j < mu.size(); ++j) {
    congested[j] = net::TestWireBit(bits.congested, j) ? 1 : 0;
    stale[j] = bits.stale != nullptr && net::TestWireBit(bits.stale, j);
  }
  std::string bytes;
  const net::Message again = PriceMessage(mu, congested, &stale, &bytes);
  std::vector<double> redecoded(update.count);
  net::ShardPriceBitsets rebits;
  ASSERT_TRUE(net::DecodeShardPriceUpdate(
      std::get<net::ShardPriceUpdate>(again.payload), redecoded.data(),
      &rebits));
  EXPECT_TRUE(SameBits(redecoded, mu));
  for (std::size_t j = 0; j < mu.size(); ++j) {
    EXPECT_EQ(net::TestWireBit(rebits.congested, j), congested[j] != 0);
    EXPECT_EQ(rebits.stale != nullptr && net::TestWireBit(rebits.stale, j),
              stale[j] != 0);
  }
}

// Shard message verdicts: 0 refused by Deserialize, 1 accepted.  Each
// mutant keeps its seed's tag byte, so it stays a shard message (the
// repair messages carry no b1 words; message_test covers them).
TEST(B1MutationTest, ShardPayloads) {
  const std::vector<Seed> seeds = MessageSeeds();
  Digest digest;
  ForEachMutant(seeds, kMessageMutantsPerSeed, [&](const Seed& seed,
                                                   const std::string& mutant) {
    std::vector<std::uint8_t> wire(mutant.begin(), mutant.end());
    if (wire.size() > kTagAt) {
      wire[kTagAt] = static_cast<std::uint8_t>(seed.bytes[kTagAt]);
    }
    const std::optional<net::Message> message = net::Deserialize(wire);
    if (!message.has_value()) {
      digest.Add(0);
      return;
    }
    digest.Add(1);
    EXPECT_EQ(net::Serialize(*message), wire);
    if (const auto* latency =
            std::get_if<net::ShardLatencyUpdate>(&message->payload)) {
      ExpectLatencyRoundTrip(*latency);
    } else {
      ExpectPriceRoundTrip(std::get<net::ShardPriceUpdate>(message->payload));
    }
  });
  std::printf("b1 shard payload mutants: %zu (%zu refused, %zu accepted), "
              "digest %016llx\n",
              digest.mutants, digest.tally[0], digest.tally[1],
              static_cast<unsigned long long>(digest.hash));
  EXPECT_GT(digest.tally[0], 0u);
  EXPECT_GT(digest.tally[1], 0u);
}

}  // namespace
}  // namespace lla
