#include "model/serialization.h"

#include <cstdio>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "model/utility.h"
#include "workloads/paper.h"

namespace lla {
namespace {

constexpr const char* kSample = R"(
# two resources, two tasks
resource cpu0 cpu 0.9 1.0
resource link0 link 1.0 0.5

task pipeline 40
  utility linear 80 1
  trigger periodic 50 0
  subtask parse cpu0 4 0.08
  subtask publish link0 6 0.12
  edge 0 1
end

task analytics 200
  utility power 400 0.005 2
  trigger poisson 10
  subtask model-update cpu0 9
end
)";

TEST(SerializationTest, LoadsSample) {
  auto workload = LoadWorkloadFromString(kSample);
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  EXPECT_EQ(w.resource_count(), 2u);
  EXPECT_EQ(w.task_count(), 2u);
  EXPECT_EQ(w.subtask_count(), 3u);
  EXPECT_EQ(w.resource(ResourceId(1u)).kind, ResourceKind::kNetworkLink);
  EXPECT_DOUBLE_EQ(w.resource(ResourceId(0u)).capacity, 0.9);
  const TaskInfo& pipeline = w.task(TaskId(0u));
  EXPECT_DOUBLE_EQ(pipeline.critical_time_ms, 40.0);
  EXPECT_DOUBLE_EQ(pipeline.utility.Value(0.0), 80.0);
  EXPECT_EQ(pipeline.trigger.kind, TriggerSpec::Kind::kPeriodic);
  EXPECT_DOUBLE_EQ(w.subtask(SubtaskId(0u)).min_share, 0.08);
  EXPECT_DOUBLE_EQ(w.subtask(SubtaskId(2u)).min_share, 0.0);
  const TaskInfo& analytics = w.task(TaskId(1u));
  EXPECT_EQ(analytics.trigger.kind, TriggerSpec::Kind::kPoisson);
}

TEST(SerializationTest, SaveLoadRoundTripsPaperWorkload) {
  auto original = MakeSimWorkload();
  ASSERT_TRUE(original.ok());
  auto text = SaveWorkloadToString(original.value());
  ASSERT_TRUE(text.ok()) << text.error();
  auto reloaded = LoadWorkloadFromString(text.value());
  ASSERT_TRUE(reloaded.ok()) << reloaded.error();
  const Workload& a = original.value();
  const Workload& b = reloaded.value();
  ASSERT_EQ(a.subtask_count(), b.subtask_count());
  ASSERT_EQ(a.path_count(), b.path_count());
  for (std::size_t s = 0; s < a.subtask_count(); ++s) {
    EXPECT_EQ(a.subtask(SubtaskId(s)).name, b.subtask(SubtaskId(s)).name);
    EXPECT_DOUBLE_EQ(a.subtask(SubtaskId(s)).wcet_ms,
                     b.subtask(SubtaskId(s)).wcet_ms);
    EXPECT_EQ(a.subtask(SubtaskId(s)).resource,
              b.subtask(SubtaskId(s)).resource);
  }
  for (std::size_t t = 0; t < a.task_count(); ++t) {
    EXPECT_DOUBLE_EQ(a.task(TaskId(t)).utility.Value(17.0),
                     b.task(TaskId(t)).utility.Value(17.0));
  }
}

TEST(SerializationTest, AllUtilityShapesRoundTrip) {
  const char* text = R"(
resource r cpu 1 0
task t1 100
  utility power 10 0.5 1.5
  trigger periodic 100
  subtask s r 1
end
task t2 100
  utility negexp 5 0.05
  trigger periodic 100
  subtask s r 1
end
task t3 100
  utility inelastic 50 20 2
  trigger bursty 100 3 2
  subtask s r 1
end
)";
  // Three tasks share resource r — allowed; the same-resource restriction
  // only applies within one task.
  auto workload = LoadWorkloadFromString(text);
  ASSERT_TRUE(workload.ok()) << workload.error();
  auto saved = SaveWorkloadToString(workload.value());
  ASSERT_TRUE(saved.ok()) << saved.error();
  auto reloaded = LoadWorkloadFromString(saved.value());
  ASSERT_TRUE(reloaded.ok()) << reloaded.error();
  for (std::size_t t = 0; t < 3; ++t) {
    for (double x : {0.0, 10.0, 25.0, 60.0}) {
      EXPECT_DOUBLE_EQ(
          workload.value().task(TaskId(t)).utility.Value(x),
          reloaded.value().task(TaskId(t)).utility.Value(x))
          << "task " << t << " x " << x;
    }
  }
  EXPECT_EQ(reloaded.value().task(TaskId(2u)).trigger.kind,
            TriggerSpec::Kind::kBursty);
}

// The writer prints every number at the stream's default six significant
// digits: one task per utility shape, each parameter given with more, saves
// to this text, which then loads and saves to itself.
TEST(SerializationTest, SaveWritesEveryShapeAtSixDigits) {
  const char* text = R"(
resource cpu0 cpu 0.987654321 1.23456789
resource link0 link 1 0.000123456789
task lin 123.456789
  utility linear 246.913578 1.00000049
  trigger periodic 100.0000001 2.5
  subtask a cpu0 2.71828183 0.0123456789
  subtask b link0 3.14159265
  edge 0 1
end
task pow 98.7654321
  utility power 197.530864 0.0123456789 2.50000001
  trigger poisson 12.3456789
  subtask a cpu0 1.41421356
end
task exp 55.5555555
  utility negexp 111.111111 0.00612345678
  trigger bursty 200.123456 3 1.23456789
  subtask a link0 1.73205081
end
task ine 77.7777777
  utility inelastic 77.7777777 46.6666666 0.0257142857
  trigger periodic 100
  subtask a cpu0 2.23606798
end
)";
  const std::string expected =
      "# LLA workload (see model/serialization.h for the format)\n"
      "resource cpu0 cpu 0.987654 1.23457\n"
      "resource link0 link 1 0.000123457\n"
      "task lin 123.457\n"
      "  utility linear 246.914 1\n"
      "  trigger periodic 100 2.5\n"
      "  subtask a cpu0 2.71828 0.0123457\n"
      "  subtask b link0 3.14159 0\n"
      "  edge 0 1\n"
      "end\n"
      "task pow 98.7654\n"
      "  utility power 197.531 0.0123457 2.5\n"
      "  trigger poisson 12.3457\n"
      "  subtask a cpu0 1.41421 0\n"
      "end\n"
      "task exp 55.5556\n"
      "  utility negexp 111.111 0.00612346\n"
      "  trigger bursty 200.123 3 1.23457\n"
      "  subtask a link0 1.73205 0\n"
      "end\n"
      "task ine 77.7778\n"
      "  utility inelastic 77.7778 46.6667 0.0257143\n"
      "  trigger periodic 100 0\n"
      "  subtask a cpu0 2.23607 0\n"
      "end\n";
  auto workload = LoadWorkloadFromString(text);
  ASSERT_TRUE(workload.ok()) << workload.error();
  auto saved = SaveWorkloadToString(workload.value());
  ASSERT_TRUE(saved.ok()) << saved.error();
  EXPECT_EQ(saved.value(), expected);
  auto reloaded = LoadWorkloadFromString(saved.value());
  ASSERT_TRUE(reloaded.ok()) << reloaded.error();
  auto resaved = SaveWorkloadToString(reloaded.value());
  ASSERT_TRUE(resaved.ok()) << resaved.error();
  EXPECT_EQ(resaved.value(), expected);
}

// One task chaining 26 diamonds: 79 subtasks, each on its own resource so
// nothing but the path count can refuse it, and 2^26 root-to-leaf paths in
// about 3 KB of text.  The loader counts the paths before building any.
TEST(SerializationTest, RefusesExponentialPathCount) {
  constexpr int kDiamonds = 26;
  constexpr int kNodes = 3 * kDiamonds + 1;
  std::ostringstream text;
  for (int v = 0; v < kNodes; ++v) text << "resource r" << v << " cpu 1 0\n";
  text << "task chain 1000\n  utility linear 2000 1\n";
  for (int v = 0; v < kNodes; ++v) {
    text << "  subtask s" << v << " r" << v << " 1\n";
  }
  for (int top = 0; top + 1 < kNodes; top += 3) {
    text << "  edge " << top << ' ' << top + 1 << "\n  edge " << top << ' '
         << top + 2 << "\n  edge " << top + 1 << ' ' << top + 3
         << "\n  edge " << top + 2 << ' ' << top + 3 << '\n';
  }
  text << "end\n";
  const auto loaded = LoadWorkloadFromString(text.str());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().find("task 'chain'"), std::string::npos)
      << loaded.error();
  EXPECT_NE(loaded.error().find(std::to_string(kMaxPathEntries)),
            std::string::npos)
      << loaded.error();
}

TEST(SerializationTest, ErrorsCarryLineNumbers) {
  const auto missing_end = LoadWorkloadFromString(
      "resource r cpu 1 0\ntask t 10\n  subtask s r 1\n");
  ASSERT_FALSE(missing_end.ok());
  EXPECT_NE(missing_end.error().find("missing 'end'"), std::string::npos);

  const auto bad_keyword =
      LoadWorkloadFromString("resource r cpu 1 0\nfrobnicate\n");
  ASSERT_FALSE(bad_keyword.ok());
  EXPECT_NE(bad_keyword.error().find("line 2"), std::string::npos);

  const auto bad_resource = LoadWorkloadFromString(
      "resource r cpu 1 0\ntask t 10\n  subtask s missing 1\nend\n");
  ASSERT_FALSE(bad_resource.ok());
  EXPECT_NE(bad_resource.error().find("unknown resource"),
            std::string::npos);

  const auto bad_number =
      LoadWorkloadFromString("resource r cpu one 0\n");
  ASSERT_FALSE(bad_number.ok());
  EXPECT_NE(bad_number.error().find("line 1"), std::string::npos);

  const auto bad_kind = LoadWorkloadFromString("resource r gpu 1 0\n");
  ASSERT_FALSE(bad_kind.ok());
  EXPECT_NE(bad_kind.error().find("cpu or link"), std::string::npos);
}

// A utility line whose parameters fall outside the shape's range fails on
// that line, with the offending parameter named.
TEST(SerializationTest, UtilityParametersOutOfRangeCarryLineNumbers) {
  const std::pair<const char*, const char*> cases[] = {
      {"linear nan 1", "offset nan"},
      {"linear 80 -1", "slope -1"},
      {"power 80 -1 2", "coeff -1"},
      {"power 80 1 0.5", "exponent 0.5"},
      {"negexp 0 0", "rate 0"},
      {"negexp 80 inf", "rate inf"},
      {"inelastic 80 -1 1", "flat_until -1"},
      {"inelastic 80 10 0", "steepness 0"},
  };
  for (const auto& [utility, problem] : cases) {
    const auto loaded = LoadWorkloadFromString(
        std::string("resource r cpu 1 0\ntask t 10\n  utility ") + utility +
        "\n  subtask s r 1\nend\n");
    ASSERT_FALSE(loaded.ok()) << utility;
    EXPECT_NE(loaded.error().find("line 3: utility "), std::string::npos)
        << loaded.error();
    EXPECT_NE(loaded.error().find(problem), std::string::npos)
        << loaded.error();
  }
}

TEST(SerializationTest, ValidationStillApplies) {
  // Parses fine, but the DAG has a cycle: Workload::Create must reject.
  const auto cyclic = LoadWorkloadFromString(R"(
resource r0 cpu 1 0
resource r1 cpu 1 0
task t 10
  utility linear 20 1
  trigger periodic 100
  subtask a r0 1
  subtask b r1 1
  edge 0 1
  edge 1 0
end
)");
  EXPECT_FALSE(cyclic.ok());
}

TEST(SerializationTest, FileRoundTrip) {
  auto original = MakeSimWorkload();
  ASSERT_TRUE(original.ok());
  const std::string path = ::testing::TempDir() + "/workload.lla";
  ASSERT_TRUE(SaveWorkloadToFile(original.value(), path).ok());
  auto reloaded = LoadWorkloadFromFile(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.error();
  EXPECT_EQ(reloaded.value().subtask_count(),
            original.value().subtask_count());
  EXPECT_FALSE(LoadWorkloadFromFile("/nonexistent/nope.lla").ok());
}

// --- StateSnapshot (DESIGN.md §7.7): bit-exact round trip and strict
// rejection of malformed input.

StateSnapshot MakeSnapshot() {
  StateSnapshot snapshot;
  snapshot.resource_count = 2;
  snapshot.path_count = 3;
  snapshot.subtask_count = 4;
  snapshot.task_count = 2;
  snapshot.iteration = 17;
  snapshot.converged = true;
  snapshot.total_subtask_solves = 68;
  // Values chosen to stress bit-exactness: negative zero, denormals-ish
  // tiny magnitudes, and non-terminating binary fractions.
  snapshot.mu = {-0.0, 179.033203125};
  snapshot.lambda = {0.1, 1e-300, 3.5};
  snapshot.resource_step_multiplier = {1.0, 8.0};
  snapshot.path_step_multiplier = {2.0, 1.0, 4.0};
  snapshot.step_iteration = 17;
  snapshot.recent_utilities = {100.25, 100.5, 100.625};
  // Momentum state, same bit-stress values (negative velocity, -0.0).
  snapshot.mu_velocity = {-0.125, 0.0};
  snapshot.lambda_velocity = {-0.0, 1e-300, 0.5};
  snapshot.mu_base = {0.0, 179.0};
  snapshot.lambda_base = {0.1, 0.0, 3.25};
  snapshot.mu_phase = {12.0, 0.0};
  snapshot.lambda_phase = {0.0, 7.0, 1.0};
  snapshot.momentum_restarts = 23;
  return snapshot;
}

void ExpectSnapshotsEqual(const StateSnapshot& a, const StateSnapshot& b) {
  EXPECT_EQ(a.resource_count, b.resource_count);
  EXPECT_EQ(a.path_count, b.path_count);
  EXPECT_EQ(a.subtask_count, b.subtask_count);
  EXPECT_EQ(a.task_count, b.task_count);
  EXPECT_EQ(a.iteration, b.iteration);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.total_subtask_solves, b.total_subtask_solves);
  EXPECT_EQ(a.step_iteration, b.step_iteration);
  // memcmp on the raw doubles: the format must preserve exact bit patterns,
  // including the sign of -0.0.
  auto expect_bits = [](const std::vector<double>& x,
                        const std::vector<double>& y) {
    ASSERT_EQ(x.size(), y.size());
    EXPECT_EQ(std::memcmp(x.data(), y.data(), x.size() * sizeof(double)), 0);
  };
  expect_bits(a.mu, b.mu);
  expect_bits(a.lambda, b.lambda);
  expect_bits(a.resource_step_multiplier, b.resource_step_multiplier);
  expect_bits(a.path_step_multiplier, b.path_step_multiplier);
  expect_bits(a.recent_utilities, b.recent_utilities);
  expect_bits(a.mu_velocity, b.mu_velocity);
  expect_bits(a.lambda_velocity, b.lambda_velocity);
  expect_bits(a.mu_base, b.mu_base);
  expect_bits(a.lambda_base, b.lambda_base);
  expect_bits(a.mu_phase, b.mu_phase);
  expect_bits(a.lambda_phase, b.lambda_phase);
  EXPECT_EQ(a.momentum_restarts, b.momentum_restarts);
}

TEST(SnapshotSerializationTest, RoundTripsThroughFile) {
  const StateSnapshot original = MakeSnapshot();
  const std::string path = ::testing::TempDir() + "/snapshot_rt.snap";
  ASSERT_TRUE(SaveSnapshotToFile(original, path).ok());
  auto loaded = LoadSnapshotFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  ExpectSnapshotsEqual(original, loaded.value());
  std::remove(path.c_str());
}

// A full device takes every buffered write and fails only at the flush;
// both savers must report that instead of claiming success.
TEST(SerializationTest, SaversReportAFullDevice) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  EXPECT_FALSE(SaveWorkloadToFile(workload.value(), "/dev/full").ok());
  EXPECT_FALSE(SaveSnapshotToFile(MakeSnapshot(), "/dev/full").ok());
}

// The parser's shape check: the mu / lambda section counts must equal the
// header's resource / path counts.
TEST(SnapshotSerializationTest, RejectsPriceVectorShapeMismatch) {
  StateSnapshot snapshot = MakeSnapshot();
  snapshot.mu.push_back(1.0);  // now disagrees with resource_count
  auto saved = SaveSnapshotToString(snapshot);
  ASSERT_TRUE(saved.ok());
  auto loaded = LoadSnapshotFromString(saved.value());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().find("price vectors do not match declared shape"),
            std::string::npos)
      << loaded.error();
}

// Every live section's count is tied to the header: the step and dynamics
// sections hold 0 or the declared resource / path count, recent_utilities
// at most kSnapshotUtilityWindow values.  The parser refuses anything else,
// so decoding a parsed view allocates no more than the header declares.
TEST(SnapshotSerializationTest, RejectsSectionCountsTheHeaderDoesNotDeclare) {
  using Field = std::vector<double> StateSnapshot::*;
  for (const Field field :
       {&StateSnapshot::resource_step_multiplier,
        &StateSnapshot::path_step_multiplier, &StateSnapshot::mu_velocity,
        &StateSnapshot::lambda_velocity, &StateSnapshot::mu_base,
        &StateSnapshot::lambda_base, &StateSnapshot::mu_phase,
        &StateSnapshot::lambda_phase}) {
    StateSnapshot snapshot = MakeSnapshot();
    (snapshot.*field).push_back(1.0);
    auto loaded =
        LoadSnapshotFromString(SaveSnapshotToString(snapshot).value());
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.error().find(" elements, expected 0 or "),
              std::string::npos)
        << loaded.error();
    (snapshot.*field).clear();  // absent state is no misfit
    EXPECT_TRUE(
        LoadSnapshotFromString(SaveSnapshotToString(snapshot).value()).ok());
  }
  StateSnapshot snapshot = MakeSnapshot();
  snapshot.recent_utilities.assign(kSnapshotUtilityWindow, 100.5);
  EXPECT_TRUE(
      LoadSnapshotFromString(SaveSnapshotToString(snapshot).value()).ok());
  snapshot.recent_utilities.push_back(100.5);
  auto loaded = LoadSnapshotFromString(SaveSnapshotToString(snapshot).value());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().find("recent_utilities): 11 elements, expected at "
                                "most 10"),
            std::string::npos)
      << loaded.error();
}

// --- Binary snapshot format "b1" (DESIGN.md §7.10).

// Helpers that poke the fixed layout: magic(8) + version(4) + section
// count(4) + scalars to byte 88, then 32-byte table entries
// {id u32, elem_kind u8, encoding u8, pad u16, count u64, offset u64,
// size u64}, then 8-byte aligned payload.
constexpr std::size_t kB1Header = 88;
constexpr std::size_t kB1Entry = 32;

std::uint32_t B1SectionCount(const std::string& bytes) {
  std::uint32_t count;
  std::memcpy(&count, bytes.data() + 12, 4);
  return count;
}

/// Byte offset of section `id`'s table entry, or npos.
std::size_t B1FindEntry(const std::string& bytes, std::uint32_t id) {
  for (std::uint32_t s = 0; s < B1SectionCount(bytes); ++s) {
    std::uint32_t entry_id;
    std::memcpy(&entry_id, bytes.data() + kB1Header + s * kB1Entry, 4);
    if (entry_id == id) return kB1Header + s * kB1Entry;
  }
  return std::string::npos;
}

TEST(BinarySnapshotTest, RoundTripsBitExactlyAndDeterministically) {
  const StateSnapshot original = MakeSnapshot();
  auto bytes = SaveSnapshotToString(original);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes.value().compare(0, 8, "LLASNAPB"), 0);
  auto loaded = LoadSnapshotFromString(bytes.value());
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  ExpectSnapshotsEqual(original, loaded.value());
  // Deterministic bytes: re-serializing the loaded snapshot reproduces the
  // image exactly, so snapshot files diff/dedup cleanly.
  auto again = SaveSnapshotToString(loaded.value());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(bytes.value(), again.value());
}

// The file entry point (ReadSnapshotFile) reads exactly what the string
// encoder wrote, and refuses bytes without the magic — a text snapshot, an
// empty file — with the parser's message.
TEST(BinarySnapshotTest, GenericLoadersSniffTheMagic) {
  const StateSnapshot original = MakeSnapshot();
  auto bytes = SaveSnapshotToString(original);
  ASSERT_TRUE(bytes.ok());
  const std::string path = ::testing::TempDir() + "/snapshot_b1.snap";
  std::ofstream(path, std::ios::binary) << bytes.value();
  auto from_file = LoadSnapshotFromFile(path);
  ASSERT_TRUE(from_file.ok()) << from_file.error();
  ExpectSnapshotsEqual(original, from_file.value());

  std::ofstream(path) << "snapshot v2\nshape 2 3 4 2\nend\n";
  auto text = LoadSnapshotFromFile(path);
  ASSERT_FALSE(text.ok());
  EXPECT_NE(text.error().find("missing magic bytes"), std::string::npos)
      << text.error();
  std::ofstream(path, std::ios::trunc).flush();
  EXPECT_FALSE(LoadSnapshotFromFile(path).ok());
  std::remove(path.c_str());
  EXPECT_FALSE(LoadSnapshotFromFile(path).ok());  // no such file
}

TEST(BinarySnapshotTest, RejectsEveryTruncation) {
  auto bytes = SaveSnapshotToString(MakeSnapshot());
  ASSERT_TRUE(bytes.ok());
  const std::string& good = bytes.value();
  // Any prefix that loses more than the trailing alignment padding (< 8
  // bytes, bit-zero) must be rejected — header, section table, and payload
  // truncations alike.
  for (std::size_t len = 0; len + 8 <= good.size(); ++len) {
    EXPECT_FALSE(LoadSnapshotFromString(good.substr(0, len)).ok())
        << "prefix of " << len << " bytes parsed";
  }
}

TEST(BinarySnapshotTest, RejectsHeaderCorruption) {
  auto bytes = SaveSnapshotToString(MakeSnapshot());
  ASSERT_TRUE(bytes.ok());
  const std::string& good = bytes.value();

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_FALSE(LoadSnapshotFromString(bad_magic).ok());

  std::string bad_version = good;
  bad_version[8] = 2;
  EXPECT_FALSE(LoadSnapshotFromString(bad_version).ok());

  std::string bad_count = good;  // section count beyond the actual table
  bad_count[12] = static_cast<char>(0xff);
  bad_count[13] = static_cast<char>(0xff);
  EXPECT_FALSE(LoadSnapshotFromString(bad_count).ok());

  std::string bad_flag = good;
  bad_flag[80] = 2;  // converged must be 0/1
  EXPECT_FALSE(LoadSnapshotFromString(bad_flag).ok());

  std::string bad_primed = good;
  bad_primed[81] = 2;  // the retired primed byte too
  EXPECT_FALSE(LoadSnapshotFromString(bad_primed).ok());
}

TEST(BinarySnapshotTest, RejectsSectionTableCorruption) {
  auto bytes = SaveSnapshotToString(MakeSnapshot());
  ASSERT_TRUE(bytes.ok());
  const std::string& good = bytes.value();
  const std::size_t mu_entry = B1FindEntry(good, 1);
  const std::size_t lambda_entry = B1FindEntry(good, 2);
  ASSERT_NE(mu_entry, std::string::npos);
  ASSERT_NE(lambda_entry, std::string::npos);

  {
    std::string bad = good;  // unknown section id
    bad[mu_entry] = 99;
    EXPECT_FALSE(LoadSnapshotFromString(bad).ok());
  }
  {
    std::string bad = good;  // duplicate section id
    bad[lambda_entry] = 1;
    EXPECT_FALSE(LoadSnapshotFromString(bad).ok());
  }
  {
    std::string bad = good;  // unknown element kind
    bad[mu_entry + 4] = 7;
    EXPECT_FALSE(LoadSnapshotFromString(bad).ok());
  }
  {
    std::string bad = good;  // unknown encoding
    bad[mu_entry + 5] = 9;
    EXPECT_FALSE(LoadSnapshotFromString(bad).ok());
  }
  {
    std::string bad = good;  // element count no longer matches payload size
    ++bad[mu_entry + 8];
    EXPECT_FALSE(LoadSnapshotFromString(bad).ok());
  }
  {
    std::string bad = good;  // hostile count: must refuse to allocate
    std::memset(bad.data() + mu_entry + 8, 0xff, 8);
    EXPECT_FALSE(LoadSnapshotFromString(bad).ok());
  }
  {
    std::string bad = good;  // misaligned payload offset
    ++bad[mu_entry + 16];
    EXPECT_FALSE(LoadSnapshotFromString(bad).ok());
  }
  {
    std::string bad = good;  // offset past the payload region
    std::memset(bad.data() + mu_entry + 16, 0x7f, 8);
    EXPECT_FALSE(LoadSnapshotFromString(bad).ok());
  }
  {
    std::string bad = good;  // size overrunning the payload region
    std::memset(bad.data() + mu_entry + 24, 0x7f, 8);
    EXPECT_FALSE(LoadSnapshotFromString(bad).ok());
  }
}

TEST(BinarySnapshotTest, RejectsCorruptCompressedPayloads) {
  // Force the two compressed encodings: a mostly-zero f64 vector (sparse)
  // and a constant f64 vector (rle), both longer than the table overhead.
  StateSnapshot snapshot = MakeSnapshot();
  snapshot.path_count = 64;
  snapshot.lambda.assign(64, 0.0);
  snapshot.lambda[5] = 0.25;  // sparse: 8 + 1*12 bytes << raw 512
  snapshot.path_step_multiplier.assign(64, 1.0);  // rle: one run
  snapshot.lambda_velocity.clear();
  snapshot.lambda_base.clear();
  snapshot.lambda_phase.clear();
  auto bytes = SaveSnapshotToString(snapshot);
  ASSERT_TRUE(bytes.ok());
  const std::string& good = bytes.value();
  ASSERT_TRUE(LoadSnapshotFromString(good).ok());

  const std::size_t payload_start =
      kB1Header + B1SectionCount(good) * kB1Entry;
  const std::size_t lambda_entry = B1FindEntry(good, 2);
  const std::size_t rle_entry = B1FindEntry(good, 4);
  ASSERT_NE(lambda_entry, std::string::npos);
  ASSERT_NE(rle_entry, std::string::npos);
  std::uint8_t lambda_encoding =
      static_cast<std::uint8_t>(good[lambda_entry + 5]);
  std::uint8_t rle_encoding = static_cast<std::uint8_t>(good[rle_entry + 5]);
  ASSERT_EQ(lambda_encoding, 2u);  // sparse
  ASSERT_EQ(rle_encoding, 1u);     // rle
  std::uint64_t lambda_off, rle_off;
  std::memcpy(&lambda_off, good.data() + lambda_entry + 16, 8);
  std::memcpy(&rle_off, good.data() + rle_entry + 16, 8);

  {
    std::string bad = good;  // sparse index out of range (>= count)
    const std::uint32_t index = 64;
    std::memcpy(bad.data() + payload_start + lambda_off + 8, &index, 4);
    EXPECT_FALSE(LoadSnapshotFromString(bad).ok());
  }
  {
    std::string bad = good;  // sparse nnz disagrees with section size
    ++bad[payload_start + lambda_off];
    EXPECT_FALSE(LoadSnapshotFromString(bad).ok());
  }
  {
    std::string bad = good;  // rle run count disagrees with section size
    ++bad[payload_start + rle_off];
    EXPECT_FALSE(LoadSnapshotFromString(bad).ok());
  }
  {
    std::string bad = good;  // rle run length exceeds the element count
    const std::uint64_t run_len = 65;
    std::memcpy(bad.data() + payload_start + rle_off + 8, &run_len, 8);
    EXPECT_FALSE(LoadSnapshotFromString(bad).ok());
  }
  {
    // rle run count crafted so 8 + runs * 16 wraps u64 back to the real
    // section size: without the runs <= count bound the size equality
    // passes and the decode loop reads far past the section.
    std::string bad = good;
    std::uint64_t size;
    std::memcpy(&size, bad.data() + rle_entry + 24, 8);
    const std::uint64_t runs = ((size - 8) / 16) + (1ull << 60);
    std::memcpy(bad.data() + payload_start + rle_off, &runs, 8);
    EXPECT_FALSE(LoadSnapshotFromString(bad).ok());
  }
}

}  // namespace
}  // namespace lla
