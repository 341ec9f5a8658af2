// Crash-restart recovery property (DESIGN.md §7.7): LlaEngine::Checkpoint
// followed by Restore into a FRESH engine resumes the dual trajectory
// bit-identically — every subsequent iteration's latencies and prices
// memcmp-equal (tolerance 0) to an uninterrupted reference run, at every
// thread count, with work reporting on and off, and with the snapshot pushed
// through the durable b1 encoding (string and file round trips).
//
// This is the guarantee that makes checkpointed restart a pure fast-path:
// a restore is indistinguishable from never having crashed.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "model/serialization.h"
#include "workloads/paper.h"
#include "workloads/random.h"

namespace lla {
namespace {

LlaConfig MakeConfig(int num_threads, bool active) {
  LlaConfig config;
  config.step_policy = StepPolicyKind::kAdaptive;
  config.record_history = false;
  config.num_threads = num_threads;
  // Force the requested width even on single-core hosts so the parallel
  // solve path participates in the bit-identity claim.
  config.parallel.max_concurrency = num_threads;
  config.parallel.min_items_per_thread = 1;
  config.active_set.enabled = active;
  return config;
}

struct Trajectory {
  std::vector<Assignment> latencies;
  std::vector<PriceVector> prices;
};

Trajectory StepAndRecord(LlaEngine* engine, int steps) {
  Trajectory trajectory;
  for (int i = 0; i < steps; ++i) {
    engine->Step();
    trajectory.latencies.push_back(engine->latencies());
    trajectory.prices.push_back(engine->prices());
  }
  return trajectory;
}

void ExpectBitIdentical(const Trajectory& expected, const Trajectory& actual,
                        const char* label) {
  ASSERT_EQ(expected.latencies.size(), actual.latencies.size()) << label;
  for (std::size_t step = 0; step < expected.latencies.size(); ++step) {
    const Assignment& a = expected.latencies[step];
    const Assignment& b = actual.latencies[step];
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << label << " latencies diverge at post-restore step " << step;
    const PriceVector& pa = expected.prices[step];
    const PriceVector& pb = actual.prices[step];
    ASSERT_EQ(std::memcmp(pa.mu.data(), pb.mu.data(),
                          pa.mu.size() * sizeof(double)),
              0)
        << label << " mu diverges at post-restore step " << step;
    ASSERT_EQ(std::memcmp(pa.lambda.data(), pb.lambda.data(),
                          pa.lambda.size() * sizeof(double)),
              0)
        << label << " lambda diverges at post-restore step " << step;
  }
}

enum class RoundTrip { kInMemory, kString, kFile };

// Runs `pre` iterations, checkpoints, runs `post` more on the original
// engine, then restores the snapshot (optionally via the serialized form)
// into a brand-new engine and verifies the continuation is bit-identical.
void CheckResume(const Workload& workload, const LlaConfig& config, int pre,
                 int post, RoundTrip round_trip, const char* label) {
  LatencyModel model(workload);
  LlaEngine reference(workload, model, config);
  for (int i = 0; i < pre; ++i) reference.Step();

  StateSnapshot snapshot = reference.Checkpoint();
  EXPECT_EQ(snapshot.iteration, pre);
  const Trajectory expected = StepAndRecord(&reference, post);

  if (round_trip == RoundTrip::kString) {
    auto bytes = SaveSnapshotToString(snapshot);
    ASSERT_TRUE(bytes.ok()) << label;
    auto loaded = LoadSnapshotFromString(bytes.value(), workload);
    ASSERT_TRUE(loaded.ok()) << label << ": " << loaded.error();
    snapshot = loaded.value();
  } else if (round_trip == RoundTrip::kFile) {
    // The file loader reads the image into memory, then decodes it.
    const std::string path = ::testing::TempDir() + "/recovery_prop.snap";
    ASSERT_TRUE(SaveSnapshotToFile(snapshot, path).ok()) << label;
    auto loaded = LoadSnapshotFromFile(path, workload);
    ASSERT_TRUE(loaded.ok()) << label << ": " << loaded.error();
    snapshot = loaded.value();
    std::remove(path.c_str());
  }

  LlaEngine restored(workload, model, config);
  const Status status = restored.Restore(snapshot);
  ASSERT_TRUE(status.ok()) << label << ": " << status.error();
  EXPECT_EQ(restored.iteration(), pre);
  const Trajectory actual = StepAndRecord(&restored, post);
  ExpectBitIdentical(expected, actual, label);
}

void CheckAllModes(const Workload& workload, int pre, int post) {
  for (const bool active : {false, true}) {
    for (const int num_threads : {1, 8}) {
      char label[64];
      std::snprintf(label, sizeof(label), "%s threads=%d",
                    active ? "active" : "dense", num_threads);
      CheckResume(workload, MakeConfig(num_threads, active), pre, post,
                  RoundTrip::kInMemory, label);
    }
  }
}

TEST(RecoveryPropertyTest, ResumesBitIdenticallyOnPaperWorkload) {
  auto workload = MakeScaledSimWorkload(2, /*scale_critical_times=*/true);
  ASSERT_TRUE(workload.ok()) << workload.error();
  CheckAllModes(workload.value(), /*pre=*/60, /*post=*/80);
}

TEST(RecoveryPropertyTest, ResumesBitIdenticallyOnRandomWorkloads) {
  for (const unsigned seed : {11u, 42u}) {
    RandomWorkloadConfig config;
    config.seed = seed;
    config.num_resources = 6;
    config.num_tasks = 16;
    config.min_subtasks = 2;
    config.max_subtasks = 5;
    config.target_utilization = 0.7;
    auto workload = MakeRandomWorkload(config);
    ASSERT_TRUE(workload.ok()) << workload.error();
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    CheckAllModes(workload.value(), /*pre=*/40, /*post=*/60);
  }
}

// The durable b1 encoding must preserve the guarantee exactly: every double
// round-trips as its bit pattern, so a snapshot pushed through serialization
// resumes the same bitwise trajectory as the in-memory one.
TEST(RecoveryPropertyTest, SerializedSnapshotResumesBitIdentically) {
  auto workload = MakeScaledSimWorkload(2, /*scale_critical_times=*/true);
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  CheckResume(w, MakeConfig(1, /*active=*/false), 60, 60, RoundTrip::kString,
              "dense via string");
  CheckResume(w, MakeConfig(8, /*active=*/true), 60, 60, RoundTrip::kString,
              "active via string");
  CheckResume(w, MakeConfig(1, /*active=*/true), 60, 60, RoundTrip::kFile,
              "active via file");
}

// The RLE/sparse section encodings (DESIGN.md §7.10) preserve exact bit
// patterns too, so a b1 round trip resumes the same bitwise trajectory —
// work reporting on and off, threads 1 and 8.
TEST(RecoveryPropertyTest, BinarySnapshotResumesBitIdentically) {
  auto workload = MakeScaledSimWorkload(2, /*scale_critical_times=*/true);
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  for (const bool active : {false, true}) {
    for (const int num_threads : {1, 8}) {
      char label[64];
      std::snprintf(label, sizeof(label), "binary %s threads=%d",
                    active ? "active" : "dense", num_threads);
      CheckResume(w, MakeConfig(num_threads, active), 60, 60,
                  RoundTrip::kString, label);
    }
  }
}

// A checkpoint taken at iteration 0 (before any step) must also restore: it
// captures the cold-start state, so the restored engine replays the whole
// run bit-identically.
TEST(RecoveryPropertyTest, CheckpointAtIterationZeroRestores) {
  auto workload = MakeScaledSimWorkload(1, /*scale_critical_times=*/true);
  ASSERT_TRUE(workload.ok()) << workload.error();
  CheckResume(workload.value(), MakeConfig(1, /*active=*/false), 0, 40,
              RoundTrip::kInMemory, "iteration zero");
}

// Accelerated dynamics (DESIGN.md §7.8) add velocity and Nesterov base
// vectors to the dual state; a checkpoint must capture them so the restored
// momentum continues mid-flight, not from rest.  Tolerance 0 including the
// durable b1 form.
TEST(RecoveryPropertyTest, DynamicsStateResumesBitIdentically) {
  auto workload = MakeScaledSimWorkload(2, /*scale_critical_times=*/true);
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  for (const DynamicsKind kind :
       {DynamicsKind::kHeavyBall, DynamicsKind::kNesterov}) {
    for (const bool active : {false, true}) {
      LlaConfig config = MakeConfig(active ? 8 : 1, active);
      config.dynamics.kind = kind;
      config.dynamics.momentum = 0.9;
      char label[80];
      std::snprintf(label, sizeof(label), "%s %s", ToString(kind),
                    active ? "active" : "dense");
      CheckResume(w, config, 60, 80, RoundTrip::kInMemory, label);
      CheckResume(w, config, 60, 60, RoundTrip::kString, label);
    }
  }
}

// The diminishing schedule gamma_t = gamma0 / (1 + t / tau) is pure
// iteration-counter state; a restore that failed to carry the counter would
// resume with too-large steps and diverge from the reference immediately.
TEST(RecoveryPropertyTest, DiminishingScheduleResumesBitIdentically) {
  auto workload = MakeScaledSimWorkload(2, /*scale_critical_times=*/true);
  ASSERT_TRUE(workload.ok()) << workload.error();
  LlaConfig config = MakeConfig(1, /*active=*/true);
  config.step_policy = StepPolicyKind::kDiminishing;
  config.gamma0 = 3.0;
  config.diminishing_tau = 50.0;
  CheckResume(workload.value(), config, 60, 80, RoundTrip::kInMemory,
              "diminishing");
  CheckResume(workload.value(), config, 60, 60, RoundTrip::kString,
              "diminishing via string");
}

// The fixed schedule keeps no state: its checkpoint carries empty step
// multiplier sections and a zero step iteration, and still resumes
// bit-identically.
TEST(RecoveryPropertyTest, FixedScheduleResumesBitIdentically) {
  auto workload = MakeScaledSimWorkload(2, /*scale_critical_times=*/true);
  ASSERT_TRUE(workload.ok()) << workload.error();
  LlaConfig config = MakeConfig(1, /*active=*/true);
  config.step_policy = StepPolicyKind::kFixed;
  config.gamma0 = 3.0;
  CheckResume(workload.value(), config, 60, 80, RoundTrip::kInMemory,
              "fixed");
  CheckResume(workload.value(), config, 60, 60, RoundTrip::kString,
              "fixed via string");
}

// A snapshot of one step policy restored into an engine of another: the
// restoring schedule adopts only what its own kind saved, and here there is
// none of that (a fixed or diminishing checkpoint carries no multipliers,
// an adaptive one a zero step iteration).  So the restored engine steps
// exactly like a WarmStart at the snapshot's prices.
TEST(RecoveryPropertyTest, CrossPolicyRestoreStepsLikeWarmStart) {
  auto workload = MakeScaledSimWorkload(2, /*scale_critical_times=*/true);
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);
  const StepPolicyKind pairs[][2] = {
      {StepPolicyKind::kAdaptive, StepPolicyKind::kFixed},
      {StepPolicyKind::kAdaptive, StepPolicyKind::kDiminishing},
      {StepPolicyKind::kFixed, StepPolicyKind::kAdaptive},
      {StepPolicyKind::kDiminishing, StepPolicyKind::kAdaptive}};
  for (const auto& pair : pairs) {
    char label[64];
    std::snprintf(label, sizeof(label), "%s -> %s", ToString(pair[0]),
                  ToString(pair[1]));
    LlaConfig from = MakeConfig(1, /*active=*/true);
    from.step_policy = pair[0];
    from.gamma0 = 3.0;
    LlaConfig to = from;
    to.step_policy = pair[1];
    LlaEngine donor(w, model, from);
    for (int i = 0; i < 60; ++i) donor.Step();
    const StateSnapshot snapshot = donor.Checkpoint();

    LlaEngine warm(w, model, to);
    PriceVector prices;
    prices.mu = snapshot.mu;
    prices.lambda = snapshot.lambda;
    warm.WarmStart(prices);
    const Trajectory expected = StepAndRecord(&warm, 60);

    LlaEngine restored(w, model, to);
    const Status status = restored.Restore(snapshot);
    ASSERT_TRUE(status.ok()) << label << ": " << status.error();
    const Trajectory actual = StepAndRecord(&restored, 60);
    ExpectBitIdentical(expected, actual, label);
  }
}

// A checkpoint that never carried momentum state — a b1 image whose six
// dynamics sections (ids 6..11) are absent — must still restore and, for a
// plain-dynamics engine, resume bit-identically: absent sections decode as
// empty vectors, exactly the fields a plain engine never reads.
TEST(RecoveryPropertyTest, V1SnapshotStillRestores) {
  auto workload = MakeScaledSimWorkload(2, /*scale_critical_times=*/true);
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);
  const LlaConfig config = MakeConfig(1, /*active=*/true);
  LlaEngine reference(w, model, config);
  for (int i = 0; i < 60; ++i) reference.Step();

  auto bytes = SaveSnapshotToString(reference.Checkpoint());
  ASSERT_TRUE(bytes.ok());
  // Drop the dynamics rows from the section table.  Payload offsets count
  // from the end of the table, so the remaining rows stay valid.
  constexpr std::size_t kHeader = 88;
  constexpr std::size_t kEntry = 32;
  const std::string& full = bytes.value();
  std::uint32_t sections = 0;
  std::memcpy(&sections, full.data() + 12, 4);
  std::string image = full.substr(0, kHeader);
  std::uint32_t kept = 0;
  for (std::uint32_t s = 0; s < sections; ++s) {
    const std::size_t row = kHeader + s * kEntry;
    std::uint32_t id = 0;
    std::memcpy(&id, full.data() + row, 4);
    if (id >= 6 && id <= 11) continue;
    image.append(full, row, kEntry);
    ++kept;
  }
  ASSERT_EQ(kept, sections - 6);
  std::memcpy(image.data() + 12, &kept, 4);
  image.append(full, kHeader + sections * kEntry, std::string::npos);

  auto view = ParseSnapshotBinary(image.data(), image.size());
  ASSERT_TRUE(view.ok()) << view.error();
  for (std::size_t id = 6; id <= 11; ++id) {
    EXPECT_FALSE(view.value().sections[id].present()) << "section " << id;
  }

  const Trajectory expected = StepAndRecord(&reference, 60);
  auto loaded = LoadSnapshotFromString(image, w);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  LlaEngine restored(w, model, config);
  ASSERT_TRUE(restored.Restore(std::move(loaded).value()).ok());
  const Trajectory actual = StepAndRecord(&restored, 60);
  ExpectBitIdentical(expected, actual, "snapshot without dynamics sections");
}

// One raw section row to splice into a b1 image.
struct SplicedSection {
  std::uint32_t id;
  std::uint8_t elem_kind;
  std::uint64_t count;
};

// Appends `extra` rows to a b1 image's section table, their payloads (all
// bytes 0x01, so nothing reads as an empty default) after the existing ones.
// Payload offsets count from the end of the table, so the rows already there
// stay valid.
std::string SpliceSections(const std::string& image,
                           const std::vector<SplicedSection>& extra) {
  constexpr std::size_t kHeader = 88;
  constexpr std::size_t kEntry = 32;
  std::uint32_t sections = 0;
  std::memcpy(&sections, image.data() + 12, 4);
  std::string table = image.substr(kHeader, sections * kEntry);
  std::string payload = image.substr(kHeader + sections * kEntry);
  for (const SplicedSection& section : extra) {
    while (payload.size() % 8 != 0) payload.push_back('\0');
    const std::uint64_t offset = payload.size();
    const std::uint64_t size =
        section.count * kSnapshotElemKinds[section.elem_kind].width;
    payload.append(size, '\x01');
    char row[kEntry] = {};
    std::memcpy(row, &section.id, 4);
    row[4] = static_cast<char>(section.elem_kind);
    row[5] = 0;  // raw encoding
    std::memcpy(row + 8, &section.count, 8);
    std::memcpy(row + 16, &offset, 8);
    std::memcpy(row + 24, &size, 8);
    table.append(row, kEntry);
  }
  std::string out = image.substr(0, kHeader);
  const auto total = static_cast<std::uint32_t>(sections + extra.size());
  std::memcpy(out.data() + 12, &total, 4);
  return out + table + payload;
}

// Images written while the approximate epsilon-quiescence mode existed carry
// four more sections: shadow_mu / shadow_lambda (ids 12, 13) and
// mu_stable_epochs / lambda_stable_epochs (ids 20, 21).  Images written while
// the active set retired zero prices carry six more (ids 14-19: the
// change-detection baselines, settled flags and zero-streak counters) and
// set header byte 81.  All ten are retired rows of the catalogue.  Such an
// image must still parse, `lla inspect` must still list the rows, and the
// engine must resume from it bit-identically, whatever the rows hold.  Id 22
// was never assigned and stays an unknown section.
TEST(RecoveryPropertyTest, RetiredSectionsStillRestore) {
  auto workload = MakeScaledSimWorkload(2, /*scale_critical_times=*/true);
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);
  const std::uint64_t R = w.resource_count();
  const std::uint64_t P = w.path_count();
  for (const DynamicsKind kind :
       {DynamicsKind::kPlain, DynamicsKind::kNesterov}) {
    SCOPED_TRACE(ToString(kind));
    LlaConfig config = MakeConfig(1, /*active=*/true);
    config.dynamics.kind = kind;
    LlaEngine reference(w, model, config);
    for (int i = 0; i < 60; ++i) reference.Step();
    auto bytes = SaveSnapshotToString(reference.Checkpoint());
    ASSERT_TRUE(bytes.ok());

    std::string image =
        SpliceSections(bytes.value(), {{12, kSnapshotElemF64, R},
                                       {13, kSnapshotElemF64, P},
                                       {14, kSnapshotElemF64, R},
                                       {15, kSnapshotElemF64, P},
                                       {16, kSnapshotElemU8, R},
                                       {17, kSnapshotElemU8, P},
                                       {18, kSnapshotElemU32, R},
                                       {19, kSnapshotElemU32, P},
                                       {20, kSnapshotElemU32, R},
                                       {21, kSnapshotElemU32, P}});
    image[81] = 1;  // the retired active-set price state was present
    auto view = ParseSnapshotBinary(image.data(), image.size());
    ASSERT_TRUE(view.ok()) << view.error();
    for (std::size_t id = 12; id <= 21; ++id) {
      EXPECT_TRUE(kSnapshotSections[id].retired) << "section " << id;
      EXPECT_TRUE(view.value().sections[id].present()) << "section " << id;
    }
#ifdef LLA_CLI_PATH
    // `lla inspect` renders the parsed view: one row per retired section,
    // marked as such.
    const std::string path = ::testing::TempDir() + "/recovery_retired.snap";
    const std::string listing = path + ".txt";
    std::ofstream(path, std::ios::binary) << image;
    ASSERT_EQ(std::system((std::string(LLA_CLI_PATH) + " inspect " + path +
                           " >" + listing)
                              .c_str()),
              0);
    std::ifstream in(listing);
    std::ostringstream out;
    out << in.rdbuf();
    for (const char* name :
         {"shadow_mu", "shadow_lambda", "prev_share_sums",
          "prev_path_latencies", "mu_settled", "lambda_settled",
          "mu_zero_epochs", "lambda_zero_epochs", "mu_stable_epochs",
          "lambda_stable_epochs"}) {
      const std::size_t row = out.str().find(std::string("\n") + name + " ");
      ASSERT_NE(row, std::string::npos) << name << "\n" << out.str();
      const std::size_t end = out.str().find('\n', row + 1);
      EXPECT_NE(out.str().substr(row, end - row).find("retired"),
                std::string::npos)
          << name;
    }
    std::remove(path.c_str());
    std::remove(listing.c_str());
#endif

    const Trajectory expected = StepAndRecord(&reference, 60);
    auto loaded = LoadSnapshotFromString(image, w);
    ASSERT_TRUE(loaded.ok()) << loaded.error();
    LlaEngine restored(w, model, config);
    ASSERT_TRUE(restored.Restore(std::move(loaded).value()).ok());
    const Trajectory actual = StepAndRecord(&restored, 60);
    ExpectBitIdentical(expected, actual, "image with retired sections");

    const std::string unknown =
        SpliceSections(bytes.value(), {{22, kSnapshotElemF64, R}});
    auto rejected = ParseSnapshotBinary(unknown.data(), unknown.size());
    ASSERT_FALSE(rejected.ok());
    EXPECT_NE(rejected.error().find("unknown section id 22"),
              std::string::npos)
        << rejected.error();
  }
}

// Restore must reject snapshots from a different workload shape instead of
// indexing out of bounds.
TEST(RecoveryPropertyTest, RestoreRejectsShapeMismatch) {
  auto small = MakeScaledSimWorkload(1, /*scale_critical_times=*/true);
  auto large = MakeScaledSimWorkload(2, /*scale_critical_times=*/true);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  LatencyModel small_model(small.value());
  LatencyModel large_model(large.value());
  LlaEngine donor(small.value(), small_model, MakeConfig(1, false));
  for (int i = 0; i < 10; ++i) donor.Step();
  const StateSnapshot snapshot = donor.Checkpoint();

  LlaEngine other(large.value(), large_model, MakeConfig(1, false));
  EXPECT_FALSE(other.Restore(snapshot).ok());
}

}  // namespace
}  // namespace lla
