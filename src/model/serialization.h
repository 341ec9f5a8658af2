// Text serialization for workloads: a small line-oriented format so
// deployments can be written by hand, versioned, and fed to the CLI tool.
//
//   # comment
//   resource <name> <cpu|link> <capacity> <lag_ms>
//   task <name> <critical_time_ms>
//     utility linear <offset> <slope>
//     utility power <offset> <coeff> <exponent>
//     utility negexp <offset> <rate>
//     utility inelastic <plateau> <flat_until> <steepness>
//     trigger periodic <period_ms> [phase_ms]
//     trigger poisson <rate_per_s>
//     trigger bursty <period_ms> <burst_size> <spread_ms>
//     subtask <name> <resource_name> <wcet_ms> [min_share]
//     edge <from_index> <to_index>
//   end
//
// Resources must be declared before tasks; subtask indices within a task
// follow declaration order.  SaveWorkload emits exactly this format, with
// numbers at the stream's default six significant digits.  So save/load
// round-trips a workload whose values have at most six significant digits;
// any other value is rounded by the first save, after which the text is a
// fixed point: loading and saving it again reproduces it byte for byte.
// (The perfbench instance pool is this text, so a change of precision
// waits for a change of the benchmark.)
#pragma once

#include <cstdint>
#include <iosfwd>
#include <iterator>
#include <string>
#include <vector>

#include "common/expected.h"
#include "model/workload.h"

namespace lla {

/// Parses the format above; returns a validated workload or a message with
/// the offending line number.
Expected<Workload> LoadWorkload(std::istream& in);
Expected<Workload> LoadWorkloadFromString(const std::string& text);
Expected<Workload> LoadWorkloadFromFile(const std::string& path);

/// Serializes the workload.  Fails only when the stream (or file) refuses
/// the text, e.g. on a full device.
Status SaveWorkload(const Workload& workload, std::ostream& out);
Expected<std::string> SaveWorkloadToString(const Workload& workload);
Status SaveWorkloadToFile(const Workload& workload, const std::string& path);

/// Durable checkpoint of an engine's dual state (DESIGN.md §7.7): everything
/// LlaEngine::Restore() needs to resume the dense trajectory bit-identically.
/// Lives in the model layer (plain vectors, no core types) so serialization
/// stays dependency-free; the engine translates to/from its internal state.
///
/// Persisted in the binary format "b1" below, which keeps every value's
/// exact IEEE-754 / integer bit pattern, so a save/load round trip is
/// bit-exact — the memcmp resume guarantee depends on it.
struct StateSnapshot {
  /// Shape guard: Restore() refuses a snapshot taken against a workload
  /// with different counts (prices would be misindexed, not just stale).
  std::uint64_t resource_count = 0;
  std::uint64_t path_count = 0;
  std::uint64_t subtask_count = 0;
  std::uint64_t task_count = 0;

  std::int64_t iteration = 0;
  bool converged = false;
  std::uint64_t total_subtask_solves = 0;

  /// Dual variables (PriceVector::mu / ::lambda).
  std::vector<double> mu;
  std::vector<double> lambda;

  /// Step-size policy state: adaptive doubling multipliers (empty for the
  /// fixed policy) and the diminishing-schedule iteration counter.
  std::vector<double> resource_step_multiplier;
  std::vector<double> path_step_multiplier;
  std::int64_t step_iteration = 0;

  /// Trailing utility window of the convergence detector.
  std::vector<double> recent_utilities;

  /// Accelerated price-dynamics state (core/price_dynamics.h): velocity
  /// vectors per dual space plus, for Nesterov, the un-extrapolated base
  /// iterates, the per-component momentum-ramp phases (steps since restart,
  /// small integers stored as doubles), and the cumulative adaptive-restart
  /// counter.  All empty / zero for plain-dynamics engines and when a b1
  /// image lacks the six dynamics sections — which restores as fresh (zero)
  /// momentum, the faithful reading of a checkpoint that never carried
  /// momentum state.
  std::vector<double> mu_velocity;
  std::vector<double> lambda_velocity;
  std::vector<double> mu_base;
  std::vector<double> lambda_base;
  std::vector<double> mu_phase;
  std::vector<double> lambda_phase;
  std::uint64_t momentum_restarts = 0;
};

/// Snapshot format "b1" (DESIGN.md §7.10): an 8-byte magic + version, the
/// scalar header, then a section table of length-prefixed sections whose
/// payloads are raw little-endian IEEE-754 bit patterns (or integer words)
/// laid out contiguously and 8-byte aligned — so a restore is a bounds check
/// plus memcpy per section.  Each section additionally records one of three
/// encodings chosen by size at save time: raw (contiguous words), run-length
/// (repeated words collapse — all-1.0 step multipliers), or sparse
/// (index/value pairs of the non-zero words — mostly-zero lambda and
/// velocities).  All encodings keep the exact bit patterns, and equal
/// snapshots encode to equal bytes.
Expected<std::string> SaveSnapshotToString(const StateSnapshot& snapshot);
Status SaveSnapshotToFile(const StateSnapshot& snapshot,
                          const std::string& path);

/// Parses a b1 image (ParseSnapshotBinary), checks the header's shape
/// against `workload` — the workload of the engine the snapshot will restore
/// into — and only then decodes each section into an owning snapshot.  An
/// image that declares another shape is refused before any section is
/// decoded, so no image can make a load allocate more than that engine's
/// own dual state.  These are the only decoders of section payloads.  The
/// error locates the defect by byte layout or section id.  The file loader
/// reads the file with ReadSnapshotFile.
Expected<StateSnapshot> LoadSnapshotFromString(const std::string& bytes,
                                               const Workload& workload);
Expected<StateSnapshot> LoadSnapshotFromFile(const std::string& path,
                                             const Workload& workload);

/// Reads a whole snapshot file into memory: the one file reader of the b1
/// loaders and `lla inspect`.  Images are tens of KB even at the
/// 10^6-subtask tier (BENCH_scale.json), so a mapping would save nothing.
/// Refuses what is not a regular file (a device or pipe read need never
/// end) and a file of more than 1 GiB.
Expected<std::string> ReadSnapshotFile(const std::string& path);

/// Most values a b1 image's recent_utilities section may hold: the stop
/// rule's trailing window (kConvergenceWindow, core/engine.h).
inline constexpr std::uint64_t kSnapshotUtilityWindow = 10;

/// Element kinds of a b1 section, indexing kSnapshotElemKinds.
inline constexpr std::uint8_t kSnapshotElemF64 = 0;
inline constexpr std::uint8_t kSnapshotElemU8 = 1;
inline constexpr std::uint8_t kSnapshotElemU32 = 2;

struct SnapshotElemKind {
  const char* name;
  std::size_t width;  ///< bytes per element
};
inline constexpr SnapshotElemKind kSnapshotElemKinds[] = {
    {"f64", 8}, {"u8", 1}, {"u32", 4}};

/// The b1 section catalogue, indexed by section id (slot 0 is unused): the
/// StateSnapshot field each id carries and its element kind.  Ids and kinds
/// are part of the format; the encoder, the parser and `lla inspect` all
/// read this one table.  A RETIRED row names state the engine no longer
/// keeps: ids 12, 13, 20, 21 (the epsilon-quiescence shadow prices and
/// stability counters) and 14-19 (the active-set price retirement's
/// change-detection baselines, settled flags and zero-streak counters).
/// The encoder never writes it; the parser still validates it, so older
/// images keep restoring, and the loaders ignore it.
struct SnapshotSectionSpec {
  const char* name;  ///< nullptr: no section has this id
  std::uint8_t elem_kind;
  bool retired = false;
};
inline constexpr SnapshotSectionSpec kSnapshotSections[] = {
    {nullptr, 0},
    {"mu", kSnapshotElemF64},
    {"lambda", kSnapshotElemF64},
    {"resource_step_multiplier", kSnapshotElemF64},
    {"path_step_multiplier", kSnapshotElemF64},
    {"recent_utilities", kSnapshotElemF64},
    {"mu_velocity", kSnapshotElemF64},
    {"lambda_velocity", kSnapshotElemF64},
    {"mu_base", kSnapshotElemF64},
    {"lambda_base", kSnapshotElemF64},
    {"mu_phase", kSnapshotElemF64},
    {"lambda_phase", kSnapshotElemF64},
    {"shadow_mu", kSnapshotElemF64, true},
    {"shadow_lambda", kSnapshotElemF64, true},
    {"prev_share_sums", kSnapshotElemF64, true},
    {"prev_path_latencies", kSnapshotElemF64, true},
    {"mu_settled", kSnapshotElemU8, true},
    {"lambda_settled", kSnapshotElemU8, true},
    {"mu_zero_epochs", kSnapshotElemU32, true},
    {"lambda_zero_epochs", kSnapshotElemU32, true},
    {"mu_stable_epochs", kSnapshotElemU32, true},
    {"lambda_stable_epochs", kSnapshotElemU32, true},
};

/// A parsed, NON-OWNING view of a b1 image (DESIGN.md §7.11).
/// ParseSnapshotBinary decodes the scalar header, fully validates the
/// section table, and ties every live section's count to the header: mu
/// and lambda hold exactly the declared resource and path counts, each step
/// and dynamics section 0 or that count on its side, recent_utilities at
/// most kSnapshotUtilityWindow.  It checks every section's encoding with
/// the loaders' own reader, b1::DecodeWords, given a null output: the same
/// rules, no word stored.  So a loader's decode of a parsed view cannot
/// fail; if it does, the loader aborts with a message.  The section
/// payloads stay byte ranges aliasing the caller's buffer, and parsing
/// allocates nothing per section (`lla inspect` reads the table from here);
/// the loaders above decode the payloads.  The backing bytes must outlive
/// the view.
struct SnapshotSectionRef {
  std::uint8_t elem_kind = 0;
  std::uint8_t encoding = 0;
  std::uint64_t count = 0;
  const char* data = nullptr;  ///< encoded payload bytes (aliased)
  std::uint64_t size = 0;
  bool present() const { return data != nullptr; }
};

struct SnapshotView {
  std::uint64_t resource_count = 0;
  std::uint64_t path_count = 0;
  std::uint64_t subtask_count = 0;
  std::uint64_t task_count = 0;
  std::int64_t iteration = 0;
  bool converged = false;
  std::uint64_t total_subtask_solves = 0;
  std::int64_t step_iteration = 0;
  std::uint64_t momentum_restarts = 0;
  /// Indexed by section id (slot 0 unused).  A section absent from the image
  /// has data == nullptr and loads as an empty vector; a retired one is kept
  /// here for `lla inspect` and never decoded.
  static constexpr std::size_t kMaxSectionId = std::size(kSnapshotSections) - 1;
  SnapshotSectionRef sections[kMaxSectionId + 1];
};

Expected<SnapshotView> ParseSnapshotBinary(const char* data, std::size_t size);

}  // namespace lla
