// The churn_serve mutation stream: mutations drawn the way
// runtime::MakeChurnScript draws them (same donor pool, join naming and
// per-kind draws), except that the kind is steered to keep the live task
// count inside a fixed band, so a mutation's cost does not drift with the
// length of the run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/expected.h"
#include "common/rng.h"
#include "model/workload.h"
#include "runtime/churn.h"

namespace perfbench {

struct ChurnStreamConfig {
  std::uint64_t seed = 1;
  int num_resources = 24;
  /// The live task count stays in [min_live, max_live].
  std::size_t min_live = 8;
  std::size_t max_live = 16;
  double join_fraction = 0.4;
  double leave_fraction = 0.3;  ///< remainder: WCET corrections
  double wcet_error_ms = 0.02;
  int donor_tasks = 12;
};

class ChurnStream {
 public:
  static lla::Expected<ChurnStream> Create(const ChurnStreamConfig& config);

  /// The next mutation for a system with `live_tasks` tasks (which must lie
  /// inside the band).  The kind is drawn 40/30/30; a join drawn at
  /// max_live becomes a leave and a leave drawn at min_live becomes a join,
  /// so whether or not a join is admitted the count stays in the band.
  lla::runtime::ChurnMutation Next(std::size_t live_tasks);

 private:
  ChurnStream(ChurnStreamConfig config, std::vector<lla::TaskSpec> donors);

  ChurnStreamConfig config_;
  std::vector<lla::TaskSpec> donors_;
  lla::Rng rng_;
  std::size_t joins_ = 0;
};

}  // namespace perfbench
