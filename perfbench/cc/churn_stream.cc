#include "churn_stream.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

#include "workloads/random.h"
#include "workloads/transform.h"

namespace perfbench {

using lla::runtime::ChurnKind;
using lla::runtime::ChurnMutation;

ChurnStream::ChurnStream(ChurnStreamConfig config,
                         std::vector<lla::TaskSpec> donors)
    : config_(config), donors_(std::move(donors)), rng_(config.seed) {}

lla::Expected<ChurnStream> ChurnStream::Create(
    const ChurnStreamConfig& config) {
  if (config.min_live < 1 || config.min_live >= config.max_live) {
    return lla::Expected<ChurnStream>::Error(
        "ChurnStream: the band needs 1 <= min_live < max_live");
  }
  // The donor pool of MakeChurnScript.
  lla::RandomWorkloadConfig donor;
  donor.seed = config.seed * 0x9e3779b97f4a7c15ULL + 1;
  donor.num_resources = config.num_resources;
  donor.num_tasks = std::max(1, config.donor_tasks);
  donor.max_subtasks = std::min(donor.max_subtasks, config.num_resources);
  donor.min_subtasks = std::min(donor.min_subtasks, donor.max_subtasks);
  donor.target_utilization = 0.5;
  auto donors = lla::MakeRandomWorkload(donor);
  if (!donors.ok()) {
    return lla::Expected<ChurnStream>::Error("ChurnStream: donor workload: " +
                                             donors.error());
  }
  return ChurnStream(config, lla::ExtractSpecs(donors.value()).tasks);
}

ChurnMutation ChurnStream::Next(std::size_t live_tasks) {
  assert(live_tasks >= config_.min_live && live_tasks <= config_.max_live);
  const double draw = rng_.NextDouble();
  ChurnKind kind = ChurnKind::kWcetPerturb;
  if (draw < config_.join_fraction) {
    kind = ChurnKind::kJoin;
  } else if (draw < config_.join_fraction + config_.leave_fraction) {
    kind = ChurnKind::kLeave;
  }
  if (kind == ChurnKind::kJoin && live_tasks >= config_.max_live) {
    kind = ChurnKind::kLeave;
  } else if (kind == ChurnKind::kLeave && live_tasks <= config_.min_live) {
    kind = ChurnKind::kJoin;
  }

  ChurnMutation mutation;
  mutation.kind = kind;
  switch (kind) {
    case ChurnKind::kJoin:
      mutation.join_task = donors_[joins_ % donors_.size()];
      mutation.join_task.name = "join_" + std::to_string(joins_);
      ++joins_;
      break;
    case ChurnKind::kLeave:
      mutation.leave_index = static_cast<std::size_t>(rng_.Below(1u << 30));
      break;
    case ChurnKind::kWcetPerturb:
      mutation.subtask_index = static_cast<std::size_t>(rng_.Below(1u << 30));
      mutation.wcet_error_ms =
          rng_.Uniform(-config_.wcet_error_ms, config_.wcet_error_ms);
      break;
  }
  return mutation;
}

}  // namespace perfbench
