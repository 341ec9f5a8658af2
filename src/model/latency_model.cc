#include "model/latency_model.h"

#include <cassert>

namespace lla {

LatencyModel::LatencyModel(const Workload& workload) : workload_(&workload) {
  shares_.reserve(workload.subtask_count());
  for (const SubtaskInfo& sub : workload.subtasks()) {
    shares_.emplace_back(sub.work_ms, 0.0);
  }
}

void LatencyModel::SetShareFunction(SubtaskId id, ShareFunction share) {
  assert(id.value() < shares_.size());
  shares_[id.value()] = share;
  ++revision_;
}

void LatencyModel::SetAdditiveError(SubtaskId id, double error_ms) {
  assert(id.value() < shares_.size());
  shares_[id.value()] = ShareFunction(workload_->subtask(id).work_ms, error_ms);
  ++revision_;
}

}  // namespace lla
