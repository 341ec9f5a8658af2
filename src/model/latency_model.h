// LatencyModel: the per-subtask share functions the optimizer believes.
//
// By default every subtask uses the paper's Eq. 10 model,
// share = (wcet + lag)/lat, i.e. ShareFunction(work_ms, 0).  The online
// error-correction layer (Sec. 6.3) replaces individual entries with
// additively corrected models as measurements arrive; the optimizer always
// consults this object, so model improvements take effect on the next
// iteration.  Shares are held by value and change only through the two
// setters below, each of which bumps revision(): that counter is the one
// freshness signal every model-derived cache keys on.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "model/share.h"
#include "model/workload.h"

namespace lla {

class LatencyModel {
 public:
  /// Builds the default (uncorrected) model for every subtask of `workload`.
  explicit LatencyModel(const Workload& workload);

  const ShareFunction& share(SubtaskId id) const {
    return shares_[id.value()];
  }

  /// Replaces the model for one subtask (takes effect immediately).
  void SetShareFunction(SubtaskId id, ShareFunction share);

  /// Convenience: installs the subtask's (wcet + lag) model shifted by the
  /// given additive error (error may be negative; 0 restores the default).
  void SetAdditiveError(SubtaskId id, double error_ms);

  /// The additive error currently applied to a subtask (0 when uncorrected).
  double AdditiveError(SubtaskId id) const {
    return shares_[id.value()].error_ms();
  }

  std::size_t size() const { return shares_.size(); }

  /// Bumped every time a share function is replaced.  Consumers that cache
  /// model-derived invariants (LatencySolver's box bounds) compare this to
  /// their cached value and rebuild on mismatch, so online corrections take
  /// effect on the next solve.
  std::uint64_t revision() const { return revision_; }

 private:
  const Workload* workload_;
  std::vector<ShareFunction> shares_;
  std::uint64_t revision_ = 0;
};

}  // namespace lla
