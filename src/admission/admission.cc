#include "admission/admission.h"

#include <memory>
#include <sstream>

#include "core/engine_batch.h"
#include "solver/phase1.h"

namespace lla::admission {

const char* ToString(Decision decision) {
  switch (decision) {
    case Decision::kAdmitted:
      return "admitted";
    case Decision::kRejectedInvalid:
      return "rejected (invalid)";
    case Decision::kRejectedInfeasible:
      return "rejected (infeasible)";
    case Decision::kRejectedNetBenefit:
      return "rejected (net benefit)";
  }
  return "?";
}

AdmissionController::AdmissionController(std::vector<ResourceSpec> resources,
                                         AdmissionConfig config)
    : resources_(std::move(resources)), config_(config) {}

std::vector<std::string> AdmissionController::TaskNames() const {
  std::vector<std::string> names;
  names.reserve(tasks_.size());
  for (const TaskSpec& task : tasks_) names.push_back(task.name);
  return names;
}

std::vector<ProbeResult> AdmissionController::ProbeAll(
    const std::vector<std::vector<TaskSpec>>& candidate_sets) const {
  // External callers probe arbitrary sets; none is known to be the
  // incumbent, so no warm start applies.
  return ProbeAllImpl(candidate_sets, candidate_sets.size());
}

std::vector<ProbeResult> AdmissionController::ProbeAllImpl(
    const std::vector<std::vector<TaskSpec>>& candidate_sets,
    std::size_t incumbent_index) const {
  std::vector<ProbeResult> results(candidate_sets.size());

  // Validation and the cheap prechecks run serially in set order; sets that
  // survive queue an optimizer run.  Workload/model live on the heap so
  // their addresses stay stable for the batch engines.
  struct PendingRun {
    std::size_t index;
    std::unique_ptr<Workload> workload;
    std::unique_ptr<LatencyModel> model;
  };
  std::vector<PendingRun> pending;
  for (std::size_t i = 0; i < candidate_sets.size(); ++i) {
    ProbeResult& out = results[i];
    auto created = Workload::Create(resources_, candidate_sets[i]);
    if (!created.ok()) {
      out.reason = created.error();
      continue;
    }
    auto workload = std::make_unique<Workload>(std::move(created.value()));

    // Necessary condition: sustainable minimum shares fit.
    bool precheck_failed = false;
    for (const ResourceInfo& resource : workload->resources()) {
      const double demand = workload->MinShareDemand(resource.id);
      if (demand > resource.capacity) {
        std::ostringstream os;
        os << "minimum sustainable share demand " << demand << " exceeds "
           << resource.name << " capacity " << resource.capacity;
        out.reason = os.str();
        precheck_failed = true;
        break;
      }
    }
    if (precheck_failed) continue;

    auto model = std::make_unique<LatencyModel>(*workload);

    // Fast certificate: Phase-I finds (or fails to find) an interior point.
    const Phase1Result phase1 = Phase1Solver(*workload, *model).Solve();
    if (!phase1.strictly_feasible && phase1.max_violation > 1e-3) {
      std::ostringstream os;
      os << "Phase-I residual " << phase1.max_violation
         << ": no feasible assignment exists";
      out.reason = os.str();
      continue;
    }
    pending.push_back({i, std::move(workload), std::move(model)});
  }
  if (pending.empty()) return results;

  // Full test: the optimizer itself (paper Sec. 5.4), one engine per
  // surviving set, stepped concurrently across probe_threads.
  LlaConfig lla_config = config_.lla;
  lla_config.record_history = false;
  EngineBatch batch(config_.probe_threads);
  std::size_t incumbent_pending = pending.size();
  for (std::size_t p = 0; p < pending.size(); ++p) {
    PendingRun& run = pending[p];
    const int index = batch.Add(*run.workload, *run.model, lla_config);
    if (run.index == incumbent_index && incumbent_prices_valid_ &&
        incumbent_prices_.mu.size() == run.workload->resource_count() &&
        incumbent_prices_.lambda.size() == run.workload->path_count()) {
      // Re-probing the unchanged incumbent set: start at its last known
      // optimum instead of cold.
      batch.engine(index).WarmStart(incumbent_prices_);
    }
    if (run.index == incumbent_index) incumbent_pending = p;
  }
  const std::vector<RunResult> runs = batch.RunAll(config_.max_iterations);
  for (std::size_t p = 0; p < pending.size(); ++p) {
    ProbeResult& out = results[pending[p].index];
    const RunResult& run = runs[p];
    out.evaluated = true;
    out.utility = run.final_utility;
    if (!run.converged || !run.final_feasibility.feasible) {
      std::ostringstream os;
      os << "optimizer " << (run.converged ? "converged infeasible" :
                             "did not converge")
         << " after " << run.iterations << " iterations";
      out.reason = os.str();
    } else {
      out.schedulable = true;
      if (p == incumbent_pending) {
        incumbent_prices_ = batch.engine(static_cast<int>(p)).prices();
        incumbent_prices_valid_ = true;
      }
    }
  }
  return results;
}

AdmissionReport AdmissionController::TryAdmit(const TaskSpec& candidate) {
  AdmissionReport report;

  std::vector<TaskSpec> trial = tasks_;
  trial.push_back(candidate);
  {
    // Validation distinct from schedulability for a precise decision code.
    auto workload = Workload::Create(resources_, trial);
    if (!workload.ok()) {
      report.decision = Decision::kRejectedInvalid;
      report.reason = workload.error();
      return report;
    }
  }

  // The incumbent-only optimum (net-benefit policy and reporting) and the
  // with-candidate test are independent optimizations: probe them side by
  // side — concurrent when config_.probe_threads > 1, and bit-identical to
  // the sequential evaluation either way.
  std::vector<std::vector<TaskSpec>> sets;
  if (!tasks_.empty()) sets.push_back(tasks_);
  sets.push_back(trial);
  const std::vector<ProbeResult> probes =
      ProbeAllImpl(sets, tasks_.empty() ? sets.size() : 0);
  if (!tasks_.empty() && probes.front().schedulable) {
    report.utility_before = probes.front().utility;
  }
  const ProbeResult& trial_probe = probes.back();
  if (!trial_probe.schedulable) {
    report.decision = Decision::kRejectedInfeasible;
    report.reason = trial_probe.reason;
    return report;
  }
  const double utility_after = trial_probe.utility;
  report.utility_after = utility_after;

  if (config_.policy == Policy::kNetBenefit &&
      utility_after - report.utility_before < config_.min_net_benefit) {
    std::ostringstream os;
    os << "net benefit " << (utility_after - report.utility_before)
       << " below required " << config_.min_net_benefit;
    report.decision = Decision::kRejectedNetBenefit;
    report.reason = os.str();
    return report;
  }

  tasks_.push_back(candidate);
  incumbent_prices_valid_ = false;  // the admitted set (and its shape) moved
  report.decision = Decision::kAdmitted;
  std::ostringstream os;
  os << "admitted; optimal utility " << report.utility_before << " -> "
     << utility_after;
  report.reason = os.str();
  return report;
}

bool AdmissionController::Remove(const std::string& task_name) {
  for (auto it = tasks_.begin(); it != tasks_.end(); ++it) {
    if (it->name == task_name) {
      tasks_.erase(it);
      incumbent_prices_valid_ = false;
      return true;
    }
  }
  return false;
}

double AdmissionController::CurrentUtility() const {
  if (tasks_.empty()) return 0.0;
  const ProbeResult probe = ProbeAllImpl({tasks_}, 0).front();
  return probe.evaluated ? probe.utility : 0.0;
}

}  // namespace lla::admission
