#include "runtime/churn.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "common/rng.h"
#include "workloads/random.h"
#include "workloads/transform.h"

namespace lla::runtime {
namespace {
// MakeChurnScript's mutation mix; the remainder are WCET perturbations.
constexpr double kJoinFraction = 0.4;
constexpr double kLeaveFraction = 0.3;
// Each WCET perturbation draws uniformly from [-kWcetErrorMs, kWcetErrorMs).
constexpr double kWcetErrorMs = 0.02;
}  // namespace

ChurnDriver::ChurnDriver(std::vector<ResourceSpec> resources,
                         std::vector<TaskSpec> tasks, ChurnConfig config)
    : resources_(std::move(resources)),
      tasks_(std::move(tasks)),
      config_(std::move(config)) {
  admission_ = std::make_unique<admission::AdmissionController>(
      resources_, config_.admission);
}

Expected<ChurnDriver> ChurnDriver::Create(std::vector<ResourceSpec> resources,
                                          std::vector<TaskSpec> tasks,
                                          ChurnConfig config) {
  auto built = Workload::Create(resources, tasks);
  if (!built.ok()) {
    return Expected<ChurnDriver>::Error("ChurnDriver: " + built.error());
  }
  ChurnDriver driver(std::move(resources), std::move(tasks),
                     std::move(config));
  driver.workload_ = std::make_unique<Workload>(std::move(built).value());
  driver.model_ = std::make_unique<LatencyModel>(*driver.workload_);
  driver.engine_ = std::make_unique<LlaEngine>(
      *driver.workload_, *driver.model_, driver.config_.lla);
  driver.engine_->Run(driver.config_.max_iterations);
  return driver;
}

std::vector<TaskSpec> ChurnDriver::CorrectedSpecs() const {
  std::vector<TaskSpec> corrected = tasks_;
  if (wcet_errors_.empty()) return corrected;
  for (TaskSpec& task : corrected) {
    for (std::size_t j = 0; j < task.subtasks.size(); ++j) {
      const auto it = wcet_errors_.find({task.name, j});
      // The stored error is clamped >= -0.5 * wcet at application time, so
      // the corrected wcet stays strictly positive.
      if (it != wcet_errors_.end()) task.subtasks[j].wcet_ms += it->second;
    }
  }
  return corrected;
}

void ChurnDriver::ReplayWcetErrors() {
  if (wcet_errors_.empty()) return;
  for (const TaskInfo& task : workload_->tasks()) {
    for (std::size_t j = 0; j < task.subtasks.size(); ++j) {
      const auto it = wcet_errors_.find({task.name, j});
      if (it != wcet_errors_.end()) {
        model_->SetAdditiveError(task.subtasks[j], it->second);
      }
    }
  }
}

bool ChurnDriver::CommitStructural(std::vector<TaskSpec> new_tasks,
                                   StructuralChange change,
                                   std::string* error) {
  auto built = Workload::Create(resources_, new_tasks);
  if (!built.ok()) {
    *error = built.error();
    return false;
  }
  auto new_workload = std::make_unique<Workload>(std::move(built).value());
  auto new_model = std::make_unique<LatencyModel>(*new_workload);
  auto new_engine = std::make_unique<LlaEngine>(*new_workload, *new_model,
                                                config_.lla);
  const Status seeded = new_engine->WarmStartStructural(
      *workload_, engine_->prices(), change);
  if (!seeded.ok()) {
    *error = seeded.error();
    return false;
  }
  // Destruction order: the old engine references the old workload/model, so
  // it goes first.
  engine_ = std::move(new_engine);
  model_ = std::move(new_model);
  workload_ = std::move(new_workload);
  tasks_ = std::move(new_tasks);
  // Replaying the accumulated WCET corrections bumps the model revision, so
  // the engine's first Step() solves against the corrected model.
  ReplayWcetErrors();
  return true;
}

void ChurnDriver::RunAndRecord(std::size_t prime_solves,
                               ChurnRecord* record) {
  const int iterations_before = engine_->iteration();
  const auto start = std::chrono::steady_clock::now();
  const RunResult result = engine_->Run(config_.max_iterations);
  record->converged = result.converged;
  record->iterations = engine_->iteration() - iterations_before;
  record->subtask_solves =
      static_cast<std::uint64_t>(prime_solves) + result.subtask_solves;
  record->final_utility = result.final_utility;
  if (!result.converged) {
    engine_->Reset();
    const RunResult retry = engine_->Run(config_.max_iterations);
    record->converged = retry.converged;
    record->iterations += retry.iterations;
    record->subtask_solves +=
        retry.subtask_solves + workload_->subtask_count();
    record->final_utility = retry.final_utility;
    record->note = "cold restart after warm stall";
  }
  const auto stop = std::chrono::steady_clock::now();
  record->wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  record->tasks_after = workload_->task_count();
}

ChurnRecord ChurnDriver::ApplyJoin(const TaskSpec& candidate) {
  ChurnRecord record;
  record.kind = ChurnKind::kJoin;
  record.tasks_after = workload_->task_count();
  std::vector<TaskSpec> new_tasks = tasks_;
  new_tasks.push_back(candidate);
  const TaskId added(static_cast<std::uint32_t>(new_tasks.size() - 1));
  if (!CommitStructural(std::move(new_tasks),
                        StructuralChange::TaskJoin(added), &record.note)) {
    return record;
  }
  record.applied = true;
  RunAndRecord(workload_->subtask_count(), &record);
  return record;
}

ChurnRecord ChurnDriver::ApplyLeave(std::size_t leave_index) {
  ChurnRecord record;
  record.kind = ChurnKind::kLeave;
  record.tasks_after = workload_->task_count();
  if (workload_->task_count() <= config_.min_tasks) {
    record.note = "at min_tasks";
    return record;
  }
  const std::size_t index = leave_index % workload_->task_count();
  const TaskId removed(static_cast<std::uint32_t>(index));
  std::vector<TaskSpec> new_tasks = tasks_;
  // Departed tasks take their accumulated WCET corrections with them (the
  // name may be reused by a later, unrelated join).
  for (std::size_t j = 0; j < new_tasks[index].subtasks.size(); ++j) {
    wcet_errors_.erase({new_tasks[index].name, j});
  }
  new_tasks.erase(new_tasks.begin() + static_cast<std::ptrdiff_t>(index));
  if (!CommitStructural(std::move(new_tasks),
                        StructuralChange::TaskLeave(removed), &record.note)) {
    return record;
  }
  record.applied = true;
  RunAndRecord(workload_->subtask_count(), &record);
  return record;
}

ChurnRecord ChurnDriver::ApplyPerturb(const ChurnMutation& mutation) {
  ChurnRecord record;
  record.kind = ChurnKind::kWcetPerturb;
  record.tasks_after = workload_->task_count();
  const std::size_t index = mutation.subtask_index % workload_->subtask_count();
  const SubtaskId sid(static_cast<std::uint32_t>(index));
  const SubtaskInfo& subtask = workload_->subtask(sid);
  const TaskInfo& task = workload_->task(subtask.task);
  std::size_t position = 0;
  while (position < task.subtasks.size() && task.subtasks[position] != sid) {
    ++position;
  }
  assert(position < task.subtasks.size());
  double& error = wcet_errors_[{task.name, position}];
  // Keep the corrected WCET strictly positive: corrections never shrink the
  // estimate below half the spec.
  error = std::max(error + mutation.wcet_error_ms, -0.5 * subtask.wcet_ms);
  model_->SetAdditiveError(sid, error);
  engine_->ClearConvergenceWindow();
  record.applied = true;
  RunAndRecord(0, &record);
  return record;
}

ChurnRecord ChurnDriver::Apply(const ChurnMutation& mutation) {
  switch (mutation.kind) {
    case ChurnKind::kJoin:
      // A one-join burst: ApplyAll's gate probes exactly this candidate set.
      return ApplyAll({mutation}).front();
    case ChurnKind::kLeave:
      return ApplyLeave(mutation.leave_index);
    case ChurnKind::kWcetPerturb:
      return ApplyPerturb(mutation);
  }
  return {};
}

std::vector<ChurnRecord> ChurnDriver::ApplyAll(
    const std::vector<ChurnMutation>& script) {
  std::vector<ChurnRecord> records;
  records.reserve(script.size());
  std::size_t i = 0;
  while (i < script.size()) {
    if (script[i].kind != ChurnKind::kJoin) {
      records.push_back(Apply(script[i]));
      ++i;
      continue;
    }
    // Burst of consecutive joins: probe CUMULATIVE candidate sets (set k =
    // live tasks + joins i..i+k) concurrently in one ProbeAll — the verdict
    // for set k under an all-schedulable prefix equals the sequential gate
    // decision for join i+k.  The longest schedulable prefix is applied in
    // order; the first rejection is recorded, and the remainder of the
    // burst re-probes against the new incumbent.
    std::size_t burst_end = i;
    while (burst_end < script.size() &&
           script[burst_end].kind == ChurnKind::kJoin) {
      ++burst_end;
    }
    while (i < burst_end) {
      std::vector<std::vector<TaskSpec>> candidate_sets;
      candidate_sets.reserve(burst_end - i);
      std::vector<TaskSpec> cumulative = CorrectedSpecs();
      for (std::size_t k = i; k < burst_end; ++k) {
        cumulative.push_back(script[k].join_task);
        candidate_sets.push_back(cumulative);
      }
      const auto probes = admission_->ProbeAll(candidate_sets);
      std::size_t prefix = 0;
      while (prefix < probes.size() && probes[prefix].schedulable) ++prefix;
      for (std::size_t k = 0; k < prefix; ++k) {
        records.push_back(ApplyJoin(script[i + k].join_task));
      }
      i += prefix;
      if (i < burst_end) {
        ChurnRecord rejected;
        rejected.kind = ChurnKind::kJoin;
        rejected.tasks_after = workload_->task_count();
        rejected.note = probes[prefix].reason.empty()
                            ? "not schedulable"
                            : probes[prefix].reason;
        records.push_back(std::move(rejected));
        ++i;
      }
    }
  }
  return records;
}

Expected<std::vector<ChurnMutation>> MakeChurnScript(
    const ChurnScriptConfig& config) {
  // Donor pool: tasks from a random workload over the same resource-id
  // space, renamed uniquely per join so repeated admissions stay valid.
  RandomWorkloadConfig donor;
  donor.seed = config.seed * 0x9e3779b97f4a7c15ULL + 1;
  donor.num_resources = config.num_resources;
  donor.num_tasks = std::max(1, config.donor_tasks);
  donor.max_subtasks = std::min(donor.max_subtasks, config.num_resources);
  donor.min_subtasks = std::min(donor.min_subtasks, donor.max_subtasks);
  // Generously schedulable in isolation: the gate, not the generator,
  // decides what the live system can absorb.
  donor.target_utilization = 0.5;
  auto donor_workload = MakeRandomWorkload(donor);
  if (!donor_workload.ok()) {
    return Expected<std::vector<ChurnMutation>>::Error(
        "MakeChurnScript: donor workload: " + donor_workload.error());
  }
  const std::vector<TaskSpec> pool =
      ExtractSpecs(donor_workload.value()).tasks;

  Rng rng(config.seed);
  std::vector<ChurnMutation> script;
  script.reserve(config.mutations);
  std::size_t joins = 0;
  for (std::size_t m = 0; m < config.mutations; ++m) {
    const double draw = rng.NextDouble();
    ChurnMutation mutation;
    if (draw < kJoinFraction) {
      mutation.kind = ChurnKind::kJoin;
      mutation.join_task = pool[joins % pool.size()];
      mutation.join_task.name = "join_" + std::to_string(joins);
      ++joins;
    } else if (draw < kJoinFraction + kLeaveFraction) {
      mutation.kind = ChurnKind::kLeave;
      mutation.leave_index = static_cast<std::size_t>(rng.Below(1u << 30));
    } else {
      mutation.kind = ChurnKind::kWcetPerturb;
      mutation.subtask_index = static_cast<std::size_t>(rng.Below(1u << 30));
      mutation.wcet_error_ms = rng.Uniform(-kWcetErrorMs, kWcetErrorMs);
    }
    script.push_back(std::move(mutation));
  }
  return script;
}

}  // namespace lla::runtime
