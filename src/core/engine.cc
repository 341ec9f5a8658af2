#include "core/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

namespace lla {

LlaEngine::LlaEngine(const Workload& workload, const LatencyModel& model,
                     LlaConfig config)
    : workload_(&workload),
      model_(&model),
      config_(config),
      solver_(workload, model, config.solver),
      updater_(workload, model),
      schedule_(config.step_policy, config.gamma0,
                config.adaptive_max_multiplier, config.diminishing_tau,
                "LlaEngine") {
  ValidateDynamicsConfig(config_.dynamics, "LlaEngine");
  if (config_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(config_.num_threads,
                                         config_.parallel);
  }
  if (config_.metrics != nullptr) {
    steps_counter_ = config_.metrics->GetCounter("engine.steps");
    solve_timer_ = config_.metrics->GetTimer("engine.solve");
    price_timer_ = config_.metrics->GetTimer("engine.price_update");
    if (config_.active_set.enabled) {
      active_tasks_solved_ =
          config_.metrics->GetCounter("engine.active.tasks_solved");
      active_subtasks_solved_ =
          config_.metrics->GetCounter("engine.active.subtasks_solved");
      active_resources_refreshed_ =
          config_.metrics->GetCounter("engine.active.resources_refreshed");
      active_paths_refreshed_ =
          config_.metrics->GetCounter("engine.active.paths_refreshed");
      active_primes_ = config_.metrics->GetCounter("engine.active.primes");
    }
    if (config_.dynamics.kind != DynamicsKind::kPlain) {
      momentum_restarts_counter_ =
          config_.metrics->GetCounter("engine.momentum.restarts");
    }
    reprime_tasks_counter_ =
        config_.metrics->GetCounter("engine.reprime.tasks");
    reprime_resources_counter_ =
        config_.metrics->GetCounter("engine.reprime.resources");
  }
  workspace_.Resize(workload);
  Reset();
}

void LlaEngine::Reset() {
  prices_ = PriceVector::Zero(*workload_);
  latencies_.assign(workload_->subtask_count(), 0.0);
  schedule_.Reset(*workload_);
  ResetDynamics();
  iteration_ = 0;
  converged_ = false;
  total_subtask_solves_ = 0;
  recent_utilities_.clear();
  history_.clear();
  // Start from the price-greedy allocation so latencies_ is always valid.
  SolveAtPrices();
}

void LlaEngine::SolveAtPrices() {
  solver_.SolveAll(prices_, &latencies_, pool_.get());
  if (active_primes_ != nullptr) active_primes_->Increment();
}

void LlaEngine::ResetDynamics() {
  if (config_.dynamics.kind == DynamicsKind::kPlain) return;
  mu_dynamics_.resize(prices_.mu.size());
  lambda_dynamics_.resize(prices_.lambda.size());
  for (std::size_t r = 0; r < prices_.mu.size(); ++r) {
    mu_dynamics_[r].ReseedAt(prices_.mu[r]);
  }
  for (std::size_t p = 0; p < prices_.lambda.size(); ++p) {
    lambda_dynamics_[p].ReseedAt(prices_.lambda[p]);
  }
}

void LlaEngine::ClearConvergenceWindow() {
  recent_utilities_.clear();
  converged_ = false;
}

void LlaEngine::WarmStart(const PriceVector& prices) {
  if (prices.mu.size() != workload_->resource_count() ||
      prices.lambda.size() != workload_->path_count()) {
    // A misshapen warm start would silently assign every multiplier to the
    // wrong resource/path (the vectors are plain index spaces).  That is
    // always a caller bug — after a structural transform the caller must
    // remap (WarmStartStructural does it internally) — so fail loudly in
    // every build mode rather than corrupting the dual state.
    std::fprintf(stderr,
                 "LlaEngine::WarmStart: price vector shape (%zu mu, %zu "
                 "lambda) does not match the workload (%zu resources, %zu "
                 "paths); use WarmStartStructural after a structural "
                 "transform\n",
                 prices.mu.size(), prices.lambda.size(),
                 workload_->resource_count(), workload_->path_count());
    std::abort();
  }
  prices_ = prices;
  for (double& mu : prices_.mu) mu = std::max(0.0, mu);
  for (double& lambda : prices_.lambda) lambda = std::max(0.0, lambda);
  schedule_.Reset(*workload_);
  ResetDynamics();
  ClearConvergenceWindow();
  total_subtask_solves_ = 0;
  SolveAtPrices();
}

Status LlaEngine::WarmStartStructural(const Workload& old_workload,
                                      const PriceVector& old_prices,
                                      const StructuralChange& change) {
  const Workload& now = *workload_;
  if (old_prices.mu.size() != old_workload.resource_count() ||
      old_prices.lambda.size() != old_workload.path_count()) {
    return Status::Error(
        "WarmStartStructural: price vector shape does not match the old "
        "workload");
  }
  if (old_workload.resource_count() != now.resource_count()) {
    return Status::Error(
        "WarmStartStructural: resource sets differ (structural changes keep "
        "the resource set fixed)");
  }

  PriceVector mapped;
  // Resources the changed task touches, the seed of the dirty closure.
  std::vector<std::uint8_t> dirty_resource(now.resource_count(), 0);
  if (change.kind == StructuralChange::Kind::kTaskLeave) {
    if (!change.task.valid() ||
        change.task.value() >= old_workload.task_count()) {
      return Status::Error(
          "WarmStartStructural: departed task id is not in the old workload");
    }
    if (old_workload.task_count() != now.task_count() + 1) {
      return Status::Error(
          "WarmStartStructural: workloads do not differ by exactly the "
          "departed task");
    }
    mapped = MapPricesWithoutTask(old_workload, old_prices, change.task);
    if (mapped.lambda.size() != now.path_count()) {
      return Status::Error(
          "WarmStartStructural: surviving path count does not match this "
          "workload");
    }
    for (SubtaskId sid : old_workload.task(change.task).subtasks) {
      dirty_resource[old_workload.subtask(sid).resource.value()] = 1;
    }
  } else {
    if (!change.task.valid() || change.task.value() >= now.task_count()) {
      return Status::Error(
          "WarmStartStructural: joined task id is not in this workload");
    }
    if (now.task_count() != old_workload.task_count() + 1) {
      return Status::Error(
          "WarmStartStructural: workloads do not differ by exactly the "
          "joined task");
    }
    if (old_prices.lambda.size() + now.task(change.task).paths.size() !=
        now.path_count()) {
      return Status::Error(
          "WarmStartStructural: old path count does not match this workload "
          "minus the joined task");
    }
    mapped = MapPricesWithTask(now, old_prices, change.task);
    for (SubtaskId sid : now.task(change.task).subtasks) {
      dirty_resource[now.subtask(sid).resource.value()] = 1;
    }
  }

  // Transitive closure of the seed over the task<->resource sharing graph
  // of the NEW workload: a task touching a dirty resource re-solves, which
  // moves the share sums of every OTHER resource it uses, so those become
  // dirty too.  The surviving operating point shifts exactly on this
  // closure; everything outside it is provably unaffected by the event.
  std::vector<std::uint8_t> dirty_task(now.task_count(), 0);
  bool grew = true;
  while (grew) {
    grew = false;
    for (const TaskInfo& task : now.tasks()) {
      if (dirty_task[task.id.value()]) continue;
      bool touches = false;
      for (SubtaskId sid : task.subtasks) {
        if (dirty_resource[now.subtask(sid).resource.value()]) {
          touches = true;
          break;
        }
      }
      if (!touches) continue;
      dirty_task[task.id.value()] = 1;
      for (SubtaskId sid : task.subtasks) {
        std::uint8_t& d = dirty_resource[now.subtask(sid).resource.value()];
        if (d == 0) {
          d = 1;
          grew = true;
        }
      }
    }
  }

  // Selective re-prime.  After a LEAVE the mapped mu on closure resources
  // is upper-biased (the departed demand no longer pushes against B_r), and
  // Eq. 8 decays an inflated mu only at gamma * slack <= gamma * B_r per
  // step while the complementary-slackness convergence test blocks until it
  // reaches ~0 — the measured 8x-worse-than-cold regression.  Re-seeding
  // the closure's mu at 0.0 lets congestion-driven rises (fast:
  // adaptive step doubling) rediscover the right level, exactly as a cold
  // start would, while non-closure prices stay bit-identical so their tasks
  // never re-solve.  A JOIN is the fast direction: added demand RAISES mu,
  // so the mapped values are kept as the lower bound they are.  lambda is
  // kept in both directions (near-zero at any interior optimum; a stale
  // positive lambda rides the same fast-rise dynamics).
  std::size_t reprime_resources = 0;
  std::size_t reprime_tasks = 0;
  for (std::size_t t = 0; t < dirty_task.size(); ++t) {
    reprime_tasks += dirty_task[t];
  }
  for (std::size_t r = 0; r < dirty_resource.size(); ++r) {
    if (dirty_resource[r] == 0) continue;
    ++reprime_resources;
    if (change.kind == StructuralChange::Kind::kTaskLeave) {
      mapped.mu[r] = 0.0;
    }
  }
  last_reprime_tasks_ = reprime_tasks;
  last_reprime_resources_ = reprime_resources;
  if (reprime_tasks_counter_ != nullptr) {
    reprime_tasks_counter_->Increment(reprime_tasks);
    reprime_resources_counter_->Increment(reprime_resources);
  }

  WarmStart(mapped);
  return Status{};
}

StateSnapshot LlaEngine::Checkpoint() const {
  StateSnapshot snap;
  snap.resource_count = workload_->resource_count();
  snap.path_count = workload_->path_count();
  snap.subtask_count = workload_->subtask_count();
  snap.task_count = workload_->task_count();
  snap.iteration = iteration_;
  snap.converged = converged_;
  snap.total_subtask_solves = total_subtask_solves_;
  snap.mu = prices_.mu;
  snap.lambda = prices_.lambda;
  snap.resource_step_multiplier = schedule_.resource_multiplier();
  snap.path_step_multiplier = schedule_.path_multiplier();
  snap.step_iteration = schedule_.iteration();
  snap.recent_utilities.assign(recent_utilities_.begin(),
                               recent_utilities_.end());
  if (config_.dynamics.kind != DynamicsKind::kPlain) {
    // The momentum state.  Plain engines leave these sections empty, and
    // only Nesterov has a base iterate to save.
    const auto gather = [](const std::vector<ComponentDynamicsState>& states,
                           double ComponentDynamicsState::*field) {
      std::vector<double> values;
      values.reserve(states.size());
      for (const ComponentDynamicsState& state : states) {
        values.push_back(state.*field);
      }
      return values;
    };
    snap.mu_velocity = gather(mu_dynamics_, &ComponentDynamicsState::velocity);
    snap.lambda_velocity =
        gather(lambda_dynamics_, &ComponentDynamicsState::velocity);
    if (config_.dynamics.kind == DynamicsKind::kNesterov) {
      snap.mu_base = gather(mu_dynamics_, &ComponentDynamicsState::base);
      snap.lambda_base =
          gather(lambda_dynamics_, &ComponentDynamicsState::base);
    }
    snap.mu_phase = gather(mu_dynamics_, &ComponentDynamicsState::phase);
    snap.lambda_phase =
        gather(lambda_dynamics_, &ComponentDynamicsState::phase);
    snap.momentum_restarts = momentum_restarts_;
  }
  return snap;
}

Status LlaEngine::Restore(StateSnapshot snapshot) {
  if (snapshot.resource_count != workload_->resource_count() ||
      snapshot.path_count != workload_->path_count() ||
      snapshot.subtask_count != workload_->subtask_count() ||
      snapshot.task_count != workload_->task_count()) {
    return Status::Error(
        "Restore: snapshot shape does not match this workload");
  }
  // A negative step iteration would drive the diminishing schedule's
  // 1 + t / tau through zero.
  if (snapshot.iteration < 0 || snapshot.iteration > kMaxRestoredIteration ||
      snapshot.step_iteration < 0) {
    return Status::Error(
        "Restore: snapshot iteration " + std::to_string(snapshot.iteration) +
        " or step iteration " + std::to_string(snapshot.step_iteration) +
        " is out of range");
  }
  {
    // mu and lambda must match the shape.  The other sections are optional
    // (empty in snapshots of schedules and dynamics that keep none, and
    // when the b1 image omits them), but a present one must match it too.
    // Every dual value must be finite and at least its section's floor: an
    // infinite mu used to restore and run the whole budget to an infeasible
    // point, and a phase of -3 divides the ramp's t / (t + 3) by zero.
    const std::size_t R = workload_->resource_count();
    const std::size_t P = workload_->path_count();
    constexpr double kAnyFinite = -std::numeric_limits<double>::infinity();
    const struct {
      const char* name;
      const std::vector<double>& values;
      std::size_t size;
      bool optional;
      double floor;
    } sections[] = {
        {"mu", snapshot.mu, R, false, 0.0},
        {"lambda", snapshot.lambda, P, false, 0.0},
        {"resource_step_multiplier", snapshot.resource_step_multiplier, R,
         true, 1.0},
        {"path_step_multiplier", snapshot.path_step_multiplier, P, true, 1.0},
        {"mu_velocity", snapshot.mu_velocity, R, true, kAnyFinite},
        {"lambda_velocity", snapshot.lambda_velocity, P, true, kAnyFinite},
        {"mu_base", snapshot.mu_base, R, true, kAnyFinite},
        {"lambda_base", snapshot.lambda_base, P, true, kAnyFinite},
        {"mu_phase", snapshot.mu_phase, R, true, 0.0},
        {"lambda_phase", snapshot.lambda_phase, P, true, 0.0},
    };
    for (const auto& section : sections) {
      if (section.values.size() != section.size &&
          !(section.optional && section.values.empty())) {
        return Status::Error(std::string("Restore: snapshot ") +
                             section.name + " is misshapen");
      }
      const auto bad = std::find_if(
          section.values.begin(), section.values.end(), [&](double value) {
            return !(std::isfinite(value) && value >= section.floor);
          });
      if (bad != section.values.end()) {
        char message[128];
        std::snprintf(message, sizeof(message),
                      "Restore: snapshot %s[%td] = %g is out of range",
                      section.name, bad - section.values.begin(), *bad);
        return Status::Error(message);
      }
    }
  }
  prices_.mu = std::move(snapshot.mu);
  prices_.lambda = std::move(snapshot.lambda);
  // Reset sizes the schedule for this workload; Adopt then takes what this
  // schedule's kind saved and ignores another kind's state — e.g. a
  // fixed-policy checkpoint restored into an adaptive engine simply keeps
  // the reset multipliers.
  schedule_.Reset(*workload_);
  schedule_.Adopt(std::move(snapshot.resource_step_multiplier),
                  std::move(snapshot.path_step_multiplier),
                  snapshot.step_iteration);
  if (config_.dynamics.kind != DynamicsKind::kPlain) {
    // Start from fresh momentum re-based at the restored prices, then adopt
    // each saved pair of vectors that fits this workload.  A plain-engine
    // snapshot carries none, so a momentum engine restores with fresh
    // (zero) velocity — the correct reading of a checkpoint that never had
    // momentum state.  Nesterov adopts its velocity only together with the
    // base iterate it was realized against; heavy-ball has no base.
    ResetDynamics();
    const auto fits = [&](const std::vector<double>& mu,
                          const std::vector<double>& lambda) {
      return mu.size() == mu_dynamics_.size() &&
             lambda.size() == lambda_dynamics_.size();
    };
    const auto adopt = [&](const std::vector<double>& mu,
                           const std::vector<double>& lambda,
                           double ComponentDynamicsState::*field) {
      for (std::size_t r = 0; r < mu.size(); ++r) {
        mu_dynamics_[r].*field = mu[r];
      }
      for (std::size_t p = 0; p < lambda.size(); ++p) {
        lambda_dynamics_[p].*field = lambda[p];
      }
    };
    const bool nesterov = config_.dynamics.kind == DynamicsKind::kNesterov;
    if (fits(snapshot.mu_velocity, snapshot.lambda_velocity) &&
        (!nesterov || fits(snapshot.mu_base, snapshot.lambda_base))) {
      adopt(snapshot.mu_velocity, snapshot.lambda_velocity,
            &ComponentDynamicsState::velocity);
      if (nesterov) {
        adopt(snapshot.mu_base, snapshot.lambda_base,
              &ComponentDynamicsState::base);
      }
    }
    if (fits(snapshot.mu_phase, snapshot.lambda_phase)) {
      adopt(snapshot.mu_phase, snapshot.lambda_phase,
            &ComponentDynamicsState::phase);
    }
    momentum_restarts_ = snapshot.momentum_restarts;
  }
  iteration_ = snapshot.iteration;
  converged_ = snapshot.converged;
  total_subtask_solves_ = snapshot.total_subtask_solves;
  recent_utilities_.assign(snapshot.recent_utilities.begin(),
                           snapshot.recent_utilities.end());
  history_.clear();
  // Re-derive latencies_ from the restored prices: a full solve at the
  // same price bits reproduces bitwise the latencies the checkpointed
  // engine held, so the next Step() continues its trajectory.
  SolveAtPrices();
  return Status{};
}

IterationStats LlaEngine::Step() {
  // 1. Latency allocation at current prices, then the fused evaluation
  //    sweep (share sums, path latencies, utility aggregates); each sweep
  //    fans out across the pool on its own.  Everything below reads the
  //    workspace arrays.
  {
    obs::ScopedTimer timing(solve_timer_);
    solver_.SolveAll(prices_, &latencies_, pool_.get());
    FillStepWorkspace(*workload_, *model_, latencies_, config_.solver.variant,
                      config_.convergence.feasibility_tol, pool_.get(),
                      &workspace_);
  }

  // 2. Price computation: congestion feedback advances the step schedule,
  //    then gradient projection moves the prices.
  {
    obs::ScopedTimer timing(price_timer_);
    schedule_.Advance(*workload_, workspace_.resource_congested);
    const std::uint64_t restarts_before = momentum_restarts_;
    updater_.Update(workspace_.resource_share_sums, workspace_.path_latencies,
                    schedule_, config_.dynamics, &mu_dynamics_,
                    &lambda_dynamics_, &momentum_restarts_, &prices_);
    last_step_restarts_ = momentum_restarts_ - restarts_before;
    if (momentum_restarts_counter_ != nullptr) {
      momentum_restarts_counter_->Increment(last_step_restarts_);
    }
  }

  ++iteration_;
  total_subtask_solves_ += workload_->subtask_count();
  if (steps_counter_ != nullptr) steps_counter_->Increment();
  if (active_tasks_solved_ != nullptr) {
    active_tasks_solved_->Increment(workload_->task_count());
    active_subtasks_solved_->Increment(workload_->subtask_count());
    active_resources_refreshed_->Increment(workload_->resource_count());
    active_paths_refreshed_->Increment(workload_->path_count());
  }

  IterationStats stats;
  stats.iteration = iteration_;
  stats.total_utility = workspace_.total_utility;
  stats.max_resource_excess = workspace_.feasibility.max_resource_excess;
  stats.max_path_ratio = workspace_.feasibility.max_path_ratio;
  stats.feasible = workspace_.feasibility.feasible;
  stats.tasks_solved = static_cast<int>(workload_->task_count());
  stats.subtasks_solved = static_cast<int>(workload_->subtask_count());
  if (config_.record_history) history_.push_back(stats);
  if (config_.trace_sink != nullptr) EmitTrace(stats);

  UpdateConvergence(stats.total_utility, stats.feasible);
  return stats;
}

void FillIterationTrace(const StepWorkspace& evaluation,
                        const PriceVector& prices, const StepSchedule& schedule,
                        obs::IterationTrace* trace) {
  trace->total_utility = evaluation.total_utility;
  trace->feasible = evaluation.feasibility.feasible;
  trace->max_resource_excess = evaluation.feasibility.max_resource_excess;
  trace->max_path_ratio = evaluation.feasibility.max_path_ratio;
  trace->resource_share_sums = evaluation.resource_share_sums;
  trace->resource_mu = prices.mu;
  trace->resource_step.resize(prices.mu.size());
  for (std::size_t r = 0; r < prices.mu.size(); ++r) {
    trace->resource_step[r] = schedule.resource_step(r);
  }
  trace->path_latencies = evaluation.path_latencies;
  trace->path_lambda = prices.lambda;
  trace->path_step.resize(prices.lambda.size());
  for (std::size_t p = 0; p < prices.lambda.size(); ++p) {
    trace->path_step[p] = schedule.path_step(p);
  }
}

void LlaEngine::EmitTrace(const IterationStats& stats) {
  // Everything comes from the workspace, the price vector and the step
  // schedule this step advanced — no extra evaluation sweeps.
  trace_.iteration = stats.iteration;
  trace_.at_ms = -1.0;
  FillIterationTrace(workspace_, prices_, schedule_, &trace_);
  if (config_.active_set.enabled) {
    trace_.tasks_solved = stats.tasks_solved;
    trace_.subtasks_solved = stats.subtasks_solved;
    const auto nonzero = [](const std::vector<double>& prices) {
      return static_cast<int>(
          std::count_if(prices.begin(), prices.end(),
                        [](double price) { return price != 0.0; }));
    };
    trace_.active_mu = nonzero(prices_.mu);
    trace_.active_lambda = nonzero(prices_.lambda);
  } else {
    trace_.tasks_solved = -1;
    trace_.subtasks_solved = -1;
    trace_.active_mu = -1;
    trace_.active_lambda = -1;
  }
  if (config_.dynamics.kind != DynamicsKind::kPlain) {
    // Per-step restart count and the effective momentum actually applied:
    // a restarted component contributed beta * 0, so the mean coefficient
    // across all R + P components is beta * (1 - restarts / (R + P)).  A
    // diverging run shows up in JSONL as effective_beta pinned well below
    // the configured beta (restarts firing every step).
    trace_.momentum_restarts = static_cast<int>(last_step_restarts_);
    const double components =
        static_cast<double>(prices_.mu.size() + prices_.lambda.size());
    trace_.effective_beta =
        config_.dynamics.momentum *
        (1.0 - static_cast<double>(last_step_restarts_) / components);
  } else {
    trace_.momentum_restarts = -1;
    trace_.effective_beta = -1.0;
  }
  config_.trace_sink->OnIteration(trace_);
}

bool UtilityWindowSettled(std::deque<double>* recent, double utility,
                          double rel_tol) {
  recent->push_back(utility);
  while (static_cast<int>(recent->size()) > kConvergenceWindow) {
    recent->pop_front();
  }
  if (static_cast<int>(recent->size()) < kConvergenceWindow) return false;
  const auto [min_it, max_it] =
      std::minmax_element(recent->begin(), recent->end());
  const double spread = *max_it - *min_it;
  const double scale = std::max(1.0, std::fabs(*max_it));
  return spread <= rel_tol * scale;
}

void LlaEngine::UpdateConvergence(double utility, bool feasible) {
  bool settled = UtilityWindowSettled(&recent_utilities_, utility,
                                      config_.convergence.rel_tol);
  if (settled) {
    // At a dual fixed point every constraint is tight or its price ~0.
    // The workspace holds this step's share sums / path latencies.
    double residual = 0.0;
    for (const ResourceInfo& resource : workload_->resources()) {
      const double slack =
          resource.capacity -
          workspace_.resource_share_sums[resource.id.value()];
      residual = std::max(residual,
                          prices_.mu[resource.id.value()] *
                              std::max(0.0, slack) / resource.capacity);
    }
    for (const PathInfo& path : workload_->paths()) {
      const double slack = 1.0 - workspace_.path_latencies[path.id.value()] /
                                     path.critical_time_ms;
      residual = std::max(residual, prices_.lambda[path.id.value()] *
                                        std::max(0.0, slack));
    }
    settled = residual <= kComplementarityTol && feasible;
  }
  converged_ = settled;
}

RunResult LlaEngine::Run(int max_iterations) {
  assert(max_iterations >= 1);
  RunResult result;
  for (int i = 0; i < max_iterations; ++i) {
    const IterationStats stats = Step();
    result.final_utility = stats.total_utility;
    result.subtask_solves += static_cast<std::uint64_t>(stats.subtasks_solved);
    if (converged_) break;
  }
  result.converged = converged_;
  result.iterations = iteration_;
  result.final_feasibility = Feasibility();
  return result;
}

FeasibilityReport LlaEngine::Feasibility() const {
  return CheckFeasibility(*workload_, *model_, latencies_,
                          config_.convergence.feasibility_tol);
}

double LlaEngine::TotalUtilityNow() const {
  return TotalUtility(*workload_, latencies_, config_.solver.variant);
}

}  // namespace lla
