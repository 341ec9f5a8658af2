#include "runtime/task_controller.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

namespace lla::runtime {

TaskController::TaskController(const Workload& workload,
                               const LatencyModel& model, TaskId task,
                               ControllerShared* shared)
    : workload_(&workload), model_(&model), task_(task), shared_(shared) {
  assert(shared_ != nullptr);
  const TaskInfo& info = workload.task(task);
  subtask_begin_ = info.subtasks.front().value();
  subtask_count_ = info.subtasks.size();
  path_begin_ = info.paths.empty() ? 0 : info.paths.front().value();
  path_count_ = info.paths.size();
  assert(info.subtasks.back().value() + 1 == subtask_begin_ + subtask_count_);
  assert(info.paths.empty() ||
         info.paths.back().value() + 1 == path_begin_ + path_count_);

  std::set<ResourceId> used;
  for (SubtaskId sid : info.subtasks) {
    used.insert(workload.subtask(sid).resource);
  }
  used_resources_.assign(used.begin(), used.end());
  // Every path subtask belongs to this task, so its resource is used here.
  path_slot_begin_.assign(1, 0);
  for (PathId path : info.paths) {
    for (SubtaskId sid : workload.path(path).subtasks) {
      const int slot = UsedIndex(workload.subtask(sid).resource);
      path_slots_.push_back(static_cast<std::uint32_t>(slot));
    }
    path_slot_begin_.push_back(static_cast<std::uint32_t>(path_slots_.size()));
  }
  mu_cache_.assign(used_resources_.size(), 0.0);
  used_congested_.assign(used_resources_.size(), 0);
  used_epoch_.assign(used_resources_.size(), 0);
  FillEvaluation();
}

void TaskController::FillEvaluation() {
  const std::size_t t = task_.value();
  StepWorkspace& evaluation = shared_->evaluation;
  FillTaskAggregatesRange(*workload_, shared_->latencies,
                          shared_->solver.config().variant, t, t + 1,
                          &evaluation.task_utilities);
  FillPathLatenciesRange(*workload_, shared_->latencies, path_begin_,
                         path_begin_ + path_count_,
                         &evaluation.path_latencies);
}

void TaskController::Bind(
    net::InProcessBus* bus, net::EndpointId self,
    const std::vector<net::EndpointId>* shard_endpoints,
    const std::vector<std::uint32_t>* resource_shard) {
  bus_ = bus;
  self_ = self;
  shard_endpoints_ = shard_endpoints;
  resource_shard_ = resource_shard;

  // Shards own contiguous resource ranges, so walking the sorted
  // used_resources_ meets each used shard once, in ascending order, as one
  // run of slots.
  used_shards_.clear();
  shard_slot_begin_.clear();
  for (std::size_t k = 0; k < used_resources_.size(); ++k) {
    const std::uint32_t shard = (*resource_shard)[used_resources_[k].value()];
    if (used_shards_.empty() || used_shards_.back() != shard) {
      used_shards_.push_back(shard);
      shard_slot_begin_.push_back(static_cast<std::uint32_t>(k));
    }
  }
  shard_slot_begin_.push_back(
      static_cast<std::uint32_t>(used_resources_.size()));
  shard_incarnation_.assign(used_shards_.size(), 0);
  shard_index_ = IdIndex(used_shards_);

  // Group this task's subtasks by shard once, in local subtask order within
  // a shard, so each send is a gather over a precomputed index range.
  const TaskInfo& info = workload_->task(task_);
  shard_subtasks_.clear();
  shard_subtask_begin_.assign(1, 0);
  for (const std::uint32_t shard : used_shards_) {
    for (std::size_t i = 0; i < info.subtasks.size(); ++i) {
      const ResourceId resource = workload_->subtask(info.subtasks[i]).resource;
      if ((*resource_shard)[resource.value()] == shard) {
        shard_subtasks_.push_back(static_cast<std::uint32_t>(i));
      }
    }
    shard_subtask_begin_.push_back(
        static_cast<std::uint32_t>(shard_subtasks_.size()));
  }
  // The scratch arrays fit the widest message each way, once.
  std::uint32_t widest_price = 0;
  std::uint32_t widest_latency = 0;
  for (std::size_t s = 0; s < used_shards_.size(); ++s) {
    widest_price = std::max(widest_price,
                            shard_slot_begin_[s + 1] - shard_slot_begin_[s]);
    widest_latency = std::max(
        widest_latency, shard_subtask_begin_[s + 1] - shard_subtask_begin_[s]);
  }
  mu_scratch_.assign(widest_price, 0.0);
  gather_latencies_.assign(widest_latency, 0.0);
}

int TaskController::UsedIndex(ResourceId resource) const {
  const auto it = std::lower_bound(used_resources_.begin(),
                                   used_resources_.end(), resource);
  if (it == used_resources_.end() || *it != resource) return -1;
  return static_cast<int>(it - used_resources_.begin());
}

double TaskController::mu_seen(ResourceId r) const {
  const int k = UsedIndex(r);
  return k < 0 ? 0.0 : mu_cache_[static_cast<std::size_t>(k)];
}

std::uint32_t TaskController::mu_epoch_seen(ResourceId r) const {
  const int k = UsedIndex(r);
  return k < 0 ? 0u : used_epoch_[static_cast<std::size_t>(k)];
}

bool TaskController::AcceptIncarnation(std::size_t s,
                                       std::uint32_t incarnation) {
  std::uint32_t& seen = shard_incarnation_[s];
  if (incarnation < seen) {
    if (hooks_.stale_rejected != nullptr) hooks_.stale_rejected->Increment();
    return false;
  }
  seen = incarnation;
  return true;
}

void TaskController::OnMessage(const net::Message& message) {
  if (crashed_) return;
  if (const auto* update =
          std::get_if<net::ShardPriceUpdate>(&message.payload)) {
    const int s = shard_index_.Find(update->shard);
    if (s < 0) return;  // misrouted; this task uses no resource there
    if (!AcceptIncarnation(static_cast<std::size_t>(s), message.incarnation)) {
      return;
    }
    // Positional apply (DESIGN.md §7.11): entry j is the j-th element of
    // this task's used-resource list on the shard.  A count mismatch means
    // the sender's binding disagrees with ours — ignore the whole message,
    // as for a payload that does not decode.
    const std::uint32_t first = shard_slot_begin_[s];
    net::ShardPriceBitsets bits;
    if (update->count != shard_slot_begin_[s + 1] - first ||
        !net::DecodeShardPriceUpdate(*update, mu_scratch_.data(), &bits)) {
      if (hooks_.malformed_rejected != nullptr) {
        hooks_.malformed_rejected->Increment();
      }
      return;
    }
    for (std::size_t j = 0; j < update->count; ++j) {
      // A stale bit marks a resource that is crashed or mid-repair: keep
      // the cached price, as if its last broadcast were still current.
      if (bits.stale != nullptr && net::TestWireBit(bits.stale, j)) continue;
      const std::size_t slot = first + j;
      mu_cache_[slot] = mu_scratch_[j];
      used_congested_[slot] = net::TestWireBit(bits.congested, j) ? 1 : 0;
      used_epoch_[slot] = update->epoch;
    }
    return;
  }
  if (const auto* request =
          std::get_if<net::RepairRequest>(&message.payload)) {
    // A restarted resource asks for our absolute view.  The request carries
    // its shard endpoint's post-restart incarnation: adopting it as the
    // shard's watermark makes every price the shard sent before the restart
    // (still in flight, or arriving out of order) rejectable as stale from
    // this moment on.
    const int k = UsedIndex(request->resource);
    if (k < 0) return;  // misrouted; this task does not use the resource
    const int s =
        shard_index_.Find((*resource_shard_)[request->resource.value()]);
    if (!AcceptIncarnation(static_cast<std::size_t>(s), message.incarnation)) {
      return;
    }
    const TaskInfo& info = workload_->task(task_);
    repair_wire_.clear();
    for (const SubtaskId sid : info.subtasks) {
      if (workload_->subtask(sid).resource != request->resource) continue;
      net::AppendRepairEntry(sid, shared_->latencies[sid.value()],
                             &repair_wire_);
    }
    net::RepairResponse repair;
    repair.resource = request->resource;
    repair.task = task_;
    const auto slot = static_cast<std::size_t>(k);
    repair.mu = mu_cache_[slot];
    repair.epoch = used_epoch_[slot];
    repair.congested = used_congested_[slot] != 0;
    repair.entries = net::WireSlice(repair_wire_.data(), repair_wire_.size());
    net::Message reply;
    reply.sender = self_;
    reply.receiver = message.sender;
    reply.payload = repair;
    bus_->Send(reply);
    return;
  }
}

void TaskController::Crash() { crashed_ = true; }

void TaskController::ColdRestart() {
  crashed_ = false;
  std::fill(mu_cache_.begin(), mu_cache_.end(), 0.0);
  const std::span<double> latencies = MutableLatencies();
  std::fill(latencies.begin(), latencies.end(), 0.0);
  for (std::size_t p = path_begin_; p < path_begin_ + path_count_; ++p) {
    shared_->prices.lambda[p] = 0.0;
    shared_->schedule.ResetPath(p);
  }
  std::fill(used_congested_.begin(), used_congested_.end(), 0);
  std::fill(used_epoch_.begin(), used_epoch_.end(), 0);
  std::fill(shard_incarnation_.begin(), shard_incarnation_.end(), 0);
  FillEvaluation();
}

void TaskController::RestoreFromSnapshot(
    const TaskControllerSnapshot& snapshot) {
  const std::size_t resources = used_resources_.size();
  if (snapshot.task != task_ ||
      snapshot.local_latencies.size() != subtask_count_ ||
      snapshot.local_lambdas.size() != path_count_ ||
      snapshot.path_gamma_multiplier.size() != path_count_ ||
      snapshot.mu.size() != resources ||
      snapshot.resource_congested.size() != resources ||
      snapshot.resource_epoch.size() != resources) {
    // A snapshot of another task, or of a structurally different workload,
    // would restore a mix of snapshot and live state that no run ever
    // produced.  That is always a caller bug, so fail loudly in every build
    // mode (the shard agents' RestoreResource policy).
    std::fprintf(stderr,
                 "TaskController::RestoreFromSnapshot: snapshot of task %u "
                 "(%zu subtasks, %zu paths, %zu used resources) does not "
                 "match controller of task %u (%zu subtasks, %zu paths, %zu "
                 "used resources)\n",
                 snapshot.task.value(), snapshot.local_latencies.size(),
                 snapshot.local_lambdas.size(), snapshot.mu.size(),
                 task_.value(), subtask_count_, path_count_, resources);
    std::abort();
  }
  crashed_ = false;
  std::copy(snapshot.local_latencies.begin(), snapshot.local_latencies.end(),
            MutableLatencies().begin());
  for (std::size_t p = 0; p < path_count_; ++p) {
    shared_->prices.lambda[path_begin_ + p] = snapshot.local_lambdas[p];
    shared_->schedule.AdoptPath(path_begin_ + p,
                                snapshot.path_gamma_multiplier[p]);
  }
  mu_cache_ = snapshot.mu;
  used_congested_ = snapshot.resource_congested;
  used_epoch_ = snapshot.resource_epoch;
  std::fill(shard_incarnation_.begin(), shard_incarnation_.end(), 0);
  FillEvaluation();
}

TaskControllerSnapshot TaskController::Snapshot() const {
  TaskControllerSnapshot snapshot;
  snapshot.task = task_;
  const std::span<const double> local = latencies();
  snapshot.local_latencies.assign(local.begin(), local.end());
  const auto lambda = shared_->prices.lambda.begin() + path_begin_;
  snapshot.local_lambdas.assign(lambda, lambda + path_count_);
  const auto multiplier =
      shared_->schedule.path_multiplier().begin() + path_begin_;
  snapshot.path_gamma_multiplier.assign(multiplier, multiplier + path_count_);
  snapshot.mu = mu_cache_;
  snapshot.resource_congested = used_congested_;
  snapshot.resource_epoch = used_epoch_;
  return snapshot;
}

void TaskController::AllocateAndSend(PriceVector* prices,
                                     net::Outbox* outbox) {
  assert(bus_ != nullptr);
  if (crashed_) return;
  const TaskInfo& info = workload_->task(task_);

  // Publish this task's slots of the lane's price buffer: its cached mu
  // and its own lambda.  Other controllers' stale entries are never read:
  // the solver only gathers the prices of this task's own resources and
  // paths.
  std::vector<double>& lambda = shared_->prices.lambda;
  for (std::size_t k = 0; k < used_resources_.size(); ++k) {
    prices->mu[used_resources_[k].value()] = mu_cache_[k];
  }
  std::copy_n(lambda.begin() + path_begin_, path_count_,
              prices->lambda.begin() + path_begin_);

  // 3. Latency allocation at the stored prices (Eq. 7), reading the model
  // cache the caller's serial PrepareSolve refreshed, into this task's span
  // of the shared latencies; then this task's evaluation slots.  Distinct
  // tasks write disjoint slots of both shared buffers, so lanes share them.
  shared_->solver.SolveTaskRange(task_.value(), task_.value() + 1, *prices,
                                 &shared_->latencies);
  FillEvaluation();

  // 2'. Path price update (Eq. 9) with the adaptive per-path step: a path's
  // step doubles while any resource it traverses reports congestion.
  const std::vector<double>& path_latencies =
      shared_->evaluation.path_latencies;
  StepSchedule& schedule = shared_->schedule;
  for (std::size_t p = 0; p < path_count_; ++p) {
    bool any_congested = false;
    for (std::uint32_t k = path_slot_begin_[p]; k < path_slot_begin_[p + 1];
         ++k) {
      if (used_congested_[path_slots_[k]] != 0) any_congested = true;
    }
    const std::size_t path = path_begin_ + p;
    schedule.AdvancePath(path, any_congested);
    const double critical_time_ms =
        workload_->path(info.paths[p]).critical_time_ms;
    const double slack = 1.0 - path_latencies[path] / critical_time_ms;
    // Path lambdas stay plain in the distributed deployment (DESIGN.md
    // §7.12).
    lambda[path] = StepComponentDynamics(DynamicsConfig{}, nullptr,
                                         lambda[path], schedule.path_step(path),
                                         slack, nullptr);
  }

  // 4. Send the new latencies: one batched positional message per shard
  // touched, its payload encoded straight into the lane's outbox and the
  // message built beside it.
  double* gather = gather_latencies_.data();
  for (std::size_t s = 0; s < used_shards_.size(); ++s) {
    const std::uint32_t begin = shard_subtask_begin_[s];
    const std::uint32_t end = shard_subtask_begin_[s + 1];
    for (std::uint32_t j = begin; j < end; ++j) {
      gather[j - begin] =
          shared_->latencies[subtask_begin_ + shard_subtasks_[j]];
    }
    const net::PayloadSpan span =
        net::AppendShardLatencyPayload(gather, end - begin, outbox->bytes());
    net::ShardLatencyUpdate& update = outbox->Add<net::ShardLatencyUpdate>(
        self_, (*shard_endpoints_)[used_shards_[s]], span);
    update.task = task_;
    update.shard = used_shards_[s];
    update.count = end - begin;
  }
}

}  // namespace lla::runtime
