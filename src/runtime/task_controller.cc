#include "runtime/task_controller.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

namespace lla::runtime {

TaskController::TaskController(const Workload& workload, std::uint32_t host,
                               TaskId first_task, std::size_t count,
                               ControllerShared* shared)
    : workload_(&workload),
      host_(host),
      first_(first_task.value()),
      task_count_(count),
      shared_(shared) {
  assert(shared_ != nullptr);
  assert(count >= 1 && first_ + count <= workload.task_count());
  // Workload::Create numbers subtasks and paths task by task, so the hosted
  // tasks' ranges are consecutive; the path range starts at the first path
  // of the first hosted task that has any.
  std::size_t path_base = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::vector<PathId>& paths = workload.task(TaskId(first_ + k)).paths;
    if (!paths.empty()) {
      path_base = paths.front().value();
      break;
    }
  }
  subtask_begin_.assign(1, workload.task(first_task).subtasks.front().value());
  path_begin_.assign(1, path_base);
  used_begin_.assign(1, 0);
  path_slot_begin_.assign(1, 0);
  for (std::size_t k = 0; k < count; ++k) {
    const TaskInfo& info = workload.task(TaskId(first_ + k));
    assert(info.subtasks.front().value() == subtask_begin_.back());
    assert(info.paths.empty() ||
           info.paths.front().value() == path_begin_.back());
    subtask_begin_.push_back(subtask_begin_.back() + info.subtasks.size());
    path_begin_.push_back(path_begin_.back() + info.paths.size());
    assert(info.subtasks.back().value() + 1 == subtask_begin_.back());

    std::set<ResourceId> used;
    for (SubtaskId sid : info.subtasks) {
      used.insert(workload.subtask(sid).resource);
    }
    used_resources_.insert(used_resources_.end(), used.begin(), used.end());
    used_begin_.push_back(static_cast<std::uint32_t>(used_resources_.size()));
    // Every path subtask belongs to this task, so its resource is used here.
    for (PathId path : info.paths) {
      for (SubtaskId sid : workload.path(path).subtasks) {
        const int slot = UsedIndex(k, workload.subtask(sid).resource);
        path_slots_.push_back(static_cast<std::uint32_t>(slot));
      }
      path_slot_begin_.push_back(
          static_cast<std::uint32_t>(path_slots_.size()));
    }
  }
  mu_cache_.assign(used_resources_.size(), 0.0);
  used_congested_.assign(used_resources_.size(), 0);
  used_epoch_.assign(used_resources_.size(), 0);
  crashed_.assign(count, 0);
  for (std::size_t k = 0; k < count; ++k) FillEvaluation(k);
}

void TaskController::FillEvaluation(std::size_t k) {
  const std::size_t t = first_ + k;
  StepWorkspace& evaluation = shared_->evaluation;
  FillTaskAggregatesRange(*workload_, shared_->latencies,
                          shared_->solver.config().variant, t, t + 1,
                          &evaluation.task_utilities);
  FillPathLatenciesRange(*workload_, shared_->latencies, path_begin_[k],
                         path_begin_[k + 1], &evaluation.path_latencies);
}

void TaskController::Bind(
    net::InProcessBus* bus, net::EndpointId self,
    const std::vector<net::EndpointId>* shard_endpoints,
    const std::vector<std::uint32_t>* resource_shard) {
  bus_ = bus;
  self_ = self;
  shard_endpoints_ = shard_endpoints;
  resource_shard_ = resource_shard;

  std::set<std::uint32_t> shards;
  for (const ResourceId r : used_resources_) {
    shards.insert((*resource_shard)[r.value()]);
  }
  used_shards_.assign(shards.begin(), shards.end());
  shard_index_ = IdIndex(used_shards_);
  shard_incarnation_.assign(used_shards_.size(), 0);

  // The positional lists, once: for each used shard, each hosted task's
  // entries there in ascending task order — its used resources (sorted
  // already) for prices, its subtasks in local order for latencies.
  price_begin_.assign(1, 0);
  price_slots_.clear();
  latency_begin_.assign(1, 0);
  latency_subtasks_.clear();
  for (const std::uint32_t shard : used_shards_) {
    for (std::size_t k = 0; k < task_count_; ++k) {
      for (std::uint32_t slot = used_begin_[k]; slot < used_begin_[k + 1];
           ++slot) {
        if ((*resource_shard)[used_resources_[slot].value()] == shard) {
          price_slots_.push_back(slot);
        }
      }
      for (std::size_t sid = subtask_begin_[k]; sid < subtask_begin_[k + 1];
           ++sid) {
        const ResourceId r = workload_->subtask(SubtaskId(sid)).resource;
        if ((*resource_shard)[r.value()] == shard) {
          latency_subtasks_.push_back(static_cast<std::uint32_t>(sid));
        }
      }
    }
    price_begin_.push_back(static_cast<std::uint32_t>(price_slots_.size()));
    latency_begin_.push_back(
        static_cast<std::uint32_t>(latency_subtasks_.size()));
  }
  // The scratch arrays fit the widest message each way, once.
  std::uint32_t widest_price = 0;
  std::uint32_t widest_latency = 0;
  for (std::size_t s = 0; s < used_shards_.size(); ++s) {
    widest_price =
        std::max(widest_price, price_begin_[s + 1] - price_begin_[s]);
    widest_latency =
        std::max(widest_latency, latency_begin_[s + 1] - latency_begin_[s]);
  }
  mu_scratch_.assign(widest_price, 0.0);
  gather_latencies_.assign(widest_latency, 0.0);
}

std::size_t TaskController::HostedLocal(TaskId task, const char* what) const {
  if (!Hosts(task)) {
    std::fprintf(stderr,
                 "TaskController::%s: task %u is not hosted by controller "
                 "host %u (tasks [%zu, %zu))\n",
                 what, task.value(), host_, first_, first_ + task_count_);
    std::abort();
  }
  return Local(task);
}

int TaskController::UsedIndex(std::size_t k, ResourceId resource) const {
  const auto begin = used_resources_.begin() + used_begin_[k];
  const auto end = used_resources_.begin() + used_begin_[k + 1];
  const auto it = std::lower_bound(begin, end, resource);
  if (it == end || *it != resource) return -1;
  return static_cast<int>(it - used_resources_.begin());
}

double TaskController::mu_seen(TaskId task, ResourceId r) const {
  const int slot = UsedIndex(Local(task), r);
  return slot < 0 ? 0.0 : mu_cache_[static_cast<std::size_t>(slot)];
}

std::uint32_t TaskController::mu_epoch_seen(TaskId task, ResourceId r) const {
  const int slot = UsedIndex(Local(task), r);
  return slot < 0 ? 0u : used_epoch_[static_cast<std::size_t>(slot)];
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
  if (const auto* update =
          std::get_if<net::ShardPriceUpdate>(&message.payload)) {
    const int s = shard_index_.Find(update->shard);
    if (s < 0) return;  // misrouted; no hosted task uses a resource there
    if (!AcceptIncarnation(static_cast<std::size_t>(s), message.incarnation)) {
      return;
    }
    // Positional apply (DESIGN.md §7.11): entry j lands in the j-th slot of
    // this host's price list for the shard.  A count mismatch means the
    // sender's binding disagrees with ours — ignore the whole message, as
    // for a payload that does not decode.
    const std::uint32_t* slots = price_slots_.data() + price_begin_[s];
    net::ShardPriceBitsets bits;
    if (update->count != price_begin_[s + 1] - price_begin_[s] ||
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
      const std::uint32_t slot = slots[j];
      if (any_task_crashed_) {
        // A crashed task absorbs nothing until its restart.
        const auto owner =
            std::upper_bound(used_begin_.begin(), used_begin_.end(), slot) -
            used_begin_.begin() - 1;
        if (crashed_[static_cast<std::size_t>(owner)] != 0) continue;
      }
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
    const std::size_t r = request->resource.value();
    if (r >= resource_shard_->size()) return;  // misrouted; no such resource
    const int s = shard_index_.Find((*resource_shard_)[r]);
    if (s < 0) return;  // misrouted; no hosted task uses the resource
    bool used = false;
    for (std::size_t k = 0; k < task_count_ && !used; ++k) {
      used = UsedIndex(k, request->resource) >= 0;
    }
    if (!used) return;
    if (!AcceptIncarnation(static_cast<std::size_t>(s), message.incarnation)) {
      return;
    }
    AnswerRepair(request->resource, message.sender);
    return;
  }
}

void TaskController::AnswerRepair(ResourceId resource,
                                  net::EndpointId requester) {
  for (std::size_t k = 0; k < task_count_; ++k) {
    const int used = UsedIndex(k, resource);
    if (used < 0 || crashed_[k] != 0) continue;
    repair_wire_.clear();
    for (std::size_t sid = subtask_begin_[k]; sid < subtask_begin_[k + 1];
         ++sid) {
      if (workload_->subtask(SubtaskId(sid)).resource != resource) continue;
      net::AppendRepairEntry(SubtaskId(sid), shared_->latencies[sid],
                             &repair_wire_);
    }
    net::RepairResponse repair;
    repair.resource = resource;
    repair.task = TaskId(first_ + k);
    const auto slot = static_cast<std::size_t>(used);
    repair.mu = mu_cache_[slot];
    repair.epoch = used_epoch_[slot];
    repair.congested = used_congested_[slot] != 0;
    repair.entries = net::WireSlice(repair_wire_.data(), repair_wire_.size());
    net::Message reply;
    reply.sender = self_;
    reply.receiver = requester;
    reply.payload = repair;
    bus_->Send(reply);  // copies the entries, so repair_wire_ may refill
  }
}

void TaskController::CrashTask(TaskId task) {
  crashed_[HostedLocal(task, "CrashTask")] = 1;
  any_task_crashed_ = true;
}

void TaskController::ClearCrash(std::size_t k) {
  crashed_[k] = 0;
  any_task_crashed_ =
      std::find(crashed_.begin(), crashed_.end(), 1) != crashed_.end();
}

void TaskController::ColdRestartTask(TaskId task) {
  const std::size_t k = HostedLocal(task, "ColdRestartTask");
  ClearCrash(k);
  std::fill(mu_cache_.begin() + used_begin_[k],
            mu_cache_.begin() + used_begin_[k + 1], 0.0);
  std::fill(used_congested_.begin() + used_begin_[k],
            used_congested_.begin() + used_begin_[k + 1], 0);
  std::fill(used_epoch_.begin() + used_begin_[k],
            used_epoch_.begin() + used_begin_[k + 1], 0);
  std::fill(shared_->latencies.begin() +
                static_cast<std::ptrdiff_t>(subtask_begin_[k]),
            shared_->latencies.begin() +
                static_cast<std::ptrdiff_t>(subtask_begin_[k + 1]),
            0.0);
  for (std::size_t p = path_begin_[k]; p < path_begin_[k + 1]; ++p) {
    shared_->prices.lambda[p] = 0.0;
    shared_->schedule.ResetPath(p);
  }
  // The shard incarnation watermarks are transport state and survive: only
  // this task's state was lost.
  FillEvaluation(k);
}

void TaskController::RestoreTask(TaskId task,
                                 const TaskControllerSnapshot& snapshot) {
  const std::size_t k = HostedLocal(task, "RestoreTask");
  const std::size_t subtasks = subtask_begin_[k + 1] - subtask_begin_[k];
  const std::size_t paths = path_begin_[k + 1] - path_begin_[k];
  const std::size_t resources = used_begin_[k + 1] - used_begin_[k];
  if (snapshot.task != task || snapshot.local_latencies.size() != subtasks ||
      snapshot.local_lambdas.size() != paths ||
      snapshot.path_gamma_multiplier.size() != paths ||
      snapshot.mu.size() != resources ||
      snapshot.resource_congested.size() != resources ||
      snapshot.resource_epoch.size() != resources) {
    // A snapshot of another task, or of a structurally different workload,
    // would restore a mix of snapshot and live state that no run ever
    // produced.  That is always a caller bug, so fail loudly in every build
    // mode (the shard agents' RestoreResource policy).
    std::fprintf(stderr,
                 "TaskController::RestoreTask: snapshot of task %u (%zu "
                 "subtasks, %zu paths, %zu used resources) does not match "
                 "controller of task %u (%zu subtasks, %zu paths, %zu used "
                 "resources)\n",
                 snapshot.task.value(), snapshot.local_latencies.size(),
                 snapshot.local_lambdas.size(), snapshot.mu.size(),
                 task.value(), subtasks, paths, resources);
    std::abort();
  }
  ClearCrash(k);
  std::copy(snapshot.local_latencies.begin(), snapshot.local_latencies.end(),
            shared_->latencies.begin() +
                static_cast<std::ptrdiff_t>(subtask_begin_[k]));
  for (std::size_t p = 0; p < paths; ++p) {
    shared_->prices.lambda[path_begin_[k] + p] = snapshot.local_lambdas[p];
    shared_->schedule.AdoptPath(path_begin_[k] + p,
                                snapshot.path_gamma_multiplier[p]);
  }
  std::copy(snapshot.mu.begin(), snapshot.mu.end(),
            mu_cache_.begin() + used_begin_[k]);
  std::copy(snapshot.resource_congested.begin(),
            snapshot.resource_congested.end(),
            used_congested_.begin() + used_begin_[k]);
  std::copy(snapshot.resource_epoch.begin(), snapshot.resource_epoch.end(),
            used_epoch_.begin() + used_begin_[k]);
  FillEvaluation(k);
}

TaskControllerSnapshot TaskController::SnapshotTask(TaskId task) const {
  const std::size_t k = HostedLocal(task, "SnapshotTask");
  TaskControllerSnapshot snapshot;
  snapshot.task = task;
  const std::span<const double> local = latencies(task);
  snapshot.local_latencies.assign(local.begin(), local.end());
  const auto lambda = shared_->prices.lambda.begin();
  snapshot.local_lambdas.assign(lambda + path_begin_[k],
                                lambda + path_begin_[k + 1]);
  const auto multiplier = shared_->schedule.path_multiplier().begin();
  snapshot.path_gamma_multiplier.assign(multiplier + path_begin_[k],
                                        multiplier + path_begin_[k + 1]);
  snapshot.mu.assign(mu_cache_.begin() + used_begin_[k],
                     mu_cache_.begin() + used_begin_[k + 1]);
  snapshot.resource_congested.assign(
      used_congested_.begin() + used_begin_[k],
      used_congested_.begin() + used_begin_[k + 1]);
  snapshot.resource_epoch.assign(used_epoch_.begin() + used_begin_[k],
                                 used_epoch_.begin() + used_begin_[k + 1]);
  return snapshot;
}

void TaskController::AllocateAndSend(PriceVector* prices,
                                     net::Outbox* outbox) {
  assert(bus_ != nullptr);
  std::vector<double>& lambda = shared_->prices.lambda;
  const std::vector<double>& path_latencies =
      shared_->evaluation.path_latencies;
  StepSchedule& schedule = shared_->schedule;
  for (std::size_t k = 0; k < task_count_; ++k) {
    // A crashed task neither solves nor steps: its latencies stay frozen.
    if (crashed_[k] != 0) continue;
    const std::size_t t = first_ + k;

    // Publish this task's slots of the lane's price buffer right before its
    // solve: its cached mu and its own lambda.  Other tasks' entries are
    // never read: the solver only gathers the prices of this task's own
    // resources and paths.
    for (std::uint32_t slot = used_begin_[k]; slot < used_begin_[k + 1];
         ++slot) {
      prices->mu[used_resources_[slot].value()] = mu_cache_[slot];
    }
    std::copy(lambda.begin() + static_cast<std::ptrdiff_t>(path_begin_[k]),
              lambda.begin() + static_cast<std::ptrdiff_t>(path_begin_[k + 1]),
              prices->lambda.begin() +
                  static_cast<std::ptrdiff_t>(path_begin_[k]));

    // 3. Latency allocation at the stored prices (Eq. 7), reading the model
    // cache the caller's serial PrepareSolve refreshed, into this task's
    // span of the shared latencies; then this task's evaluation slots.
    // Distinct tasks write disjoint slots of both shared buffers, so lanes
    // share them.
    shared_->solver.SolveTaskRange(t, t + 1, *prices, &shared_->latencies);
    FillEvaluation(k);

    // 2'. Path price update (Eq. 9) with the adaptive per-path step: a
    // path's step doubles while any resource it traverses reports
    // congestion.
    for (std::size_t path = path_begin_[k]; path < path_begin_[k + 1];
         ++path) {
      const std::size_t q = path - path_begin_[0];
      bool any_congested = false;
      for (std::uint32_t i = path_slot_begin_[q]; i < path_slot_begin_[q + 1];
           ++i) {
        if (used_congested_[path_slots_[i]] != 0) any_congested = true;
      }
      schedule.AdvancePath(path, any_congested);
      const double critical_time_ms =
          workload_->path(PathId(path)).critical_time_ms;
      const double slack = 1.0 - path_latencies[path] / critical_time_ms;
      // Path lambdas stay plain in the distributed deployment (DESIGN.md
      // §7.12).
      lambda[path] = StepComponentDynamics(
          DynamicsConfig{}, nullptr, lambda[path], schedule.path_step(path),
          slack, nullptr);
    }
  }

  // 4. Send the new latencies: one batched positional message per shard
  // touched, its payload encoded straight into the lane's outbox and the
  // message built beside it.  A crashed task's entries carry its frozen
  // latencies.
  double* gather = gather_latencies_.data();
  for (std::size_t s = 0; s < used_shards_.size(); ++s) {
    const std::uint32_t begin = latency_begin_[s];
    const std::uint32_t end = latency_begin_[s + 1];
    for (std::uint32_t j = begin; j < end; ++j) {
      gather[j - begin] = shared_->latencies[latency_subtasks_[j]];
    }
    const net::PayloadSpan span =
        net::AppendShardLatencyPayload(gather, end - begin, outbox->bytes());
    net::ShardLatencyUpdate& update = outbox->Add<net::ShardLatencyUpdate>(
        self_, (*shard_endpoints_)[used_shards_[s]], span);
    update.host = host_;
    update.shard = used_shards_[s];
    update.count = end - begin;
  }
}

}  // namespace lla::runtime
