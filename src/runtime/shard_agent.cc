#include "runtime/shard_agent.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <utility>

#include "core/step_size.h"

namespace lla::runtime {

ShardAgent::ShardAgent(const Workload& workload, const LatencyModel& model,
                       std::uint32_t shard, ResourceId first_resource,
                       std::size_t count, AgentStepConfig config,
                       DynamicsConfig dynamics)
    : workload_(&workload),
      model_(&model),
      shard_(shard),
      first_(first_resource.value()),
      config_(config),
      dynamics_config_(dynamics) {
  resources_.reserve(count);
  latency_offset_.reserve(count + 1);
  latency_offset_.push_back(0);
  std::map<TaskId, std::set<std::uint32_t>> clients;
  for (std::size_t i = 0; i < count; ++i) {
    const ResourceId r(static_cast<std::uint32_t>(first_ + i));
    resources_.push_back(r);
    const ResourceInfo& info = workload.resource(r);
    for (SubtaskId sid : info.subtasks) {
      subtask_slot_.emplace(sid.value(), latencies_.size());
      // Until a controller reports, assume the subtask demands nothing: an
      // effectively-infinite latency gives share ~ 0.
      latencies_.push_back(1e9);
      slot_resource_.push_back(static_cast<std::uint32_t>(i));
      clients[workload.subtask(sid).task].insert(
          static_cast<std::uint32_t>(i));
    }
    latency_offset_.push_back(latencies_.size());
  }
  client_tasks_.reserve(clients.size());
  client_resources_.reserve(clients.size());
  client_latency_slots_.reserve(clients.size());
  resource_clients_.assign(count, {});
  for (const auto& [task, locals] : clients) {
    const auto c = static_cast<std::uint32_t>(client_tasks_.size());
    client_tasks_.push_back(task);
    client_resources_.emplace_back(locals.begin(), locals.end());
    for (const std::uint32_t local : client_resources_.back()) {
      resource_clients_[local].push_back(c);
    }
    // The positional latency list: the client's subtasks hosted here, in
    // the client's local subtask order — exactly the order the controller's
    // shard_subtasks_ gather emits.
    auto& slots = client_latency_slots_.emplace_back();
    for (SubtaskId sid : workload.task(task).subtasks) {
      const auto it = subtask_slot_.find(sid.value());
      if (it != subtask_slot_.end()) slots.push_back(it->second);
    }
  }
  client_incarnation_.assign(client_tasks_.size(), 0);
  std::vector<std::uint32_t> client_ids;
  client_ids.reserve(client_tasks_.size());
  for (const TaskId task : client_tasks_) client_ids.push_back(task.value());
  client_index_ = IdIndex(client_ids);
  // The scratch arrays fit the widest message each way, once.
  std::size_t widest_price = 0;
  std::size_t widest_latency = 0;
  for (std::size_t c = 0; c < client_tasks_.size(); ++c) {
    widest_price = std::max(widest_price, client_resources_[c].size());
    widest_latency =
        std::max(widest_latency, client_latency_slots_[c].size());
  }
  gather_mu_.assign(widest_price, 0.0);
  gather_congested_.assign(widest_price, 0);
  gather_stale_.assign(widest_price, 0);
  decode_scratch_.assign(widest_latency, 0.0);
  congested_.assign(count, 0);
  resource_crashed_.assign(count, 0);
  awaiting_repair_.assign(count, 0);
  repair_adopted_.assign(count, 0);
  repair_grace_left_.assign(count, 0);
  best_repair_epoch_.assign(count, 0);
}

void ShardAgent::Bind(net::InProcessBus* bus, net::EndpointId self,
                      const std::vector<net::EndpointId>* controller_endpoints,
                      ControllerShared* shared) {
  bus_ = bus;
  self_ = self;
  controller_endpoints_ = controller_endpoints;
  shared_ = shared;
}

bool ShardAgent::AcceptIncarnation(std::size_t c, std::uint32_t incarnation) {
  std::uint32_t& seen = client_incarnation_[c];
  if (incarnation < seen) {
    if (hooks_.stale_rejected != nullptr) hooks_.stale_rejected->Increment();
    return false;
  }
  seen = incarnation;
  return true;
}

void ShardAgent::OnMessage(const net::Message& message) {
  if (const auto* update =
          std::get_if<net::ShardLatencyUpdate>(&message.payload)) {
    if (update->shard != shard_) return;  // misrouted; ignore
    const int c = client_index_.Find(update->task.value());
    if (c < 0) return;  // not a client here; ignore
    if (!AcceptIncarnation(static_cast<std::size_t>(c), message.incarnation)) {
      DropClientMomentum(static_cast<std::size_t>(c));
      return;
    }
    ApplyLatencyUpdate(static_cast<std::size_t>(c), *update);
    return;
  }
  if (const auto* repair =
          std::get_if<net::RepairResponse>(&message.payload)) {
    if (!Hosts(repair->resource)) return;  // misrouted; ignore
    const int c = client_index_.Find(repair->task.value());
    if (c < 0) return;
    if (!AcceptIncarnation(static_cast<std::size_t>(c), message.incarnation)) {
      // Same discontinuity as a stale latency update.
      shared_->mu_dynamics[repair->resource.value()].DropMomentum();
      return;
    }
    ApplyRepairResponse(*repair);
    return;
  }
}

void ShardAgent::DropClientMomentum(std::size_t c) {
  for (const std::uint32_t local : client_resources_[c]) {
    shared_->mu_dynamics[first_ + local].DropMomentum();
  }
}

void ShardAgent::ApplyLatencyUpdate(std::size_t c,
                                    const net::ShardLatencyUpdate& update) {
  const std::vector<std::size_t>& slots = client_latency_slots_[c];
  // The positional contract: the sender's entry list is derived from the
  // same static membership, so the counts must agree; a mismatch means a
  // stale or foreign binding and the whole message is ignored, as is a
  // payload that does not decode.
  if (update.count != slots.size() ||
      !net::DecodeShardLatencyUpdate(update, decode_scratch_.data())) {
    if (hooks_.malformed_rejected != nullptr) {
      hooks_.malformed_rejected->Increment();
    }
    return;
  }
  if (!any_resource_faulted_) {
    for (std::size_t j = 0; j < slots.size(); ++j) {
      latencies_[slots[j]] = decode_scratch_[j];
    }
    return;
  }
  for (std::size_t j = 0; j < slots.size(); ++j) {
    // A crashed resource's state is frozen until its restart (the
    // per-resource analogue of the crashed agent ignoring messages).
    if (resource_crashed_[slot_resource_[slots[j]]] != 0) continue;
    latencies_[slots[j]] = decode_scratch_[j];
  }
}

void ShardAgent::ApplyRepairResponse(const net::RepairResponse& repair) {
  const std::size_t local = Local(repair.resource);
  if (resource_crashed_[local] != 0) return;  // still down; ignore
  // Absolute state from a client controller: always absorb the latencies
  // (they are the controller's current truth), and while awaiting repair
  // adopt the price from the freshest epoch offered.
  for (std::size_t i = 0; i < repair.entry_count(); ++i) {
    const net::RepairEntry entry = repair.entry(i);
    const auto it = subtask_slot_.find(entry.subtask.value());
    if (it == subtask_slot_.end()) continue;
    if (slot_resource_[it->second] != local) continue;  // misrouted entry
    latencies_[it->second] = entry.latency_ms;
  }
  if (awaiting_repair_[local] != 0 &&
      (repair_adopted_[local] == 0 ||
       repair.epoch >= best_repair_epoch_[local])) {
    const std::size_t r = repair.resource.value();
    best_repair_epoch_[local] = repair.epoch;
    shared_->prices.mu[r] = repair.mu;
    congested_[local] = repair.congested ? 1 : 0;
    shared_->schedule.ResetResource(r);  // congestion history is gone
    // Re-base the dynamics at the adopted price: momentum history is gone
    // with the rest of the pre-crash state.
    shared_->mu_dynamics[r].ReseedAt(repair.mu);
    repair_adopted_[local] = 1;
    if (hooks_.repair_rounds != nullptr) hooks_.repair_rounds->Increment();
  }
}

std::size_t ShardAgent::HostedLocal(ResourceId r, const char* what) const {
  if (!Hosts(r)) {
    std::fprintf(stderr,
                 "ShardAgent::%s: resource %u is not hosted by shard %u "
                 "(resources [%zu, %zu))\n",
                 what, r.value(), shard_, first_, first_ + resources_.size());
    std::abort();
  }
  return Local(r);
}

void ShardAgent::CrashResource(ResourceId r) {
  resource_crashed_[HostedLocal(r, "CrashResource")] = 1;
  any_resource_faulted_ = true;
}

void ShardAgent::ColdRestartResource(ResourceId r) {
  assert(bus_ != nullptr);
  const std::size_t local = HostedLocal(r, "ColdRestartResource");
  resource_crashed_[local] = 0;
  std::fill(latencies_.begin() +
                static_cast<std::ptrdiff_t>(latency_offset_[local]),
            latencies_.begin() +
                static_cast<std::ptrdiff_t>(latency_offset_[local + 1]),
            1e9);
  shared_->prices.mu[r.value()] = 0.0;
  shared_->schedule.ResetResource(r.value());
  // Momentum is part of the lost state.
  shared_->mu_dynamics[r.value()] = ComponentDynamicsState{};
  congested_[local] = 0;
  awaiting_repair_[local] = 1;
  repair_adopted_[local] = 0;
  repair_grace_left_[local] = config_.repair_grace_ticks;
  best_repair_epoch_[local] = 0;
  any_resource_faulted_ = true;
  // The shard's epoch and its client incarnation watermarks are transport
  // state and survive: only this resource's dual state was lost.  A cold
  // restart runs outside any round, so its requests go out at once.
  net::Outbox requests;
  SendRepairRequest(local, &requests);
  bus_->SendAll(requests);
}

void ShardAgent::RestoreResource(ResourceId r,
                                 const ResourceAgentSnapshot& snapshot) {
  const std::size_t local = HostedLocal(r, "RestoreResource");
  const std::size_t hosted =
      latency_offset_[local + 1] - latency_offset_[local];
  if (snapshot.resource != r || snapshot.latencies_ms.size() != hosted) {
    // A misshapen snapshot would leave the resource publishing a restored
    // mu against stale (possibly 1e9 cold-fill) latencies — the restored
    // price and its inputs would disagree silently, forever.  That is
    // always a caller bug (snapshot of a different resource or of a
    // structurally different workload), so fail loudly in every build mode,
    // matching LlaEngine::WarmStart's shape abort.
    std::fprintf(stderr,
                 "ShardAgent::RestoreResource: snapshot of resource %u with "
                 "%zu latencies does not match agent slot of resource %u "
                 "with %zu hosted subtasks\n",
                 snapshot.resource.value(), snapshot.latencies_ms.size(),
                 r.value(), hosted);
    std::abort();
  }
  // A restore supersedes any crash or half-finished repair exchange: clear
  // its grace budget and epoch watermark so a late RepairResponse (or a
  // later cold restart) starts from a clean slate instead of inheriting
  // them.
  resource_crashed_[local] = 0;
  awaiting_repair_[local] = 0;
  repair_adopted_[local] = 0;
  repair_grace_left_[local] = 0;
  best_repair_epoch_[local] = 0;
  shared_->prices.mu[r.value()] = snapshot.mu;
  shared_->schedule.AdoptResource(r.value(), snapshot.gamma_multiplier);
  shared_->mu_dynamics[r.value()] = snapshot.dynamics;
  std::copy(snapshot.latencies_ms.begin(), snapshot.latencies_ms.end(),
            latencies_.begin() +
                static_cast<std::ptrdiff_t>(latency_offset_[local]));
}

ResourceAgentSnapshot ShardAgent::SnapshotResource(ResourceId r) const {
  const std::size_t local = HostedLocal(r, "SnapshotResource");
  ResourceAgentSnapshot snapshot;
  snapshot.resource = r;
  snapshot.mu = shared_->prices.mu[r.value()];
  snapshot.gamma_multiplier =
      shared_->schedule.resource_multiplier()[r.value()];
  snapshot.latencies_ms.assign(
      latencies_.begin() + static_cast<std::ptrdiff_t>(latency_offset_[local]),
      latencies_.begin() +
          static_cast<std::ptrdiff_t>(latency_offset_[local + 1]));
  snapshot.dynamics = shared_->mu_dynamics[r.value()];
  return snapshot;
}

void ShardAgent::SendRepairRequest(std::size_t local, net::Outbox* outbox) {
  for (const std::uint32_t c : resource_clients_[local]) {
    outbox
        ->Add<net::RepairRequest>(
            self_, (*controller_endpoints_)[client_tasks_[c].value()])
        .resource = resources_[local];
  }
}

double ShardAgent::ShareSum(ResourceId r) const {
  const std::size_t local = Local(r);
  const auto& hosted = workload_->resource(r).subtasks;
  const std::size_t base = latency_offset_[local];
  double sum = 0.0;
  for (std::size_t i = 0; i < hosted.size(); ++i) {
    const ShareFunction& share = model_->share(hosted[i]);
    const double lat = std::max(latencies_[base + i], share.MinLatency() + 1e-9);
    sum += share.Share(lat);
  }
  return sum;
}

void ShardAgent::ComputePricesAndBroadcast(net::Outbox* outbox) {
  assert(bus_ != nullptr);
  StepSchedule& schedule = shared_->schedule;
  std::vector<double>& shared_mu = shared_->prices.mu;
  bool still_faulted = false;
  for (std::size_t i = 0; i < resources_.size(); ++i) {
    if (any_resource_faulted_) {
      if (resource_crashed_[i] != 0) {
        still_faulted = true;
        continue;  // frozen: no Eq. 8 step, entry goes out stale
      }
      if (awaiting_repair_[i] != 0) {
        // Hold this resource's price while the repair exchange is in
        // flight (publishing the reset mu=0 would drag its clients through
        // a cold transient); re-request each held tick, resume once a
        // response was adopted or the grace budget is exhausted.
        if (repair_adopted_[i] == 0 && repair_grace_left_[i] > 0) {
          --repair_grace_left_[i];
          SendRepairRequest(i, outbox);
          still_faulted = true;
          continue;
        }
        awaiting_repair_[i] = 0;
      }
    }
    const ResourceId r = resources_[i];
    const std::size_t id = r.value();
    const ResourceInfo& info = workload_->resource(r);
    const double share_sum = ShareSum(r);
    shared_->evaluation.resource_share_sums[id] = share_sum;
    const bool congested = share_sum > info.capacity;
    congested_[i] = congested ? 1 : 0;

    // Adaptive step (Sec. 5.2): double while congested, revert when not.
    schedule.AdvanceResource(id, congested);

    // Eq. 8 with projection at zero, optionally accelerated (DESIGN.md
    // §7.12): the same StepComponentDynamics the engine's price update
    // takes, so (value, velocity, phase) = (0, 0, 0) stays absorbing and
    // beta = 0 heavy-ball is bit-identical to the plain update.
    const double slack = info.capacity - share_sum;
    shared_mu[id] = StepComponentDynamics(
        dynamics_config_, &shared_->mu_dynamics[id], shared_mu[id],
        schedule.resource_step(id), slack, nullptr);
  }
  any_resource_faulted_ = still_faulted;
  ++epoch_;

  // One batched positional message per client, carrying only the prices
  // that client reads (a whole-shard vector to every client would multiply
  // the round's byte volume by shard_width / task_resources_per_shard on
  // sparse workloads), its payload encoded straight into the lane's outbox
  // and the message built beside it.
  double* mu = gather_mu_.data();
  std::uint8_t* congested = gather_congested_.data();
  std::uint8_t* stale = any_resource_faulted_ ? gather_stale_.data() : nullptr;
  for (std::size_t c = 0; c < client_tasks_.size(); ++c) {
    const std::vector<std::uint32_t>& locals = client_resources_[c];
    for (std::size_t j = 0; j < locals.size(); ++j) {
      mu[j] = shared_mu[first_ + locals[j]];
      congested[j] = congested_[locals[j]];
    }
    if (stale != nullptr) {
      for (std::size_t j = 0; j < locals.size(); ++j) {
        const std::uint32_t i = locals[j];
        stale[j] =
            (resource_crashed_[i] != 0 || awaiting_repair_[i] != 0) ? 1 : 0;
      }
    }
    const net::PayloadSpan span = net::AppendShardPricePayload(
        mu, congested, stale, locals.size(), outbox->bytes());
    net::ShardPriceUpdate& update = outbox->Add<net::ShardPriceUpdate>(
        self_, (*controller_endpoints_)[client_tasks_[c].value()], span);
    update.shard = shard_;
    update.epoch = epoch_;
    update.count = static_cast<std::uint32_t>(locals.size());
  }
}

}  // namespace lla::runtime
