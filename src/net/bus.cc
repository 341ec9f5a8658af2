#include "net/bus.h"

#include <cassert>
#include <limits>

#include "common/logging.h"
#include "common/parallel.h"

namespace lla::net {
namespace {

/// Non-null while this thread runs handlers inside a parallel wave: Send
/// appends here instead of touching the (shared) queue, and the wave's
/// serial epilogue replays the outboxes through the real Send in lane
/// order.  Thread-local, so the redirect needs no locking and cannot leak
/// across buses (it is only set for the duration of one wave's handlers).
thread_local std::vector<Message>* tls_deferred_sends = nullptr;

}  // namespace

InProcessBus::InProcessBus(BusConfig config)
    : config_(config), rng_(config.seed) {
  assert(config.base_delay_ms >= 0.0);
  assert(config.jitter_ms >= 0.0);
  assert(config.drop_probability >= 0.0 && config.drop_probability <= 1.0);
  if (config_.metrics != nullptr) {
    sent_counter_ = config_.metrics->GetCounter("bus.sent");
    delivered_counter_ = config_.metrics->GetCounter("bus.delivered");
    dropped_counter_ = config_.metrics->GetCounter("bus.dropped");
    delayed_counter_ = config_.metrics->GetCounter("bus.delayed");
    timers_counter_ = config_.metrics->GetCounter("bus.timers_fired");
  }
}

EndpointId InProcessBus::Register(std::string name, MessageHandler on_message,
                                  TimerHandler on_timer) {
  const EndpointId id = static_cast<EndpointId>(endpoints_.size());
  Endpoint endpoint{std::move(name), std::move(on_message),
                    std::move(on_timer)};
  if (config_.metrics != nullptr) {
    const std::string prefix = "bus.endpoint." + endpoint.name;
    endpoint.sent = config_.metrics->GetCounter(prefix + ".sent");
    endpoint.delivered = config_.metrics->GetCounter(prefix + ".delivered");
    endpoint.dropped = config_.metrics->GetCounter(prefix + ".dropped");
  }
  endpoints_.push_back(std::move(endpoint));
  blackout_until_ms_.push_back(-1.0);
  incarnation_.push_back(0);
  return id;
}

void InProcessBus::CountDrop(const Message& message) {
  ++stats_.dropped;
  // The endpoint counters are resolved independently of the global one
  // (Register creates them iff a registry is configured), so each gets its
  // own null test: gating the endpoint increments on the global counter
  // silently lost endpoint drop metrics whenever only endpoint-level
  // counters existed.
  if (dropped_counter_ != nullptr) dropped_counter_->Increment();
  if (endpoints_[message.sender].dropped != nullptr) {
    endpoints_[message.sender].dropped->Increment();
  }
  if (endpoints_[message.receiver].dropped != nullptr) {
    endpoints_[message.receiver].dropped->Increment();
  }
}

void InProcessBus::BlackoutEndpoint(EndpointId endpoint, double until_ms) {
  assert(endpoint < endpoints_.size());
  blackout_until_ms_[endpoint] =
      std::max(blackout_until_ms_[endpoint], until_ms);
}

bool InProcessBus::IsBlackedOut(EndpointId endpoint) const {
  return now_ms_ < blackout_until_ms_[endpoint];
}

void InProcessBus::CrashEndpoint(EndpointId endpoint) {
  assert(endpoint < endpoints_.size());
  blackout_until_ms_[endpoint] = std::numeric_limits<double>::infinity();
}

void InProcessBus::RestartEndpoint(EndpointId endpoint) {
  assert(endpoint < endpoints_.size());
  blackout_until_ms_[endpoint] = -1.0;
  ++incarnation_[endpoint];
}

void InProcessBus::BumpIncarnation(EndpointId endpoint) {
  assert(endpoint < endpoints_.size());
  ++incarnation_[endpoint];
}

void InProcessBus::Push(double at_ms, Event event) {
  std::size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(event);
  } else {
    slot = slots_.size();
    slots_.push_back(std::move(event));
  }
  events_.push(EventKey{at_ms, next_seq_++, slot});
}

void InProcessBus::Send(Message message) {
  if (tls_deferred_sends != nullptr) {
    // Parallel wave in progress: queue mutation is unsafe and send-time
    // accounting must happen in deterministic commit order, so park the
    // message in this lane's outbox untouched.
    tls_deferred_sends->push_back(std::move(message));
    return;
  }
  assert(message.sender < endpoints_.size());
  assert(message.receiver < endpoints_.size());
  // Stamp the sender's incarnation before any accounting so the wire bytes
  // and the delivered message agree.
  message.incarnation = incarnation_[message.sender];
  ++stats_.sent;
  stats_.bytes += WireSize(message);
  if (sent_counter_ != nullptr) sent_counter_->Increment();
  if (endpoints_[message.sender].sent != nullptr) {
    endpoints_[message.sender].sent->Increment();
  }
  if (IsBlackedOut(message.sender) || IsBlackedOut(message.receiver)) {
    CountDrop(message);
    return;
  }
  if (config_.drop_probability > 0.0 &&
      rng_.NextDouble() < config_.drop_probability) {
    CountDrop(message);
    return;
  }
  double delay = config_.base_delay_ms;
  if (config_.jitter_ms > 0.0) {
    const double jitter = rng_.Uniform(0.0, config_.jitter_ms);
    delay += jitter;
    if (jitter > 0.0 && delayed_counter_ != nullptr) {
      delayed_counter_->Increment();
    }
  }
  Event event;
  event.is_timer = false;
  event.endpoint = message.receiver;
  event.message = std::move(message);
  Push(now_ms_ + delay, std::move(event));
}

void InProcessBus::ScheduleTimer(EndpointId endpoint, double delay_ms,
                                 std::uint64_t token) {
  assert(endpoint < endpoints_.size());
  assert(delay_ms >= 0.0);
  Event event;
  event.is_timer = true;
  event.endpoint = endpoint;
  event.token = token;
  Push(now_ms_ + delay_ms, std::move(event));
}

void InProcessBus::Dispatch(double at_ms, const Event& event) {
  now_ms_ = at_ms;
  Endpoint& endpoint = endpoints_[event.endpoint];
  if (event.is_timer) {
    ++stats_.timers_fired;
    if (timers_counter_ != nullptr) timers_counter_->Increment();
    if (endpoint.on_timer) endpoint.on_timer(event.token);
    return;
  }
  if (IsBlackedOut(event.endpoint)) {
    CountDrop(event.message);
    return;
  }
  ++stats_.delivered;
  if (delivered_counter_ != nullptr) delivered_counter_->Increment();
  if (endpoint.delivered != nullptr) endpoint.delivered->Increment();
  if (config_.verify_wire_format) {
    const auto round_trip = Deserialize(Serialize(event.message));
    assert(round_trip.has_value() && *round_trip == event.message);
    (void)round_trip;
  }
  if (endpoint.on_message) endpoint.on_message(event.message);
}

bool InProcessBus::DeliverNext() {
  if (events_.empty()) return false;
  const EventKey key = events_.top();
  events_.pop();
  // Move the payload out of the slot before dispatch: the handler may push
  // new events and recycle slots.
  Event event = std::move(slots_[key.slot]);
  free_slots_.push_back(key.slot);
  Dispatch(key.at_ms, event);
  return true;
}

void InProcessBus::RunUntil(double until_ms) {
  while (!events_.empty() && events_.top().at_ms <= until_ms) {
    const EventKey key = events_.top();
    events_.pop();
    Event event = std::move(slots_[key.slot]);
    free_slots_.push_back(key.slot);
    Dispatch(key.at_ms, event);
  }
  now_ms_ = std::max(now_ms_, until_ms);
}

void InProcessBus::RunAll() {
  while (DeliverNext()) {
  }
}

void InProcessBus::RunAllParallel(ThreadPool* pool) {
  if (pool == nullptr || pool->size() <= 1) {
    RunAll();
    return;
  }
  // Deterministic parallel delivery needs an RNG-free send path: the serial
  // bus draws drop/jitter randoms in send order, which the deferred commit
  // would permute.
  assert(config_.drop_probability == 0.0 && config_.jitter_ms == 0.0);
  std::vector<EventKey>& wave = wave_scratch_;
  while (!events_.empty()) {
    const double at = events_.top().at_ms;
    wave.clear();
    bool has_timer = false;
    while (!events_.empty() && events_.top().at_ms == at) {
      wave.push_back(events_.top());
      events_.pop();
      if (slots_[wave.back().slot].is_timer) has_timer = true;
    }
    if (has_timer || wave.size() < 2) {
      // Timers may reschedule at the same instant; single events gain
      // nothing from a fan-out.  Events the handlers push at the same time
      // carry higher seqs than everything popped above, so processing them
      // in the next outer iteration preserves the serial (at, seq) order.
      for (const EventKey& key : wave) {
        Event event = std::move(slots_[key.slot]);
        free_slots_.push_back(key.slot);
        Dispatch(key.at_ms, event);
      }
      continue;
    }
    DispatchWaveParallel(at, wave, pool);
  }
}

void InProcessBus::DispatchWaveParallel(double at_ms,
                                        const std::vector<EventKey>& wave,
                                        ThreadPool* pool) {
  now_ms_ = at_ms;
  // Serial prologue: count blackout drops (totals match serial delivery;
  // counting order is irrelevant) and group the deliverable messages by
  // receiver in first-touch order.  The wave is already seq-sorted, so each
  // group's slot list drains its endpoint's inbox in exact serial order.
  if (endpoint_wave_group_.size() < endpoints_.size()) {
    endpoint_wave_group_.assign(endpoints_.size(), -1);
  }
  std::size_t group_count = 0;
  for (const EventKey& key : wave) {
    Event& event = slots_[key.slot];
    if (IsBlackedOut(event.endpoint)) {
      CountDrop(event.message);
      free_slots_.push_back(key.slot);
      continue;
    }
    int group = endpoint_wave_group_[event.endpoint];
    if (group < 0) {
      group = static_cast<int>(group_count++);
      if (wave_groups_.size() < group_count) wave_groups_.emplace_back();
      wave_groups_[static_cast<std::size_t>(group)].endpoint = event.endpoint;
      wave_groups_[static_cast<std::size_t>(group)].slots.clear();
      endpoint_wave_group_[event.endpoint] = group;
    }
    wave_groups_[static_cast<std::size_t>(group)].slots.push_back(key.slot);
  }
  for (std::size_t g = 0; g < group_count; ++g) {
    endpoint_wave_group_[wave_groups_[g].endpoint] = -1;
  }
  if (group_count == 0) return;

  // Fan-out: contiguous group chunks per lane (grain 1 — a group is a whole
  // endpoint's inbox).  Workers touch only their own groups' endpoints,
  // their lane outbox, and their delivered tally; obs counters are
  // relaxed-atomic.  No queue/slot mutation happens here — handler sends
  // are redirected to the lane outbox via tls_deferred_sends.
  const int participants =
      pool->ParticipantsFor(group_count, /*min_items_per_thread=*/1);
  if (lane_outboxes_.size() < static_cast<std::size_t>(participants)) {
    lane_outboxes_.resize(static_cast<std::size_t>(participants));
  }
  std::vector<std::uint64_t> lane_delivered(
      static_cast<std::size_t>(participants), 0);
  pool->RunRegion(participants, [&](int index, int total) {
    const auto [begin, end] = ChunkRange(group_count, total, index);
    tls_deferred_sends = &lane_outboxes_[static_cast<std::size_t>(index)];
    std::uint64_t delivered = 0;
    for (std::size_t g = begin; g < end; ++g) {
      Endpoint& endpoint = endpoints_[wave_groups_[g].endpoint];
      for (const std::size_t slot : wave_groups_[g].slots) {
        const Event& event = slots_[slot];
        ++delivered;
        if (endpoint.delivered != nullptr) endpoint.delivered->Increment();
        if (config_.verify_wire_format) {
          const auto round_trip = Deserialize(Serialize(event.message));
          assert(round_trip.has_value() && *round_trip == event.message);
          (void)round_trip;
        }
        if (endpoint.on_message) endpoint.on_message(event.message);
      }
    }
    lane_delivered[static_cast<std::size_t>(index)] = delivered;
    tls_deferred_sends = nullptr;
  });

  // Serial epilogue: fold the tallies, recycle the wave's slots, then
  // commit the deferred sends.  Lane i holds the sends of groups
  // [ChunkRange(i)), so concatenating lanes 0..P-1 replays them in group
  // order — the same sequence at any thread count.
  std::uint64_t total_delivered = 0;
  for (const std::uint64_t delivered : lane_delivered) {
    total_delivered += delivered;
  }
  stats_.delivered += total_delivered;
  if (delivered_counter_ != nullptr) {
    delivered_counter_->Increment(total_delivered);
  }
  for (std::size_t g = 0; g < group_count; ++g) {
    for (const std::size_t slot : wave_groups_[g].slots) {
      free_slots_.push_back(slot);
    }
  }
  for (int lane = 0; lane < participants; ++lane) {
    auto& outbox = lane_outboxes_[static_cast<std::size_t>(lane)];
    for (Message& message : outbox) Send(std::move(message));
    outbox.clear();
  }
}

}  // namespace lla::net
