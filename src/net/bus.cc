#include "net/bus.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace lla::net {

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
  while (!events_.empty() && events_.top().at_ms <= until_ms) DeliverNext();
  now_ms_ = std::max(now_ms_, until_ms);
}

void InProcessBus::RunAll() {
  while (DeliverNext()) {
  }
}

}  // namespace lla::net
