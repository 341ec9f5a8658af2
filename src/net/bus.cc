#include "net/bus.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace lla::net {
namespace {

// Aborts unless `value` is finite and >= 0.  Written so that NaN fails too:
// every comparison with NaN is false.
void CheckDelay(double value, const char* what) {
  if (!(std::isfinite(value) && value >= 0.0)) {
    std::fprintf(stderr,
                 "InProcessBus: %s %g is not a finite delay >= 0 (a "
                 "negative or NaN delay would move the clock backwards)\n",
                 what, value);
    std::abort();
  }
}

}  // namespace

InProcessBus::InProcessBus(BusConfig config)
    : config_(config), rng_(config.seed) {
  CheckDelay(config_.base_delay_ms, "base_delay_ms");
  CheckDelay(config_.jitter_ms, "jitter_ms");
  if (!(config_.drop_probability >= 0.0 && config_.drop_probability <= 1.0)) {
    std::fprintf(stderr,
                 "InProcessBus: drop_probability %g is outside [0, 1]\n",
                 config_.drop_probability);
    std::abort();
  }
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

void InProcessBus::CheckEndpoint(EndpointId endpoint, const char* what) const {
  if (endpoint >= endpoints_.size()) {
    std::fprintf(stderr,
                 "InProcessBus::%s: endpoint %u is not registered (%zu "
                 "endpoints)\n",
                 what, endpoint, endpoints_.size());
    std::abort();
  }
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
  CheckEndpoint(endpoint, "BlackoutEndpoint");
  blackout_until_ms_[endpoint] =
      std::max(blackout_until_ms_[endpoint], until_ms);
}

bool InProcessBus::IsBlackedOut(EndpointId endpoint) const {
  return now_ms_ < blackout_until_ms_[endpoint];
}

void InProcessBus::CrashEndpoint(EndpointId endpoint) {
  CheckEndpoint(endpoint, "CrashEndpoint");
  blackout_until_ms_[endpoint] = std::numeric_limits<double>::infinity();
}

void InProcessBus::RestartEndpoint(EndpointId endpoint) {
  CheckEndpoint(endpoint, "RestartEndpoint");
  blackout_until_ms_[endpoint] = -1.0;
  ++incarnation_[endpoint];
}

void InProcessBus::BumpIncarnation(EndpointId endpoint) {
  CheckEndpoint(endpoint, "BumpIncarnation");
  ++incarnation_[endpoint];
}

std::size_t InProcessBus::AcquireSlot() {
  if (free_slots_.empty()) {
    slots_.emplace_back();
    return slots_.size() - 1;
  }
  const std::size_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

void InProcessBus::Send(Message message) {
  CheckEndpoint(message.sender, "Send");
  CheckEndpoint(message.receiver, "Send");
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
  const bool jittered = config_.jitter_ms > 0.0;
  if (jittered) {
    const double jitter = rng_.Uniform(0.0, config_.jitter_ms);
    delay += jitter;
    if (jitter > 0.0 && delayed_counter_ != nullptr) {
      delayed_counter_->Increment();
    }
  }
  const std::size_t slot = AcquireSlot();
  Event& event = slots_[slot];
  event.is_timer = false;
  event.endpoint = message.receiver;
  event.message = std::move(message);
  const EventKey key{now_ms_ + delay, next_seq_++, slot};
  // Without jitter every message arrives base_delay_ms after its send and
  // the clock never runs backwards, so these keys arrive sorted.
  if (jittered) {
    heap_.push(key);
  } else {
    fifo_.push_back(key);
  }
}

void InProcessBus::ScheduleTimer(EndpointId endpoint, double delay_ms,
                                 std::uint64_t token) {
  CheckEndpoint(endpoint, "ScheduleTimer");
  CheckDelay(delay_ms, "timer delay_ms");
  const std::size_t slot = AcquireSlot();
  Event& event = slots_[slot];
  event.is_timer = true;
  event.endpoint = endpoint;
  event.token = token;
  heap_.push(EventKey{now_ms_ + delay_ms, next_seq_++, slot});
}

bool InProcessBus::FifoIsNext() const {
  return fifo_head_ < fifo_.size() &&
         (heap_.empty() || EventLater{}(heap_.top(), fifo_[fifo_head_]));
}

InProcessBus::EventKey InProcessBus::PopNext() {
  if (!FifoIsNext()) {
    const EventKey key = heap_.top();
    heap_.pop();
    return key;
  }
  const EventKey key = fifo_[fifo_head_++];
  if (fifo_head_ == fifo_.size()) {
    fifo_.clear();
    fifo_head_ = 0;
  } else if (fifo_head_ > fifo_.size() / 2) {
    fifo_.erase(fifo_.begin(),
                fifo_.begin() + static_cast<std::ptrdiff_t>(fifo_head_));
    fifo_head_ = 0;
  }
  return key;
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
  if (pending() == 0) return false;
  const EventKey key = PopNext();
  // Move the payload out of the slot before dispatch: the handler may send,
  // which can reuse the slot or grow slots_.  The local copy dies after
  // dispatch, releasing the message's hold on its sender's wire arena.
  Event event = std::move(slots_[key.slot]);
  free_slots_.push_back(key.slot);
  Dispatch(key.at_ms, event);
  return true;
}

void InProcessBus::RunUntil(double until_ms) {
  while (pending() > 0 &&
         (FifoIsNext() ? fifo_[fifo_head_] : heap_.top()).at_ms <= until_ms) {
    DeliverNext();
  }
  now_ms_ = std::max(now_ms_, until_ms);
}

void InProcessBus::RunAll() {
  while (DeliverNext()) {
  }
}

}  // namespace lla::net
