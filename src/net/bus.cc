#include "net/bus.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

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
  blackout_horizon_ms_ = std::max(blackout_horizon_ms_, until_ms);
}

bool InProcessBus::IsBlackedOut(EndpointId endpoint) const {
  return now_ms_ < blackout_until_ms_[endpoint];
}

void InProcessBus::CrashEndpoint(EndpointId endpoint) {
  CheckEndpoint(endpoint, "CrashEndpoint");
  blackout_until_ms_[endpoint] = std::numeric_limits<double>::infinity();
  blackout_horizon_ms_ = std::numeric_limits<double>::infinity();
}

void InProcessBus::RestartEndpoint(EndpointId endpoint) {
  CheckEndpoint(endpoint, "RestartEndpoint");
  blackout_until_ms_[endpoint] = -1.0;
  blackout_horizon_ms_ = *std::max_element(blackout_until_ms_.begin(),
                                           blackout_until_ms_.end());
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

void InProcessBus::Send(const Message& message) {
  send_outbox_.clear();
  send_outbox_.Push(message);
  SendAll(send_outbox_);
}

void InProcessBus::SendAll(const Outbox& outbox) {
  // Configuration-only tests, taken once for the outbox.  No handler runs
  // during admission, so neither the clock nor any blackout moves inside it.
  const bool drops = config_.drop_probability > 0.0;
  const bool jittered = config_.jitter_ms > 0.0;
  const bool counted = config_.metrics != nullptr;
  const bool blackouts = now_ms_ < blackout_horizon_ms_;
  const double fifo_at_ms = now_ms_ + config_.base_delay_ms;
  // Without jitter every admitted message goes to the FIFO, so its bytes
  // follow the outbox's in one append; a message's bytes then start at
  // fifo_base + its outbox offset.
  const std::size_t fifo_base = fifo_fill_.bytes.size();
  if (!jittered) fifo_fill_.bytes.append(outbox.bytes());
  const std::vector<Message>& messages = outbox.messages();
  for (std::size_t i = 0; i < messages.size(); ++i) {
    const Message& sent = messages[i];
    CheckEndpoint(sent.sender, "Send");
    CheckEndpoint(sent.receiver, "Send");
    // The incarnation is stamped on the queued copy; WireSize does not read
    // it, so the accounting sees the same bytes.
    const std::uint32_t incarnation = incarnation_[sent.sender];
    ++stats_.sent;
    stats_.bytes += WireSize(sent);
    if (counted) {
      sent_counter_->Increment();
      endpoints_[sent.sender].sent->Increment();
    }
    if (blackouts &&
        (IsBlackedOut(sent.sender) || IsBlackedOut(sent.receiver))) {
      CountDrop(sent);
      continue;
    }
    if (drops && rng_.NextDouble() < config_.drop_probability) {
      CountDrop(sent);
      continue;
    }
    if (!jittered) {
      // Without jitter every message arrives base_delay_ms after its send
      // and the clock never runs backwards, so these events arrive sorted.
      fifo_fill_.events.emplace_back(fifo_at_ms, next_seq_++,
                                     fifo_base + outbox.offset(i), sent,
                                     incarnation);
      continue;
    }
    const double jitter = rng_.Uniform(0.0, config_.jitter_ms);
    if (jitter > 0.0 && counted) delayed_counter_->Increment();
    const std::size_t slot = AcquireSlot();
    HeapSlot& event = slots_[slot];
    event.is_timer = false;
    event.message = sent;
    event.message.incarnation = incarnation;
    if (const WireSlice* bytes = PayloadBytes(sent.payload)) {
      event.bytes.assign(outbox.bytes(), outbox.offset(i), bytes->size());
    } else {
      event.bytes.clear();
    }
    heap_.push(EventKey{now_ms_ + (config_.base_delay_ms + jitter),
                        next_seq_++, slot});
  }
}

void InProcessBus::ScheduleTimer(EndpointId endpoint, double delay_ms,
                                 std::uint64_t token) {
  CheckEndpoint(endpoint, "ScheduleTimer");
  CheckDelay(delay_ms, "timer delay_ms");
  const std::size_t slot = AcquireSlot();
  HeapSlot& event = slots_[slot];
  event.is_timer = true;
  event.endpoint = endpoint;
  event.token = token;
  heap_.push(EventKey{now_ms_ + delay_ms, next_seq_++, slot});
}

const InProcessBus::FifoEvent* InProcessBus::FifoFront() const {
  if (fifo_head_ < fifo_drain_.events.size()) {
    return &fifo_drain_.events[fifo_head_];
  }
  return fifo_fill_.events.empty() ? nullptr : &fifo_fill_.events.front();
}

bool InProcessBus::FifoIsNext() const {
  const FifoEvent* front = FifoFront();
  return front != nullptr &&
         (heap_.empty() ||
          EventLater{}(heap_.top(), EventKey{front->at_ms, front->seq, 0}));
}

void InProcessBus::Dispatch(double at_ms, const Message& message) {
  now_ms_ = at_ms;
  if (IsBlackedOut(message.receiver)) {
    CountDrop(message);
    return;
  }
  Endpoint& endpoint = endpoints_[message.receiver];
  ++stats_.delivered;
  if (delivered_counter_ != nullptr) delivered_counter_->Increment();
  if (endpoint.delivered != nullptr) endpoint.delivered->Increment();
  if (endpoint.on_message) endpoint.on_message(message);
}

bool InProcessBus::DeliverNext() {
  if (FifoIsNext()) {
    if (fifo_head_ == fifo_drain_.events.size()) {
      // The draining half is spent (its last handler has returned): the
      // filling half becomes the draining one.
      fifo_drain_.events.clear();
      fifo_drain_.bytes.clear();
      std::swap(fifo_drain_, fifo_fill_);
      fifo_head_ = 0;
    }
    // Dispatched in place: the handler's sends go to the filling half, so
    // neither this event nor its bytes move while it runs.
    FifoEvent& event = fifo_drain_.events[fifo_head_++];
    if (WireSlice* bytes = PayloadBytes(&event.message.payload)) {
      *bytes = WireSlice(fifo_drain_.bytes.data() + event.offset,
                         bytes->size());
    }
    Dispatch(event.at_ms, event.message);
    return true;
  }
  if (heap_.empty()) return false;
  const EventKey key = heap_.top();
  heap_.pop();
  // Copy the event out and free its slot before the handler runs: the
  // handler may send, which can reuse the slot or grow slots_.
  HeapSlot& slot = slots_[key.slot];
  free_slots_.push_back(key.slot);
  if (slot.is_timer) {
    const EndpointId endpoint = slot.endpoint;
    const std::uint64_t token = slot.token;
    now_ms_ = key.at_ms;
    ++stats_.timers_fired;
    if (timers_counter_ != nullptr) timers_counter_->Increment();
    if (endpoints_[endpoint].on_timer) endpoints_[endpoint].on_timer(token);
    return true;
  }
  Message message = slot.message;
  heap_dispatch_bytes_.swap(slot.bytes);
  if (WireSlice* bytes = PayloadBytes(&message.payload)) {
    *bytes = WireSlice(heap_dispatch_bytes_.data(), bytes->size());
  }
  Dispatch(key.at_ms, message);
  return true;
}

void InProcessBus::RunUntil(double until_ms) {
  while (pending() > 0 &&
         (FifoIsNext() ? FifoFront()->at_ms : heap_.top().at_ms) <=
             until_ms) {
    DeliverNext();
  }
  now_ms_ = std::max(now_ms_, until_ms);
}

void InProcessBus::RunAll() {
  while (DeliverNext()) {
  }
}

}  // namespace lla::net
