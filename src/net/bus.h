// InProcessBus: the simulated network connecting task controllers and
// shard agents.
//
// The paper evaluates LLA as a distributed algorithm; this bus lets the
// whole deployment run in one process while still exhibiting the properties
// that matter to the protocol — per-message delay (fixed + jitter),
// probabilistic loss, and asynchronous delivery order.  The bus owns a
// virtual clock and an event queue; endpoints also schedule local timers
// through it, which is what drives the asynchronous runtime.
//
// The bus owns every payload's bytes from Send to delivery.  Senders hand
// it an Outbox (message.h): messages built in place beside one byte buffer,
// each recording where its payload sits.  SendAll copies each admitted
// message (trivially copyable) straight into its queue slot and the
// payload bytes into the bus; at dispatch the bus binds the message's view
// to its own copy, so a handler's view is valid for that handler call, and
// the sender may clear and refill its outbox as soon as SendAll returns.
// BusStats::bytes counts every message at its wire size (WireSize ==
// Serialize().size(), pinned by message_test): what a real transport would
// carry.
//
// Determinism: all randomness (jitter, drops) comes from a seeded generator,
// and simultaneous events break ties by sequence number, so a given seed
// always yields the same trace.
//
// Admission: SendAll is the one routine; Send copies its message into an
// outbox the bus keeps and runs it.  The tests that depend only on the
// configuration (drop probability, jitter, attached counters, whether any
// blackout is live) are taken once per outbox; every per-message effect
// (incarnation stamp, BusStats, blackout and drop decisions, random draws,
// seq numbers) happens in send order, so an outbox is indistinguishable
// from its messages sent one by one.  No message passes through a
// temporary: each FIFO event is constructed in place from the outbox's
// message and its stamped incarnation, and without jitter the outbox's
// bytes enter the FIFO in one append (a dropped message's bytes ride along
// unread).
//
// Event lanes: pending events wait in one of two queues, and delivery always
// takes the earlier front by (at_ms, seq).  A message sent with no jitter
// arrives exactly base_delay_ms after its send, and the clock never runs
// backwards, so those messages are issued already sorted by (at_ms, seq):
// they go to a FIFO, which costs no heap operation.  Timers and jittered
// messages arrive out of send order and go to a binary heap.  Each lane is
// sorted by the same key and seq numbers are unique, so merging the two
// fronts yields exactly the order one heap over all events would have.  The
// FIFO is two (events, bytes) halves: sends append to the filling half and
// delivery reads the draining half in place, swapping the two only once the
// draining half is empty, so a handler's own sends never move the bytes it
// is reading.  The heap keeps a byte buffer per slot.  The configuration
// checks (delays finite and >= 0, drop probability in [0, 1], registered
// endpoints) abort in every build: a negative or NaN delay would move the
// clock backwards and break the FIFO's sortedness.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/message.h"
#include "obs/metrics.h"

namespace lla::net {

using EndpointId = std::uint32_t;

struct BusConfig {
  double base_delay_ms = 0.1;   ///< fixed propagation delay per message
  double jitter_ms = 0.0;       ///< uniform extra delay in [0, jitter_ms)
  double drop_probability = 0.0;  ///< in [0, 1]
  std::uint64_t seed = 1;
  /// Registry for the bus counters: global bus.sent / bus.delivered /
  /// bus.dropped / bus.delayed (messages that drew extra jitter delay) /
  /// bus.timers_fired, plus per-endpoint bus.endpoint.<name>.sent /
  /// .delivered / .dropped resolved at Register time.  Null (the default)
  /// disables them; BusStats is always maintained (non-owning; must outlive
  /// the bus).
  obs::MetricRegistry* metrics = nullptr;
};

struct BusStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t timers_fired = 0;
  std::uint64_t bytes = 0;
};

class InProcessBus {
 public:
  using MessageHandler = std::function<void(const Message&)>;
  using TimerHandler = std::function<void(std::uint64_t token)>;

  explicit InProcessBus(BusConfig config = {});

  /// Registers an endpoint; the returned id is the address used in
  /// Message::sender/receiver.  Handlers run during Deliver*/Run* calls.
  EndpointId Register(std::string name, MessageHandler on_message,
                      TimerHandler on_timer = nullptr);

  /// Queues a message for delivery after the configured delay (or drops it),
  /// with a copy of its payload bytes: SendAll on a one-message outbox.
  /// Aborts unless sender and receiver are registered endpoints.
  void Send(const Message& message);
  /// Send for each message of the outbox in order, through one admission
  /// pass.  The bus keeps copies of the messages and bytes it queues, so the
  /// caller may clear and refill `outbox` as soon as this returns.
  void SendAll(const Outbox& outbox);

  /// Failure injection: all messages to or from `endpoint` sent while
  /// now < until_ms are dropped (counted in stats().dropped).  Models a
  /// crashed/partitioned node; timers keep firing, so the node "recovers"
  /// with stale state — exactly what the price protocol must tolerate.
  void BlackoutEndpoint(EndpointId endpoint, double until_ms);

  /// True while the endpoint is inside a blackout window.
  bool IsBlackedOut(EndpointId endpoint) const;

  /// Crash-restart support (DESIGN.md §7.7): bumps the endpoint's
  /// incarnation when state behind it restarts (one task inside a
  /// controller host, one resource inside a shard agent) while the endpoint
  /// stays up.  Messages it sends from then on carry the new number, and
  /// anything it sent before (still in flight, or replayed from stale peer
  /// state) is identifiable as a lower incarnation.
  void BumpIncarnation(EndpointId endpoint);

  /// Current incarnation of the endpoint (0 until its first bump).
  std::uint32_t incarnation(EndpointId endpoint) const {
    return incarnation_[endpoint];
  }

  /// Schedules a timer at now + delay_ms for the endpoint; aborts unless
  /// delay_ms is finite and >= 0.
  void ScheduleTimer(EndpointId endpoint, double delay_ms,
                     std::uint64_t token);

  /// Delivers the next pending event; false if none.
  bool DeliverNext();

  /// Runs events until the queue empties or the virtual clock passes
  /// `until_ms` (events after the horizon stay queued).
  void RunUntil(double until_ms);

  /// Runs all pending events (must terminate: endpoints that keep
  /// rescheduling timers should use RunUntil).
  void RunAll();

  double now_ms() const { return now_ms_; }
  const BusStats& stats() const { return stats_; }
  /// Events queued in either lane.
  std::size_t pending() const {
    return heap_.size() + (fifo_drain_.events.size() - fifo_head_) +
           fifo_fill_.events.size();
  }
  const std::string& endpoint_name(EndpointId id) const {
    return endpoints_[id].name;
  }

 private:
  struct Endpoint {
    std::string name;
    MessageHandler on_message;
    TimerHandler on_timer;
    /// Per-endpoint counters (null when no registry is configured).
    obs::Counter* sent = nullptr;       ///< messages sent by this endpoint
    obs::Counter* delivered = nullptr;  ///< messages delivered to it
    obs::Counter* dropped = nullptr;    ///< drops it was party to
  };
  /// A jitter-free message waiting in the FIFO lane, constructed in place
  /// from the sent message and its stamped incarnation.  Its payload view
  /// is bound at dispatch to `offset` in its half's byte buffer.
  struct FifoEvent {
    FifoEvent(double at, std::uint64_t sequence, std::size_t byte_offset,
              const Message& sent, std::uint32_t incarnation)
        : at_ms(at), seq(sequence), offset(byte_offset), message(sent) {
      message.incarnation = incarnation;
    }

    double at_ms;
    std::uint64_t seq;
    std::size_t offset;
    Message message;
  };
  struct FifoHalf {
    std::vector<FifoEvent> events;
    std::string bytes;  ///< the payload bytes of `events`, back to back
  };
  /// A timer or jittered message waiting in the heap lane.
  struct HeapSlot {
    bool is_timer = false;
    EndpointId endpoint = 0;  // timers
    std::uint64_t token = 0;  // timers
    Message message;          // messages
    std::string bytes;        // the message's payload bytes
  };
  /// Heap entries are small and trivially copyable; events live in slots_.
  /// Both lanes order by (at_ms, seq); seq is unique, so the order is
  /// total.
  struct EventKey {
    double at_ms;
    std::uint64_t seq;  ///< tie-break for determinism
    std::size_t slot;
  };
  struct EventLater {
    bool operator()(const EventKey& a, const EventKey& b) const {
      if (a.at_ms != b.at_ms) return a.at_ms > b.at_ms;
      return a.seq > b.seq;
    }
  };

  /// Aborts (in every build) unless `endpoint` is registered.
  void CheckEndpoint(EndpointId endpoint, const char* what) const;
  /// Index of a slot of slots_ for a new event (a freed one when any).
  std::size_t AcquireSlot();
  /// The FIFO lane's earliest event, or null when the lane is empty.
  const FifoEvent* FifoFront() const;
  /// True when the FIFO lane holds the earliest pending event.
  bool FifoIsNext() const;
  /// The one path from Send to a handler: counts the delivery (or the drop
  /// when the receiver is blacked out) and hands the receiver the message,
  /// whose view points into bus-owned bytes.
  void Dispatch(double at_ms, const Message& message);

  BusConfig config_;
  Rng rng_;
  std::vector<Endpoint> endpoints_;
  std::vector<double> blackout_until_ms_;  ///< parallel to endpoints_
  std::vector<std::uint32_t> incarnation_;  ///< parallel to endpoints_
  /// The latest blackout expiry of any endpoint: no blackout is live while
  /// now_ms_ >= blackout_horizon_ms_.
  double blackout_horizon_ms_ = -1.0;
  /// Timers and jittered messages.
  std::priority_queue<EventKey, std::vector<EventKey>, EventLater> heap_;
  std::vector<HeapSlot> slots_;
  std::vector<std::size_t> free_slots_;
  /// The bytes of the heap message being dispatched, swapped out of its
  /// slot so the handler's sends may reuse the slot or grow slots_.
  std::string heap_dispatch_bytes_;
  /// Send's one-message outbox (SendAll runs no handler, so a handler's
  /// Send never finds it in use).
  Outbox send_outbox_;
  /// Messages sent with no jitter, in send order: fifo_drain_.events
  /// [fifo_head_..] then fifo_fill_.events.
  FifoHalf fifo_drain_;
  FifoHalf fifo_fill_;
  std::size_t fifo_head_ = 0;
  double now_ms_ = 0.0;
  std::uint64_t next_seq_ = 0;
  BusStats stats_;

  /// Global counters (null when no registry is configured).
  obs::Counter* sent_counter_ = nullptr;
  obs::Counter* delivered_counter_ = nullptr;
  obs::Counter* dropped_counter_ = nullptr;
  obs::Counter* delayed_counter_ = nullptr;
  obs::Counter* timers_counter_ = nullptr;

  void CountDrop(const Message& message);
};

}  // namespace lla::net
