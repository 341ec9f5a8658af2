#include "net/bus.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "obs/metrics.h"

namespace lla::net {
namespace {

Message Ping(EndpointId from, EndpointId to, double mu = 1.0) {
  Message message;
  message.sender = from;
  message.receiver = to;
  RepairResponse payload;
  payload.mu = mu;
  message.payload = std::move(payload);
  return message;
}

TEST(BusTest, DeliversInTimestampOrder) {
  BusConfig config;
  config.base_delay_ms = 1.0;
  InProcessBus bus(config);
  std::vector<double> received;
  const EndpointId a = bus.Register("a", [&](const Message& m) {
    received.push_back(std::get<RepairResponse>(m.payload).mu);
  });
  const EndpointId b = bus.Register("b", nullptr);
  bus.Send(Ping(b, a, 1.0));
  bus.Send(Ping(b, a, 2.0));
  bus.RunAll();
  ASSERT_EQ(received.size(), 2u);
  EXPECT_DOUBLE_EQ(received[0], 1.0);  // FIFO for equal timestamps
  EXPECT_DOUBLE_EQ(received[1], 2.0);
  EXPECT_DOUBLE_EQ(bus.now_ms(), 1.0);
}

TEST(BusTest, AppliesBaseDelay) {
  BusConfig config;
  config.base_delay_ms = 5.0;
  InProcessBus bus(config);
  double delivered_at = -1.0;
  const EndpointId a =
      bus.Register("a", [&](const Message&) { delivered_at = bus.now_ms(); });
  bus.Send(Ping(a, a));
  bus.RunAll();
  EXPECT_DOUBLE_EQ(delivered_at, 5.0);
}

TEST(BusTest, JitterIsDeterministicPerSeed) {
  auto trace = [](std::uint64_t seed) {
    BusConfig config;
    config.base_delay_ms = 1.0;
    config.jitter_ms = 4.0;
    config.seed = seed;
    InProcessBus bus(config);
    std::vector<double> times;
    const EndpointId a =
        bus.Register("a", [&](const Message&) { times.push_back(bus.now_ms()); });
    for (int i = 0; i < 20; ++i) bus.Send(Ping(a, a));
    bus.RunAll();
    return times;
  };
  EXPECT_EQ(trace(3), trace(3));
  EXPECT_NE(trace(3), trace(4));
}

TEST(BusTest, DropsMessagesAtConfiguredRate) {
  BusConfig config;
  config.drop_probability = 0.5;
  config.seed = 11;
  InProcessBus bus(config);
  int received = 0;
  const EndpointId a =
      bus.Register("a", [&](const Message&) { ++received; });
  const int sent = 2000;
  for (int i = 0; i < sent; ++i) bus.Send(Ping(a, a));
  bus.RunAll();
  EXPECT_EQ(bus.stats().sent, static_cast<std::uint64_t>(sent));
  EXPECT_EQ(bus.stats().delivered + bus.stats().dropped,
            static_cast<std::uint64_t>(sent));
  EXPECT_NEAR(static_cast<double>(received) / sent, 0.5, 0.05);
}

TEST(BusTest, RunUntilStopsAtHorizon) {
  BusConfig config;
  config.base_delay_ms = 10.0;
  InProcessBus bus(config);
  int received = 0;
  const EndpointId a =
      bus.Register("a", [&](const Message&) { ++received; });
  bus.Send(Ping(a, a));          // delivery at t=10
  bus.RunUntil(5.0);
  EXPECT_EQ(received, 0);
  EXPECT_EQ(bus.pending(), 1u);
  EXPECT_DOUBLE_EQ(bus.now_ms(), 5.0);
  bus.RunUntil(10.0);
  EXPECT_EQ(received, 1);
}

TEST(BusTest, TimersFireAndCanReschedule) {
  InProcessBus bus;
  int fired = 0;
  EndpointId a = 0;
  a = bus.Register("a", nullptr, [&](std::uint64_t token) {
    ++fired;
    if (token < 3) bus.ScheduleTimer(a, 1.0, token + 1);
  });
  bus.ScheduleTimer(a, 1.0, 1);
  bus.RunUntil(10.0);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(bus.stats().timers_fired, 3u);
}

TEST(BusTest, AccountsBytes) {
  InProcessBus bus;
  const EndpointId a = bus.Register("a", nullptr);
  Message message = Ping(a, a);
  bus.Send(message);
  EXPECT_EQ(bus.stats().bytes, WireSize(message));
}

TEST(BusTest, EndpointNames) {
  InProcessBus bus;
  const EndpointId a = bus.Register("alpha", nullptr);
  EXPECT_EQ(bus.endpoint_name(a), "alpha");
}

TEST(BusTest, DropIncrementsGlobalAndBothEndpointCounters) {
  // Regression: CountDrop used to nest the per-endpoint increments inside
  // the global counter's null check; the three counters are independent and
  // must each tick on a drop (sender, receiver, and global).
  obs::MetricRegistry metrics;
  BusConfig config;
  config.metrics = &metrics;
  InProcessBus bus(config);
  const EndpointId a = bus.Register("a", nullptr);
  const EndpointId b = bus.Register("b", nullptr);
  bus.BlackoutEndpoint(b, 100.0);
  bus.Send(Ping(a, b));
  EXPECT_EQ(metrics.GetCounter("bus.dropped")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("bus.endpoint.a.dropped")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("bus.endpoint.b.dropped")->value(), 1u);
  // The send itself was still accounted before the drop decision.
  EXPECT_EQ(metrics.GetCounter("bus.sent")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("bus.endpoint.a.sent")->value(), 1u);
  EXPECT_EQ(bus.stats().dropped, 1u);
}

TEST(BusTest, StampsSenderIncarnationOnSend) {
  InProcessBus bus;
  std::vector<std::uint32_t> seen;
  EndpointId a = 0;
  const EndpointId b = bus.Register(
      "b", [&](const Message& m) { seen.push_back(m.incarnation); });
  a = bus.Register("a", nullptr);
  EXPECT_EQ(bus.incarnation(a), 0u);
  bus.Send(Ping(a, b));
  bus.RunAll();
  bus.CrashEndpoint(a);
  bus.RestartEndpoint(a);
  bus.RestartEndpoint(a);  // a second restart keeps counting up
  EXPECT_EQ(bus.incarnation(a), 2u);
  bus.Send(Ping(a, b));
  bus.RunAll();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 0u);
  EXPECT_EQ(seen[1], 2u);
}

TEST(BusTest, CrashedEndpointDropsTrafficUntilRestart) {
  BusConfig config;
  config.base_delay_ms = 1.0;
  InProcessBus bus(config);
  int received = 0;
  const EndpointId a = bus.Register("a", [&](const Message&) { ++received; });
  const EndpointId b = bus.Register("b", nullptr);

  bus.CrashEndpoint(a);
  EXPECT_TRUE(bus.IsBlackedOut(a));
  bus.Send(Ping(b, a));  // toward the crashed endpoint
  bus.Send(Ping(a, b));  // from the crashed endpoint
  bus.RunAll();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(bus.stats().dropped, 2u);

  // Unlike BlackoutEndpoint, the crash is open-ended: it survives any
  // amount of virtual time until an explicit restart.
  bus.RunUntil(1e12);
  EXPECT_TRUE(bus.IsBlackedOut(a));

  bus.RestartEndpoint(a);
  EXPECT_FALSE(bus.IsBlackedOut(a));
  bus.Send(Ping(b, a));
  bus.RunAll();
  EXPECT_EQ(received, 1);
}

TEST(BusTest, InFlightMessageDropsWhenReceiverCrashesBeforeDelivery) {
  BusConfig config;
  config.base_delay_ms = 10.0;
  InProcessBus bus(config);
  int received = 0;
  const EndpointId a = bus.Register("a", [&](const Message&) { ++received; });
  const EndpointId b = bus.Register("b", nullptr);
  bus.Send(Ping(b, a));  // delivery would be at t=10
  bus.RunUntil(5.0);
  bus.CrashEndpoint(a);
  bus.RunAll();  // delivery attempt happens while a is down
  EXPECT_EQ(received, 0);
  EXPECT_EQ(bus.stats().dropped, 1u);
}

TEST(BusTest, TimersAndMessagesAtOneInstantRunInSendOrder) {
  // A message, a timer and a message all due at one at_ms: messages and
  // timers wait in different lanes, and delivery still follows issue order.
  for (const double delay : {0.0, 1.0}) {
    SCOPED_TRACE(delay);
    BusConfig config;
    config.base_delay_ms = delay;
    InProcessBus bus(config);
    std::vector<int> order;
    std::vector<double> at;
    const EndpointId a = bus.Register(
        "a",
        [&](const Message& m) {
          order.push_back(static_cast<int>(
              std::get<RepairResponse>(m.payload).mu));
          at.push_back(bus.now_ms());
        },
        [&](std::uint64_t token) {
          order.push_back(static_cast<int>(token));
          at.push_back(bus.now_ms());
        });
    bus.Send(Ping(a, a, 0.0));
    bus.ScheduleTimer(a, delay, 1);
    bus.Send(Ping(a, a, 2.0));
    EXPECT_EQ(bus.pending(), 3u);
    bus.RunAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(at, (std::vector<double>(3, delay)));
    EXPECT_EQ(bus.pending(), 0u);
  }
}

TEST(BusTest, RandomizedTrafficKeepsOneTotalOrder) {
  // Handlers send messages and schedule timers with delays from {0, 0.5, 1}
  // while the test alternates RunUntil horizons with single deliveries.
  // Whatever lane an event waits in, the bus must deliver every event once,
  // in (time, issue order), and count exactly what is still queued.
  constexpr double kDelays[] = {0.0, 0.5, 1.0};
  constexpr std::uint64_t kBudget = 400;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    for (const double jitter : {0.0, 0.7}) {
      for (const double base : kDelays) {
        SCOPED_TRACE(testing::Message() << "seed " << seed << " jitter "
                                        << jitter << " base " << base);
        BusConfig config;
        config.base_delay_ms = base;
        config.jitter_ms = jitter;
        config.seed = seed;
        InProcessBus bus(config);
        Rng rng(seed + 100);
        std::uint64_t issued = 0;
        std::vector<double> delivered_at;  // by issue id; NaN until delivered
        std::vector<int> deliveries;       // by issue id
        std::vector<std::uint64_t> order;  // issue ids in delivery order
        EndpointId a = 0;
        const auto issue = [&] {
          const std::uint64_t id = issued++;
          delivered_at.push_back(std::numeric_limits<double>::quiet_NaN());
          deliveries.push_back(0);
          if (rng.NextDouble() < 0.5) {
            bus.Send(Ping(a, a, static_cast<double>(id)));
          } else {
            bus.ScheduleTimer(a, kDelays[rng.Next() % 3], id);
          }
        };
        const auto on_event = [&](std::uint64_t id) {
          ASSERT_LT(id, issued);
          ++deliveries[id];
          delivered_at[id] = bus.now_ms();
          if (!order.empty()) {
            const double last = delivered_at[order.back()];
            EXPECT_GE(bus.now_ms(), last);
            if (bus.now_ms() == last) {
              EXPECT_GT(id, order.back());
            }
          }
          order.push_back(id);
          EXPECT_EQ(bus.pending(), issued - order.size());
          const int spawn = static_cast<int>(rng.Next() % 3);
          for (int k = 0; k < spawn && issued < kBudget; ++k) issue();
        };
        a = bus.Register(
            "a",
            [&](const Message& m) {
              on_event(static_cast<std::uint64_t>(
                  std::get<RepairResponse>(m.payload).mu));
            },
            on_event);
        for (int k = 0; k < 20; ++k) issue();
        while (bus.pending() > 0) {
          if (rng.NextDouble() < 0.3) {
            ASSERT_TRUE(bus.DeliverNext());
            continue;
          }
          const double horizon = bus.now_ms() + kDelays[rng.Next() % 3];
          const std::size_t before = order.size();
          bus.RunUntil(horizon);
          EXPECT_EQ(bus.now_ms(), horizon);
          for (std::size_t k = before; k < order.size(); ++k) {
            EXPECT_LE(delivered_at[order[k]], horizon);
          }
          // Exactly the events due after the horizon stay queued: all of
          // them, and the next delivery (so, by the order checked above,
          // every later one) is strictly after it.
          EXPECT_EQ(bus.pending(),
                    static_cast<std::size_t>(std::count(
                        deliveries.begin(), deliveries.end(), 0)));
          if (bus.DeliverNext()) {
            EXPECT_GT(delivered_at[order.back()], horizon);
          }
        }
        EXPECT_FALSE(bus.DeliverNext());
        EXPECT_EQ(order.size(), issued);
        for (std::uint64_t id = 0; id < issued; ++id) {
          EXPECT_EQ(deliveries[id], 1) << "event " << id;
        }
        EXPECT_EQ(bus.stats().delivered + bus.stats().timers_fired, issued);
      }
    }
  }
}

// A latency update viewing `bytes` (the bus never decodes payloads).
Message BytesMessage(EndpointId from, EndpointId to, const std::string& bytes) {
  Message message;
  message.sender = from;
  message.receiver = to;
  message.payload = ShardLatencyUpdate{TaskId(0u), 0, 0,
                                       WireSlice(bytes.data(), bytes.size())};
  return message;
}

std::string PayloadOf(const Message& message) {
  const WireSlice* bytes = PayloadBytes(message.payload);
  return std::string(bytes->data(), bytes->size());
}

// The bus owns every payload from Send to delivery, and a handler's view
// stays valid for its whole call: sends made inside the handler, enough to
// grow every buffer the bus has, never move the bytes it is reading.  Both
// lanes, with payloads on both sides of std::string's inline capacity, and
// with the messages admitted one by one or from an outbox.
TEST(BusTest, HandlerSendsNeverMoveThePayloadItReads) {
  for (const bool outboxed : {false, true}) {
    for (const double jitter : {0.0, 0.5}) {
      for (const std::size_t size : {5u, 300u}) {
        SCOPED_TRACE(testing::Message() << "outboxed " << outboxed
                                        << " jitter " << jitter << " size "
                                        << size);
        BusConfig config;
        config.jitter_ms = jitter;
        InProcessBus bus(config);
        std::string sent(size, '\0');
        for (std::size_t i = 0; i < size; ++i) {
          sent[i] = static_cast<char>('a' + i % 26);
        }
        const std::string filler(400, 'z');
        Outbox outbox;
        int first = 0;
        EndpointId a = 0;
        a = bus.Register("a", [&](const Message& m) {
          if (first++ != 0) return;
          const WireSlice* bytes = PayloadBytes(m.payload);
          const char* before = bytes->data();
          if (outboxed) {
            outbox.clear();
            for (int k = 0; k < 2000; ++k) {
              outbox.Push(BytesMessage(a, a, filler));
            }
            bus.SendAll(outbox);
          } else {
            for (int k = 0; k < 2000; ++k) {
              bus.Send(BytesMessage(a, a, filler));
            }
          }
          EXPECT_EQ(bytes->data(), before);
          EXPECT_EQ(PayloadOf(m), sent);
        });
        if (outboxed) {
          outbox.Push(BytesMessage(a, a, sent));
          bus.SendAll(outbox);
        } else {
          bus.Send(BytesMessage(a, a, sent));
        }
        bus.RunAll();
        EXPECT_EQ(first, 2001);
      }
    }
  }
}

// An outbox of mixed shard and repair messages admitted by SendAll is
// indistinguishable from the same messages sent one at a time: the same
// BusStats, the same deliveries (receiver, time, sender, incarnation) and
// the same bytes, under drops, jitter and a live blackout.  The outbox is
// cleared and refilled right after each SendAll while its messages are
// still queued, and every delivered payload is one that was sent.
TEST(BusTest, OutboxAdmissionMatchesSendingOneByOne) {
  struct Delivery {
    EndpointId receiver;
    double at_ms;
    EndpointId sender;
    std::uint32_t incarnation;
    std::size_t kind;
    std::string bytes;

    bool operator==(const Delivery&) const = default;
  };
  // Round r's messages among endpoints a, b and c; every payload is
  // distinct, so delivered bytes identify what was sent.
  const auto fill = [](int round, EndpointId a, EndpointId b, EndpointId c,
                       Outbox* outbox, std::vector<std::string>* sent) {
    std::string entries;
    for (int k = 0; k < 12; ++k) {
      const double base = 100.0 * round + k;
      const double values[3] = {base, base + 0.5, base + 0.5};
      const std::uint8_t flags[3] = {1, 0, 1};
      const EndpointId from = k % 3 == 0 ? a : (k % 3 == 1 ? b : c);
      const EndpointId to = k % 2 == 0 ? c : a;
      switch (k % 4) {
        case 0: {
          const PayloadSpan span =
              AppendShardLatencyPayload(values, 3, outbox->bytes());
          ShardLatencyUpdate& update =
              outbox->Add<ShardLatencyUpdate>(from, to, span);
          update.task = TaskId(static_cast<std::uint32_t>(k));
          update.count = 3;
          break;
        }
        case 1: {
          const PayloadSpan span = AppendShardPricePayload(
              values, flags, flags, 3, outbox->bytes());
          ShardPriceUpdate& update =
              outbox->Add<ShardPriceUpdate>(from, to, span);
          update.epoch = static_cast<std::uint32_t>(round);
          update.count = 3;
          break;
        }
        case 2:
          outbox->Add<RepairRequest>(from, to).resource =
              ResourceId(static_cast<std::uint32_t>(k));
          break;
        default: {
          entries.clear();
          AppendRepairEntry(SubtaskId(static_cast<std::uint32_t>(k)), base,
                            &entries);
          Message repair = Ping(from, to, base);
          std::get<RepairResponse>(repair.payload).entries =
              WireSlice(entries.data(), entries.size());
          outbox->Push(repair);
          break;
        }
      }
      const Message bound = outbox->message(outbox->size() - 1);
      if (const WireSlice* bytes = PayloadBytes(bound.payload)) {
        sent->emplace_back(bytes->data(), bytes->size());
      }
    }
  };
  const auto run = [&](double jitter, bool batched,
                       std::vector<Delivery>* deliveries,
                       std::vector<std::string>* sent) {
    BusConfig config;
    config.base_delay_ms = 0.25;
    config.jitter_ms = jitter;
    config.drop_probability = 0.3;
    config.seed = 5;
    InProcessBus bus(config);
    const auto record = [&](const Message& m) {
      const WireSlice* bytes = PayloadBytes(m.payload);
      deliveries->push_back(
          {m.receiver, bus.now_ms(), m.sender, m.incarnation,
           m.payload.index(),
           bytes != nullptr ? std::string(bytes->data(), bytes->size())
                            : std::string()});
    };
    const EndpointId a = bus.Register("a", record);
    const EndpointId b = bus.Register("b", record);
    const EndpointId c = bus.Register("c", record);
    bus.RestartEndpoint(c);      // c sends as incarnation 1
    bus.BlackoutEndpoint(b, 0.5);  // live through the first two rounds
    Outbox outbox;
    for (int round = 0; round < 4; ++round) {
      outbox.clear();
      fill(round, a, b, c, &outbox, sent);
      if (batched) {
        bus.SendAll(outbox);
      } else {
        for (std::size_t i = 0; i < outbox.size(); ++i) {
          bus.Send(outbox.message(i));
        }
      }
      // Less than the base delay: this round's messages are still queued
      // when the next round clears and refills the outbox.
      bus.RunUntil(bus.now_ms() + 0.2);
    }
    bus.RunAll();
    return bus.stats();
  };
  // Without jitter every message takes the FIFO lane, with it the heap.
  for (const double jitter : {0.0, 0.7}) {
    SCOPED_TRACE(jitter);
    std::vector<Delivery> batched, one_by_one;
    std::vector<std::string> sent, sent_again;
    const BusStats batched_stats = run(jitter, true, &batched, &sent);
    const BusStats one_by_one_stats =
        run(jitter, false, &one_by_one, &sent_again);
    EXPECT_EQ(batched_stats.sent, one_by_one_stats.sent);
    EXPECT_EQ(batched_stats.delivered, one_by_one_stats.delivered);
    EXPECT_EQ(batched_stats.dropped, one_by_one_stats.dropped);
    EXPECT_EQ(batched_stats.bytes, one_by_one_stats.bytes);
    EXPECT_EQ(batched_stats.sent, 48u);
    EXPECT_GT(batched_stats.delivered, 0u);
    EXPECT_GT(batched_stats.dropped, 0u);
    EXPECT_EQ(batched, one_by_one);
    for (const Delivery& delivery : batched) {
      if (delivery.kind == 0) continue;  // a RepairRequest carries no bytes
      EXPECT_NE(std::find(sent.begin(), sent.end(), delivery.bytes),
                sent.end());
    }
  }
}

// A sender may reuse its encode buffer as soon as Send returns: the bus
// delivers the bytes it copied, on the FIFO lane and for jittered messages
// that wait on the heap behind later sends.
TEST(BusTest, DeliversTheBytesSentAfterTheSenderReusesItsBuffer) {
  for (const double jitter : {0.0, 4.0}) {
    SCOPED_TRACE(jitter);
    BusConfig config;
    config.base_delay_ms = 1.0;
    config.jitter_ms = jitter;
    config.seed = 7;
    InProcessBus bus(config);
    std::vector<std::string> received;
    const EndpointId a = bus.Register(
        "a", [&](const Message& m) { received.push_back(PayloadOf(m)); });
    std::string buffer;
    std::vector<std::string> sent;
    for (int k = 0; k < 20; ++k) {
      buffer.assign(static_cast<std::size_t>(8 + k),
                    static_cast<char>('A' + k));
      bus.Send(BytesMessage(a, a, buffer));
      sent.push_back(buffer);
      buffer.assign(buffer.size(), '#');  // overwritten before delivery
    }
    bus.RunAll();
    ASSERT_EQ(received.size(), sent.size());
    std::sort(received.begin(), received.end());
    std::sort(sent.begin(), sent.end());
    EXPECT_EQ(received, sent);
  }
}

TEST(BusTest, RepairResponseEntriesCrossTheBusIntact) {
  for (const double jitter : {0.0, 0.5}) {
    SCOPED_TRACE(jitter);
    BusConfig config;
    config.jitter_ms = jitter;
    InProcessBus bus(config);
    std::vector<RepairEntry> received;
    const EndpointId a = bus.Register("a", [&](const Message& m) {
      const auto& repair = std::get<RepairResponse>(m.payload);
      EXPECT_EQ(repair.mu, 2.5);
      for (std::size_t i = 0; i < repair.entry_count(); ++i) {
        received.push_back(repair.entry(i));
      }
    });
    std::string entries;
    AppendRepairEntry(SubtaskId(4u), 1.25, &entries);
    AppendRepairEntry(SubtaskId(0xfffffffeu), -0.0, &entries);
    AppendRepairEntry(SubtaskId(9u), 1e300, &entries);
    Message message = Ping(a, a, 2.5);
    std::get<RepairResponse>(message.payload).entries =
        WireSlice(entries.data(), entries.size());
    bus.Send(message);
    entries.assign(entries.size(), '\0');
    EXPECT_EQ(bus.stats().bytes, 38u + 3 * kRepairEntryBytes);
    bus.RunAll();
    ASSERT_EQ(received.size(), 3u);
    EXPECT_EQ(received[0].subtask, SubtaskId(4u));
    EXPECT_EQ(received[0].latency_ms, 1.25);
    EXPECT_EQ(received[1].subtask, SubtaskId(0xfffffffeu));
    EXPECT_TRUE(std::signbit(received[1].latency_ms));
    EXPECT_EQ(received[2].subtask, SubtaskId(9u));
    EXPECT_EQ(received[2].latency_ms, 1e300);
  }
}

// The configuration and endpoint checks abort in every build, not only
// where assert() is compiled in.
TEST(BusDeathTest, RejectsNegativeOrNaNBaseDelay) {
  for (const double bad : {-1.0, std::nan(""),
                           std::numeric_limits<double>::infinity()}) {
    BusConfig config;
    config.base_delay_ms = bad;
    EXPECT_DEATH(InProcessBus{config}, "base_delay_ms");
  }
}

TEST(BusDeathTest, RejectsNegativeOrNaNJitter) {
  for (const double bad : {-0.5, std::nan(""),
                           std::numeric_limits<double>::infinity()}) {
    BusConfig config;
    config.jitter_ms = bad;
    EXPECT_DEATH(InProcessBus{config}, "jitter_ms");
  }
}

TEST(BusDeathTest, RejectsDropProbabilityOutsideUnitInterval) {
  for (const double bad : {-0.1, 1.5, std::nan("")}) {
    BusConfig config;
    config.drop_probability = bad;
    EXPECT_DEATH(InProcessBus{config}, "drop_probability");
  }
}

TEST(BusDeathTest, RejectsNegativeOrNonFiniteTimerDelay) {
  for (const double bad : {-1.0, std::nan(""),
                           std::numeric_limits<double>::infinity()}) {
    InProcessBus bus;
    const EndpointId a = bus.Register("a", nullptr);
    EXPECT_DEATH(bus.ScheduleTimer(a, bad, 1), "timer delay_ms");
  }
}

TEST(BusDeathTest, RejectsUnregisteredEndpoints) {
  InProcessBus bus;
  const EndpointId a = bus.Register("a", nullptr);
  const EndpointId ghost = a + 1;
  EXPECT_DEATH(bus.Send(Ping(ghost, a)), "not registered");
  EXPECT_DEATH(bus.Send(Ping(a, ghost)), "not registered");
  EXPECT_DEATH(bus.ScheduleTimer(ghost, 1.0, 1), "not registered");
  EXPECT_DEATH(bus.BlackoutEndpoint(ghost, 1.0), "not registered");
  EXPECT_DEATH(bus.CrashEndpoint(ghost), "not registered");
  EXPECT_DEATH(bus.RestartEndpoint(ghost), "not registered");
  EXPECT_DEATH(bus.BumpIncarnation(ghost), "not registered");
}

}  // namespace
}  // namespace lla::net
