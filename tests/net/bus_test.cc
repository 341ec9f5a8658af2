#include "net/bus.h"

#include <vector>

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace lla::net
