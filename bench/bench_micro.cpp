// Micro-benchmarks (google-benchmark) for the kernels whose cost the paper
// discusses qualitatively ("computation overhead induced by the optimizer is
// rather small", Sec. 6.4): one LLA iteration, its two half-steps, message
// serialization, and the discrete-event scheduler inner loop.
#include <benchmark/benchmark.h>

#include "core/engine.h"
#include "net/message.h"
#include "sim/ps_scheduler.h"
#include "sim/system_sim.h"
#include "workloads/paper.h"
#include "workloads/transform.h"

namespace lla {
namespace {

void BM_EngineStep(benchmark::State& state) {
  auto workload = MakeScaledSimWorkload(static_cast<int>(state.range(0)),
                                        /*scale_critical_times=*/true);
  const Workload& w = workload.value();
  LatencyModel model(w);
  LlaConfig config;
  config.record_history = false;
  LlaEngine engine(w, model, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Step());
  }
  state.SetLabel(std::to_string(w.subtask_count()) + " subtasks");
}
BENCHMARK(BM_EngineStep)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_LatencyAllocation(benchmark::State& state) {
  auto workload = MakeSimWorkload();
  const Workload& w = workload.value();
  LatencyModel model(w);
  LatencySolver solver(w, model);
  PriceVector prices = PriceVector::Uniform(w, 50.0, 1.0);
  Assignment latencies(w.subtask_count(), 0.0);
  for (auto _ : state) {
    solver.SolveAll(prices, &latencies);
    benchmark::DoNotOptimize(latencies.data());
  }
}
BENCHMARK(BM_LatencyAllocation);

void BM_PriceUpdate(benchmark::State& state) {
  auto workload = MakeSimWorkload();
  const Workload& w = workload.value();
  LatencyModel model(w);
  PriceUpdater updater(w, model);
  PriceVector prices = PriceVector::Uniform(w, 50.0, 1.0);
  const StepSchedule steps(StepPolicyKind::kFixed, /*gamma0=*/1.0,
                           /*cap=*/8.0, /*tau=*/50.0);
  Assignment latencies(w.subtask_count(), 12.0);
  for (auto _ : state) {
    updater.Update(latencies, steps, &prices);
    benchmark::DoNotOptimize(prices.mu.data());
  }
}
BENCHMARK(BM_PriceUpdate);

void BM_NonlinearUtilitySolve(benchmark::State& state) {
  // The coupled fixed-point path (quadratic utility) vs the linear closed
  // form measured by BM_LatencyAllocation.
  auto base = MakeSimWorkload();
  auto workload = Rebuild(base.value(), nullptr, [](TaskId, TaskSpec& spec) {
    spec.utility = Utility::Power(2.0 * spec.critical_time_ms,
                                  1.0 / spec.critical_time_ms, 2.0);
  });
  const Workload& w = workload.value();
  LatencyModel model(w);
  LatencySolver solver(w, model);
  PriceVector prices = PriceVector::Uniform(w, 50.0, 1.0);
  Assignment latencies(w.subtask_count(), 0.0);
  for (auto _ : state) {
    solver.SolveAll(prices, &latencies);
    benchmark::DoNotOptimize(latencies.data());
  }
}
BENCHMARK(BM_NonlinearUtilitySolve);

void BM_MessageSerialize(benchmark::State& state) {
  double latencies[8];
  for (int i = 0; i < 8; ++i) latencies[i] = 12.5 + i;
  auto arena = std::make_shared<std::string>();
  const net::ArenaSpan span =
      net::AppendShardLatencyPayload(latencies, 8, arena.get());
  net::ShardLatencyUpdate update;
  update.count = 8;
  update.payload = net::WireSlice(
      std::shared_ptr<const std::string>(std::move(arena)), span.offset,
      span.length);
  net::Message message;
  message.payload = std::move(update);
  for (auto _ : state) {
    auto bytes = net::Serialize(message);
    benchmark::DoNotOptimize(bytes.data());
  }
}
BENCHMARK(BM_MessageSerialize);

void BM_MessageRoundTrip(benchmark::State& state) {
  const double mu = 179.5;
  const std::uint8_t congested = 1;
  auto arena = std::make_shared<std::string>();
  const net::ArenaSpan span =
      net::AppendShardPricePayload(&mu, &congested, nullptr, 1, arena.get());
  net::Message message;
  message.payload = net::ShardPriceUpdate{
      3, 42, 1,
      net::WireSlice(std::shared_ptr<const std::string>(std::move(arena)),
                     span.offset, span.length)};
  const auto bytes = net::Serialize(message);
  for (auto _ : state) {
    auto decoded = net::Deserialize(bytes);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_MessageRoundTrip);

void BM_GpsSchedulerBusyPeriod(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::GpsScheduler gps(1.0);
    std::vector<int> ids;
    for (int i = 0; i < flows; ++i) ids.push_back(gps.AddFlow(1.0 + i % 3));
    std::uint64_t job = 0;
    for (int round = 0; round < 16; ++round) {
      for (int i = 0; i < flows; ++i) {
        gps.Enqueue(ids[i], {job++, 2.0, gps.now_ms()});
      }
      gps.AdvanceTo(gps.now_ms() + 2.0 * flows, nullptr);
    }
    benchmark::DoNotOptimize(gps.now_ms());
  }
}
BENCHMARK(BM_GpsSchedulerBusyPeriod)->Arg(4)->Arg(12)->Arg(32);

void BM_PrototypeSimulationSecond(benchmark::State& state) {
  auto workload = MakePrototypeWorkload();
  const Workload& w = workload.value();
  sim::SimConfig config;
  config.duration_ms = 1000.0;
  config.warmup_ms = 0.0;
  std::vector<double> shares(w.subtask_count());
  for (const SubtaskInfo& sub : w.subtasks()) {
    shares[sub.id.value()] = sub.min_share > 0.15 ? 0.2857 : 0.1643;
  }
  for (auto _ : state) {
    sim::SystemSimulator simulator(w, config);
    benchmark::DoNotOptimize(simulator.Run(shares).jobs_completed);
  }
}
BENCHMARK(BM_PrototypeSimulationSecond);

}  // namespace
}  // namespace lla

BENCHMARK_MAIN();
