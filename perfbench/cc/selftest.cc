// Tests of the benchmark's own helpers: the tail-percentile rule, the FIFO
// replay and max_rate_in_limit search against hand-computed queues, the
// dual-value and gap helper on a small instance, and the churn stream's
// band.  Exit code 0 when every check passes.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

#include "churn_stream.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/latency_solver.h"
#include "gap.h"
#include "probe.h"
#include "stats.h"
#include "workloads/random.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what);
  }
}

bool Near(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b));
}

// 1..n in a shuffled order, so a rank's value is the rank itself.
std::vector<double> Shuffled(std::size_t n) {
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 1.0);
  lla::Rng rng(n);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(values[i - 1], values[rng.Below(i)]);
  }
  return values;
}

void TestTailRule() {
  using perfbench::TailOf;
  // Fewer than 20 samples: even p50 has under 10 beyond; report p50.
  perfbench::Tail tail = TailOf(Shuffled(9));
  Check(tail.percentile == 50.0 && tail.beyond == 4 && tail.value == 5.0,
        "9 samples report p50 (rank 5, 4 beyond)");
  tail = TailOf(Shuffled(20));
  Check(tail.percentile == 50.0 && tail.beyond == 10 && tail.value == 10.0,
        "20 samples: p50 with exactly 10 beyond");
  tail = TailOf(Shuffled(99));
  Check(tail.percentile == 50.0, "99 samples: p90 would have only 9 beyond");
  tail = TailOf(Shuffled(100));
  Check(tail.level == 1 && tail.percentile == 90.0 && tail.beyond == 10 &&
            tail.value == 90.0,
        "100 samples: p90 is rank 90 with 10 beyond");
  tail = TailOf(Shuffled(999));
  Check(tail.percentile == 90.0 && tail.beyond == 99 && tail.value == 900.0,
        "999 samples: p99 would have only 9 beyond");
  tail = TailOf(Shuffled(1000));
  Check(tail.level == 2 && tail.percentile == 99.0 && tail.beyond == 10 &&
            tail.value == 990.0,
        "1000 samples: p99 is rank 990 with 10 beyond");
  tail = TailOf(Shuffled(100000));
  Check(tail.percentile == 99.99 && tail.value == 99990.0,
        "100000 samples: p99.99");
  Check(perfbench::AtLadder(Shuffled(1000), 1) == 900.0,
        "AtLadder rung 1 of 1000 is rank 900");
  Check(perfbench::Median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even-count median");
}

void TestFifoReplay() {
  // Completions 2, 4, 6 (queued back to back), then idle until 10 -> 11.
  const std::vector<double> latency =
      perfbench::FifoReplay({0.0, 1.0, 2.0, 10.0}, {2.0, 2.0, 2.0, 1.0});
  Check(latency == std::vector<double>({2.0, 3.0, 4.0, 1.0}),
        "FIFO latencies 2, 3, 4, 1");
  Check(perfbench::ArrivalsAtRate({1.0, 1.0, 2.0}, 2.0) ==
            std::vector<double>({500.0, 1000.0, 2000.0}),
        "arrivals at 2/s from unit gaps 1, 1, 2");
  Check(Near(perfbench::Capacity({10.0, 10.0, 10.0, 10.0}), 100.0, 1e-12),
        "capacity of 10 ms ops is 100/s");
}

void TestMaxRate() {
  // Ops of 10 ms arriving in pairs: the second of a pair comes 500/rate ms
  // after the first and the next pair 1500/rate ms later.  Capacity 100/s;
  // below it the first op takes 10 ms and the second max(10, 20 - 500/rate),
  // which is also the p90.
  const std::size_t n = 1000;
  std::vector<double> gaps(n), service(n, 10.0);
  for (std::size_t k = 0; k < n; ++k) gaps[k] = k % 2 == 0 ? 1.5 : 0.5;
  // p90 <= 12.5 ms  <=>  rate <= 500 / 7.5.
  Check(Near(perfbench::MaxRateInLimit(gaps, service, 12.5, 1), 500.0 / 7.5,
             1e-6),
        "max rate with p90 <= 12.5 ms is 66.67/s");
  // p90 <= 15 ms holds up to capacity, which bounds the answer.
  Check(Near(perfbench::MaxRateInLimit(gaps, service, 15.0, 1), 100.0, 1e-9),
        "a loose limit stops at capacity");
  // Even an idle server misses a 9 ms limit.
  Check(perfbench::MaxRateInLimit(gaps, service, 9.0, 1) == 0.0,
        "a limit below the service time gives 0");
  // The p50 of the same queue is the first op's 10 ms at every rate.
  Check(Near(perfbench::MaxRateInLimit(gaps, service, 10.5, 0), 100.0, 1e-9),
        "p50 stays at 10 ms up to capacity");
}

void TestProbeScale() {
  // One probe a second for 10 s; the host halves its speed from t = 6 s.
  perfbench::HostProbe probe;
  const std::int64_t second = 1000000000;
  for (int t = 0; t <= 10; ++t) probe.Add(t * second, t >= 6 ? 8.0 : 4.0);
  const double ref = perfbench::HostProbe::kReferenceMs;
  Check(probe.ScaleAt(0) == ref / 4.0, "probes within 5 s of t = 0 all read 4");
  Check(probe.ScaleAt(10 * second) == ref / 8.0,
        "from t = 5 s to 10 s the median probe reads 8");
  Check(probe.ScaleAt(100 * second) == ref / 8.0 &&
            probe.ScaleAt(-100 * second) == ref / 4.0,
        "far from every probe the nearest one sets the scale");
  Check(probe.MedianMs() == 4.0, "median probe time");
}

void TestGap() {
  lla::RandomWorkloadConfig shape;
  shape.seed = 3;
  shape.num_resources = 4;
  shape.num_tasks = 3;
  shape.min_subtasks = 2;
  shape.max_subtasks = 3;
  auto made = lla::MakeRandomWorkload(shape);
  Check(made.ok(), "small instance builds");
  if (!made.ok()) return;
  const lla::Workload& workload = made.value();
  const lla::LatencyModel model(workload);
  const lla::UtilityVariant variant = lla::UtilityVariant::kPathWeighted;

  // The generator's witness: equal split of every resource is feasible.
  lla::Assignment equal_split(workload.subtask_count());
  for (const lla::ResourceInfo& resource : workload.resources()) {
    const double share =
        resource.capacity / static_cast<double>(resource.subtasks.size());
    for (lla::SubtaskId s : resource.subtasks) {
      equal_split[s.value()] = model.share(s).LatencyForShare(share);
    }
  }
  Check(lla::CheckFeasibility(workload, model, equal_split).feasible,
        "equal split is feasible");
  const double witness = lla::TotalUtility(workload, equal_split, variant);

  lla::LlaConfig config;
  config.gamma0 = 3.0;
  config.record_history = false;
  lla::LlaEngine engine(workload, model, config);
  const lla::RunResult run = engine.Run(12000);
  Check(run.converged, "engine converges on the small instance");

  lla::Rng rng(11);
  std::vector<lla::PriceVector> price_sets = {engine.prices(),
                                              lla::PriceVector::Zero(workload)};
  for (int i = 0; i < 20; ++i) {
    lla::PriceVector prices = lla::PriceVector::Zero(workload);
    for (double& mu : prices.mu) mu = rng.Uniform(0.0, 50.0);
    for (double& lambda : prices.lambda) lambda = rng.Uniform(0.0, 2.0);
    price_sets.push_back(prices);
  }
  lla::LatencySolverConfig solver_config;
  solver_config.variant = variant;
  const lla::LatencySolver solver(workload, model, solver_config);
  for (const lla::PriceVector& prices : price_sets) {
    const double dual = perfbench::DualValue(workload, model, prices, variant);
    // Weak duality against the feasible witness.
    Check(dual >= witness - 1e-9 * std::abs(witness),
          "D(prices) >= utility of a feasible assignment");
    // D is the maximum of the Lagrangian over the latency box.
    lla::Assignment best(workload.subtask_count());
    solver.SolveAll(prices, &best);
    Check(perfbench::Lagrangian(workload, model, prices, best, variant) ==
              dual,
          "D is the Lagrangian at the solver's maximiser");
    for (int trial = 0; trial < 50; ++trial) {
      lla::Assignment other = best;
      for (const lla::SubtaskInfo& sub : workload.subtasks()) {
        const double lo = solver.LatLo(sub.id), hi = solver.LatHi(sub.id);
        const double moved = best[sub.id.value()] *
                             (1.0 + rng.Uniform(-0.05, 0.05));
        other[sub.id.value()] = std::clamp(moved, lo, hi);
      }
      Check(perfbench::Lagrangian(workload, model, prices, other, variant) <=
                dual + 1e-9 * std::abs(dual),
            "no point of the box beats the maximiser");
    }
  }
  const double utility =
      lla::TotalUtility(workload, engine.latencies(), variant);
  const double gap = perfbench::GapPpm(
      perfbench::DualValue(workload, model, engine.prices(), variant), utility);
  Check(gap >= 0.0 && gap < 1e4, "converged engine certifies within 1%");
  Check(perfbench::GapPpm(101.0, 100.0) == 1e4 &&
            perfbench::GapPpm(99.0, 100.0) == 1e4 &&
            perfbench::GapPpm(-99.0, -100.0) == 1e4,
        "GapPpm is |D - U| / |U| in ppm");
}

void TestChurnBand() {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    perfbench::ChurnStreamConfig config;
    config.seed = seed;
    auto stream = perfbench::ChurnStream::Create(config);
    auto replay = perfbench::ChurnStream::Create(config);
    Check(stream.ok() && replay.ok(), "stream builds");
    if (!stream.ok() || !replay.ok()) return;
    // Any admission outcome: joins admitted at random, and in the last
    // quarter always (pushes against the upper edge), leaves always apply.
    lla::Rng outcomes(seed + 100);
    std::size_t live = 12;
    bool inside = true, same = true;
    std::size_t kinds[3] = {0, 0, 0};
    const int length = 200000;
    for (int m = 0; m < length; ++m) {
      const lla::runtime::ChurnMutation mutation = stream.value().Next(live);
      const lla::runtime::ChurnMutation again = replay.value().Next(live);
      same = same && mutation.kind == again.kind &&
             mutation.leave_index == again.leave_index &&
             mutation.subtask_index == again.subtask_index &&
             mutation.wcet_error_ms == again.wcet_error_ms &&
             mutation.join_task.name == again.join_task.name;
      ++kinds[static_cast<int>(mutation.kind)];
      if (mutation.kind == lla::runtime::ChurnKind::kJoin &&
          (m > 3 * length / 4 || outcomes.NextDouble() < 0.5)) {
        ++live;
      } else if (mutation.kind == lla::runtime::ChurnKind::kLeave) {
        --live;
      }
      inside = inside && live >= config.min_live && live <= config.max_live;
    }
    Check(inside, "live count stays in [min_live, max_live]");
    Check(same, "the stream is a function of its seed and the live counts");
    Check(kinds[2] > length / 4 && kinds[2] < 7 * length / 20,
          "WCET corrections keep their 30% share");
  }
}

}  // namespace

int main() {
  TestTailRule();
  TestFifoReplay();
  TestMaxRate();
  TestProbeScale();
  TestGap();
  TestChurnBand();
  std::printf("%s (%d failed)\n",
              failures == 0 ? "selftest ok" : "selftest FAILED", failures);
  return failures == 0 ? 0 : 1;
}
