// bench_scale — the 10^3 / 10^4 / 10^5 / 10^6-subtask scale tier.
//
// For each size of the random_100k family (ScaledRandomWorkloadConfig) this
// records into BENCH_scale.json:
//   * workload generation time and engine solve throughput (dense-mode
//     steps/sec, plus final utility/feasibility after a bounded run),
//   * b1 snapshot size against the same sections stored raw, save and load
//     time, plus the file restore time (DESIGN.md §7.10-11),
//   * coordinator sync-round latency (mean and p50/p99), messages/round and
//     bytes/round at one shard per resource (the paper's one agent per
//     resource) vs. 8 multi-resource shards, and a round-threads sweep of
//     the parallel coordinator rounds (controller solves and shard price
//     computations fanned out, delivery serial) with per-row
//     effective_threads / clamped stamps,
//   * where a serial 8-shard round goes: the share of coordinator.sync_round
//     spent in each of its five coordinator.* phase timers (DESIGN.md §7.4),
//     read from a registry attached to the coordinator alone, so the bus
//     counts nothing per message.
//
// The random_1m tier runs 8 shards only (one shard per resource would
// queue ~2M messages per round) and is skipped in --quick mode to keep the
// CI job bounded; its full-mode run demonstrates that a 10^6-subtask round
// completes without exhausting memory.
//
// Acceptance gates (failure exits 1): on every tier, the five phases cover
// >= 95% of the round (the rest is the round counter and the timers
// themselves; a lower sum means the round grew work no phase times);
// evaluated on random_100k:
//   * the b1 snapshot >= 5x smaller than its sections stored raw
//     (sum of count * element width over the parsed section table),
//   * the b1 round-trip bitwise-lossless,
//   * the 8-shard coordinator uses fewer messages per round than one shard
//     per resource and ends within 1e-9 relative utility of it (sync rounds
//     are numerically identical; the pin guards the claim),
//   * the zero-copy wire path moves strictly fewer bytes per round than the
//     id-carrying PR 8 format would on the same workload (analytic),
//   * parallel rounds at 4 threads are >= 2x faster than the serial round —
//     suppressed (not failed) when the host has < 4 hardware threads, where
//     every width clamps and the ratio is meaningless; the CI bench matrix
//     runs on >= 4-thread runners, so the gate is real there.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "model/serialization.h"
#include "obs/metrics.h"
#include "runtime/coordinator.h"
#include "workloads/random.h"

using namespace lla;

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-`reps` timing of `fn`, in milliseconds.
template <typename Fn>
double BestMs(Fn&& fn, int reps = 3) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const double start = NowSeconds();
    fn();
    const double elapsed = (NowSeconds() - start) * 1e3;
    if (rep == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

/// Nearest-rank percentile of a small sample (exact, not streamed — round
/// counts here are tens, not thousands).
double Percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = q * static_cast<double>(xs.size() - 1);
  const std::size_t idx = static_cast<std::size_t>(rank + 0.5);
  return xs[std::min(idx, xs.size() - 1)];
}

struct SizeSpec {
  const char* name;
  std::size_t subtasks;
  int engine_iters;
  int rounds;  ///< sync rounds per coordinator mode
};

/// The five phases of a sync round, in order (their timers are
/// "coordinator." + name).
constexpr const char* kRoundPhases[] = {"controllers", "latency_delivery",
                                        "shards", "price_delivery",
                                        "monitor"};
constexpr std::size_t kPhaseCount = std::size(kRoundPhases);

struct CoordinatorRun {
  double ms_per_round = 0.0;
  double round_ms_p50 = 0.0;
  double round_ms_p99 = 0.0;
  double messages_per_round = 0.0;
  double bytes_per_round = 0.0;
  double final_utility = 0.0;
  /// Share of coordinator.sync_round's time in each phase over the timed
  /// rounds (zero without a registry).
  double phase_share[kPhaseCount] = {};
};

/// Sums of the round timer's and the phase timers' totals so far.
struct PhaseTotals {
  double round_ms = 0.0;
  double phase_ms[kPhaseCount] = {};
};

PhaseTotals ReadPhaseTotals(obs::MetricRegistry* metrics) {
  PhaseTotals totals;
  totals.round_ms = metrics->GetTimer("coordinator.sync_round")->total_ms();
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    totals.phase_ms[i] =
        metrics->GetTimer(std::string("coordinator.") + kRoundPhases[i])
            ->total_ms();
  }
  return totals;
}

/// `metrics`, when given, is attached to the coordinator only (not to its
/// bus), and the run reports each phase's share of the timed rounds.
CoordinatorRun RunCoordinator(const Workload& workload,
                              const LatencyModel& model, int num_shards,
                              int rounds, int round_threads = 1,
                              obs::MetricRegistry* metrics = nullptr) {
  runtime::CoordinatorConfig config;
  config.num_shards = num_shards;
  config.round_threads = round_threads;
  config.bus.base_delay_ms = 0.0;
  config.record_history = false;
  config.metrics = metrics;
  runtime::Coordinator coordinator(workload, model, config);

  // Warm-up round: the first round's controller sends prime the agents'
  // latency inputs, so message counts are steady from round 2 on.
  coordinator.RunSyncRound();
  const net::BusStats before = coordinator.bus().stats();
  const PhaseTotals phases_before =
      metrics != nullptr ? ReadPhaseTotals(metrics) : PhaseTotals{};
  std::vector<double> round_ms;
  round_ms.reserve(static_cast<std::size_t>(rounds));
  const double start = NowSeconds();
  for (int i = 0; i < rounds; ++i) {
    const double round_start = NowSeconds();
    coordinator.RunSyncRound();
    round_ms.push_back((NowSeconds() - round_start) * 1e3);
  }
  const double elapsed_ms = (NowSeconds() - start) * 1e3;
  const net::BusStats after = coordinator.bus().stats();

  CoordinatorRun run;
  run.ms_per_round = elapsed_ms / rounds;
  run.round_ms_p50 = Percentile(round_ms, 0.50);
  run.round_ms_p99 = Percentile(round_ms, 0.99);
  run.messages_per_round =
      static_cast<double>(after.sent - before.sent) / rounds;
  run.bytes_per_round =
      static_cast<double>(after.bytes - before.bytes) / rounds;
  run.final_utility = coordinator.CurrentUtility();
  if (metrics != nullptr) {
    const PhaseTotals phases_after = ReadPhaseTotals(metrics);
    const double round_ms = phases_after.round_ms - phases_before.round_ms;
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      run.phase_share[i] =
          (phases_after.phase_ms[i] - phases_before.phase_ms[i]) / round_ms;
    }
  }
  return run;
}

/// Bytes one sync round would move under the PR 8 id-carrying wire format
/// on this workload, from the message combinatorics alone: every round each
/// controller sent one ShardLatencyUpdate per used shard carrying
/// (resource u32, latency f64) pairs — 25 + 12*nsub bytes for nsub subtask
/// entries — and each shard answered every client with one ShardPriceUpdate
/// of (resource u32, mu f64, congested u8) triples — 25 + 13*nres bytes for
/// the client's nres used resources in the shard.  The zero-copy format's
/// measured bytes/round must come in strictly below this.
double OldWireBytesPerRound(const Workload& workload, int num_shards) {
  const std::size_t resources = workload.resource_count();
  const std::size_t shards =
      std::min<std::size_t>(static_cast<std::size_t>(num_shards),
                            std::max<std::size_t>(resources, 1));
  // Same contiguous partition the coordinator builds: shard s owns
  // [R*s/S, R*(s+1)/S).
  std::vector<std::uint32_t> shard_of(resources, 0);
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t first = resources * s / shards;
    const std::size_t last = resources * (s + 1) / shards;
    for (std::size_t r = first; r < last; ++r) {
      shard_of[r] = static_cast<std::uint32_t>(s);
    }
  }
  double bytes = 0.0;
  std::vector<std::size_t> shard_subtasks(shards, 0);
  std::vector<std::size_t> shard_resources(shards, 0);
  std::vector<std::uint32_t> used;
  for (const TaskInfo& task : workload.tasks()) {
    std::fill(shard_subtasks.begin(), shard_subtasks.end(), 0);
    std::fill(shard_resources.begin(), shard_resources.end(), 0);
    used.clear();
    for (SubtaskId sid : task.subtasks) {
      const std::uint32_t r = workload.subtask(sid).resource.value();
      ++shard_subtasks[shard_of[r]];
      used.push_back(r);
    }
    std::sort(used.begin(), used.end());
    used.erase(std::unique(used.begin(), used.end()), used.end());
    for (std::uint32_t r : used) ++shard_resources[shard_of[r]];
    for (std::size_t s = 0; s < shards; ++s) {
      if (shard_subtasks[s] > 0) bytes += 25.0 + 12.0 * shard_subtasks[s];
      if (shard_resources[s] > 0) bytes += 25.0 + 13.0 * shard_resources[s];
    }
  }
  return bytes;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::HasQuickFlag(argc, argv);

  bench::PrintHeader(
      "bench_scale — 10^3/10^4/10^5/10^6-subtask scale tier",
      "sharded agents, zero-copy wire + parallel rounds (DESIGN.md §7.10-11)",
      "b1 snapshot >= 5x smaller than its sections stored raw and "
      "lossless; sharded coordinator fewer messages and strictly fewer bytes "
      "per round than the id-carrying wire format; 4-thread rounds >= 2x "
      "serial on >= 4-core hosts; the five round phases cover >= 95% of "
      "a serial sharded round on every tier");

  const int scale = quick ? 4 : 1;
  const std::vector<SizeSpec> sizes = {
      {"random_1k", 1000, 400 / scale, 40 / scale},
      {"random_10k", 10000, 200 / scale, 12 / scale},
      {"random_100k", 100000, 80 / scale, 8 / scale},
      {"random_1m", 1000000, 4, 3},
  };
  const int num_shards = 8;
  const std::vector<int> thread_sweep = {2, 4};
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());

  bool gate_size = false, gate_lossless = false;
  bool gate_sharded = false, gate_bytes = false;
  bool gate_speedup = false, speedup_suppressed = false;
  bool gate_phases = true;
  bench::JsonValue results = bench::JsonValue::Array();
  for (const SizeSpec& spec : sizes) {
    if (quick && spec.subtasks >= 1000000) {
      std::printf("\n--- %s skipped in --quick mode ---\n", spec.name);
      continue;
    }
    std::printf("\n--- %s (%zu subtasks requested) ---\n", spec.name,
                spec.subtasks);
    const double gen_start = NowSeconds();
    auto workload_or =
        MakeRandomWorkload(ScaledRandomWorkloadConfig(spec.subtasks, 11));
    if (!workload_or.ok()) {
      std::printf("workload error: %s\n", workload_or.error().c_str());
      return 1;
    }
    const double generate_ms = (NowSeconds() - gen_start) * 1e3;
    const Workload& workload = workload_or.value();
    LatencyModel model(workload);
    std::printf("%zu tasks, %zu subtasks, %zu resources, %zu paths "
                "(generated in %.0f ms)\n",
                workload.task_count(), workload.subtask_count(),
                workload.resource_count(), workload.path_count(),
                generate_ms);

    // Solve throughput: dense-mode engine (every subtask re-solved each
    // step), also the snapshot source — dense mode leaves the active-set
    // sections empty, so the size comparison measures the price state
    // itself.
    LlaConfig engine_config = bench::PaperLlaConfig();
    engine_config.record_history = false;
    engine_config.active_set.enabled = false;
    LlaEngine engine(workload, model, engine_config);
    const double solve_start = NowSeconds();
    IterationStats last;
    for (int i = 0; i < spec.engine_iters; ++i) last = engine.Step();
    const double solve_seconds = NowSeconds() - solve_start;
    const double steps_per_sec = spec.engine_iters / solve_seconds;
    const double subtask_solves_per_sec =
        steps_per_sec * static_cast<double>(workload.subtask_count());
    std::printf("engine: %.1f steps/sec (%.2e subtask solves/sec), "
                "utility %.1f after %d iters%s\n",
                steps_per_sec, subtask_solves_per_sec, last.total_utility,
                spec.engine_iters, last.feasible ? ", feasible" : "");

    // b1 snapshot: size against the raw sections, save / load time.
    const StateSnapshot snapshot = engine.Checkpoint();
    std::string snapshot_bytes;
    const double save_ms = BestMs([&] {
      snapshot_bytes = SaveSnapshotToString(snapshot).value();
    });
    const double load_ms = BestMs([&] {
      if (!LoadSnapshotFromString(snapshot_bytes, workload).ok()) {
        std::abort();
      }
    });
    // File restore (DESIGN.md §7.11): read the file, check the header's
    // shape against the workload, decode each section once — the path
    // `lla solve --restore` takes.
    const std::string file_path = "bench_scale_snapshot.tmp";
    double file_load_ms = 0.0;
    {
      const Status saved = SaveSnapshotToFile(snapshot, file_path);
      if (!saved.ok()) std::abort();
      file_load_ms = BestMs([&] {
        if (!LoadSnapshotFromFile(file_path, workload).ok()) std::abort();
      });
      std::remove(file_path.c_str());
    }
    // The same sections stored raw: element count times element width,
    // read from the parsed section table.
    double raw_bytes = 0.0;
    {
      auto view =
          ParseSnapshotBinary(snapshot_bytes.data(), snapshot_bytes.size());
      if (!view.ok()) std::abort();
      for (const SnapshotSectionRef& section : view.value().sections) {
        if (!section.present()) continue;
        raw_bytes += static_cast<double>(section.count) *
                     kSnapshotElemKinds[section.elem_kind].width;
      }
    }
    // Bitwise losslessness: load the image and re-serialize; the bytes must
    // be identical.
    bool lossless = false;
    {
      auto reloaded = LoadSnapshotFromString(snapshot_bytes, workload);
      if (reloaded.ok()) {
        auto again = SaveSnapshotToString(reloaded.value());
        lossless = again.ok() && again.value() == snapshot_bytes;
      }
    }
    const double raw_ratio = raw_bytes / snapshot_bytes.size();
    std::printf("snapshot: %zu B, %.0f B raw (%.1fx smaller), save %.3f ms, "
                "load %.3f ms, file load %.3f ms, lossless: %s\n",
                snapshot_bytes.size(), raw_bytes, raw_ratio, save_ms, load_ms,
                file_load_ms, lossless ? "yes" : "NO");

    // Coordinator round cost, one shard per resource vs 8 shards.  The
    // 10^6 tier runs 8 shards only: one shard per resource would enqueue
    // ~2 messages per subtask per round.
    const bool run_per_resource = spec.subtasks < 1000000;
    CoordinatorRun per_resource;
    if (run_per_resource) {
      per_resource =
          RunCoordinator(workload, model, /*num_shards=*/0, spec.rounds);
    }
    obs::MetricRegistry phase_metrics;
    const CoordinatorRun sharded =
        RunCoordinator(workload, model, num_shards, spec.rounds,
                       /*round_threads=*/1, &phase_metrics);
    const double utility_rel_diff =
        run_per_resource
            ? std::fabs(sharded.final_utility - per_resource.final_utility) /
                  std::max(1.0, std::fabs(per_resource.final_utility))
            : 0.0;
    const double old_wire_bytes = OldWireBytesPerRound(workload, num_shards);
    if (run_per_resource) {
      std::printf("coordinator: one shard per resource %.0f msgs/round "
                  "(%.2f ms), sharded [%d] %.0f msgs/round (%.2f ms), "
                  "utility rel diff %.2e\n",
                  per_resource.messages_per_round, per_resource.ms_per_round,
                  num_shards, sharded.messages_per_round,
                  sharded.ms_per_round, utility_rel_diff);
    } else {
      std::printf("coordinator: sharded [%d] %.0f msgs/round (%.2f ms), "
                  "one shard per resource skipped at this size\n",
                  num_shards, sharded.messages_per_round,
                  sharded.ms_per_round);
    }
    std::printf("coordinator: sharded round p50 %.2f ms, p99 %.2f ms; "
                "%.0f B/round (PR 8 wire format would use %.0f B/round)\n",
                sharded.round_ms_p50, sharded.round_ms_p99,
                sharded.bytes_per_round, old_wire_bytes);
    double phase_sum = 0.0;
    bench::JsonValue phase_json = bench::JsonValue::Object();
    std::printf("coordinator: sharded round phases:");
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      phase_sum += sharded.phase_share[i];
      phase_json.Add(kRoundPhases[i],
                     bench::JsonValue::Number(sharded.phase_share[i]));
      std::printf(" %s %.1f%%", kRoundPhases[i],
                  100.0 * sharded.phase_share[i]);
    }
    phase_json.Add("sum", bench::JsonValue::Number(phase_sum));
    const bool phases_cover_round = phase_sum >= 0.95;
    gate_phases = gate_phases && phases_cover_round;
    std::printf(" (sum %.1f%% of the round%s)\n", 100.0 * phase_sum,
                phases_cover_round ? "" : ", BELOW 95%");

    // Parallel round-threads sweep (DESIGN.md §7.11).  The fixed point is
    // bit-identical at every width (parallel_round_property_test pins it);
    // this measures wall-clock only.  Widths beyond the host's hardware
    // threads are stamped clamped and carry no speedup column — a 1-core
    // host would "measure" pure oversubscription noise.
    bench::JsonValue parallel_rows = bench::JsonValue::Array();
    double speedup_at_4 = 0.0;
    bool clamped_at_4 = true;
    for (int threads : thread_sweep) {
      const int effective =
          std::min(threads, static_cast<int>(hardware));
      const bool clamped = effective < threads;
      const CoordinatorRun run =
          RunCoordinator(workload, model, num_shards, spec.rounds, threads);
      bench::JsonValue row =
          bench::JsonValue::Object()
              .Add("round_threads", bench::JsonValue::Number(threads))
              .Add("effective_threads", bench::JsonValue::Number(effective))
              .Add("clamped", bench::JsonValue::Bool(clamped))
              .Add("ms_per_round", bench::JsonValue::Number(run.ms_per_round))
              .Add("round_ms_p50",
                   bench::JsonValue::Number(run.round_ms_p50))
              .Add("round_ms_p99",
                   bench::JsonValue::Number(run.round_ms_p99));
      if (!clamped) {
        const double speedup = sharded.ms_per_round / run.ms_per_round;
        row.Add("speedup_vs_serial", bench::JsonValue::Number(speedup));
        std::printf("parallel rounds: %d threads %.2f ms/round "
                    "(p50 %.2f, p99 %.2f), %.2fx vs serial\n",
                    threads, run.ms_per_round, run.round_ms_p50,
                    run.round_ms_p99, speedup);
        if (threads == 4) {
          speedup_at_4 = speedup;
          clamped_at_4 = false;
        }
      } else {
        std::printf("parallel rounds: %d threads clamped to %d on this host "
                    "(%.2f ms/round, speedup suppressed)\n",
                    threads, effective, run.ms_per_round);
      }
      parallel_rows.Push(std::move(row));
    }

    if (std::strcmp(spec.name, "random_100k") == 0) {
      gate_size = raw_ratio >= 5.0;
      gate_lossless = lossless;
      gate_sharded =
          sharded.messages_per_round < per_resource.messages_per_round &&
          utility_rel_diff <= 1e-9;
      gate_bytes = sharded.bytes_per_round < old_wire_bytes;
      if (clamped_at_4) {
        // < 4 hardware threads: the ratio is oversubscription noise, not a
        // speedup measurement.  Pass the gate as "suppressed" — the CI
        // bench matrix (>= 4-thread runners) evaluates it for real.
        gate_speedup = true;
        speedup_suppressed = true;
      } else {
        gate_speedup = speedup_at_4 >= 2.0;
        speedup_suppressed = false;
      }
    }

    bench::JsonValue coordinator_json =
        bench::JsonValue::Object()
            .Add("rounds", bench::JsonValue::Number(spec.rounds))
            .Add("num_shards", bench::JsonValue::Number(num_shards))
            .Add("per_resource_skipped",
                 bench::JsonValue::Bool(!run_per_resource))
            .Add("sharded_messages_per_round",
                 bench::JsonValue::Number(sharded.messages_per_round))
            .Add("sharded_bytes_per_round",
                 bench::JsonValue::Number(sharded.bytes_per_round))
            .Add("old_wire_bytes_per_round",
                 bench::JsonValue::Number(old_wire_bytes))
            .Add("sharded_ms_per_round",
                 bench::JsonValue::Number(sharded.ms_per_round))
            .Add("sharded_round_ms_p50",
                 bench::JsonValue::Number(sharded.round_ms_p50))
            .Add("sharded_round_ms_p99",
                 bench::JsonValue::Number(sharded.round_ms_p99))
            .Add("sharded_phase_share", std::move(phase_json))
            .Add("parallel", std::move(parallel_rows));
    if (run_per_resource) {
      coordinator_json
          .Add("per_resource_messages_per_round",
               bench::JsonValue::Number(per_resource.messages_per_round))
          .Add("per_resource_bytes_per_round",
               bench::JsonValue::Number(per_resource.bytes_per_round))
          .Add("per_resource_ms_per_round",
               bench::JsonValue::Number(per_resource.ms_per_round))
          .Add("per_resource_round_ms_p50",
               bench::JsonValue::Number(per_resource.round_ms_p50))
          .Add("per_resource_round_ms_p99",
               bench::JsonValue::Number(per_resource.round_ms_p99))
          .Add("utility_rel_diff",
               bench::JsonValue::Number(utility_rel_diff));
    }

    results.Push(
        bench::JsonValue::Object()
            .Add("workload", bench::JsonValue::String(spec.name))
            .Add("tasks", bench::JsonValue::Number(
                              static_cast<double>(workload.task_count())))
            .Add("subtasks",
                 bench::JsonValue::Number(
                     static_cast<double>(workload.subtask_count())))
            .Add("resources",
                 bench::JsonValue::Number(
                     static_cast<double>(workload.resource_count())))
            .Add("paths", bench::JsonValue::Number(
                              static_cast<double>(workload.path_count())))
            .Add("generate_ms", bench::JsonValue::Number(generate_ms))
            .Add("engine",
                 bench::JsonValue::Object()
                     .Add("iterations",
                          bench::JsonValue::Number(spec.engine_iters))
                     .Add("steps_per_sec",
                          bench::JsonValue::Number(steps_per_sec))
                     .Add("subtask_solves_per_sec",
                          bench::JsonValue::Number(subtask_solves_per_sec))
                     .Add("final_utility",
                          bench::JsonValue::Number(last.total_utility))
                     .Add("feasible", bench::JsonValue::Bool(last.feasible)))
            .Add("snapshot",
                 bench::JsonValue::Object()
                     .Add("bytes",
                          bench::JsonValue::Number(
                              static_cast<double>(snapshot_bytes.size())))
                     .Add("raw_bytes", bench::JsonValue::Number(raw_bytes))
                     .Add("raw_ratio", bench::JsonValue::Number(raw_ratio))
                     .Add("save_ms", bench::JsonValue::Number(save_ms))
                     .Add("load_ms", bench::JsonValue::Number(load_ms))
                     .Add("file_load_ms",
                          bench::JsonValue::Number(file_load_ms))
                     .Add("lossless", bench::JsonValue::Bool(lossless)))
            .Add("coordinator", std::move(coordinator_json)));
  }

  const bool pass = gate_size && gate_lossless && gate_sharded &&
                    gate_bytes && gate_speedup && gate_phases;
  std::printf("\ngate on every tier: round phases sum >= 95%% of the "
              "round: %s\n",
              gate_phases ? "PASS" : "FAIL");
  std::printf("gates on random_100k: snapshot >= 5x smaller than raw: %s  "
              "lossless: %s  sharded fewer msgs + same utility: %s  "
              "fewer bytes than PR 8 wire: %s  parallel >= 2x @4t: %s\n",
              gate_size ? "PASS" : "FAIL", gate_lossless ? "PASS" : "FAIL",
              gate_sharded ? "PASS" : "FAIL", gate_bytes ? "PASS" : "FAIL",
              speedup_suppressed ? "SUPPRESSED (host < 4 hw threads)"
                                 : (gate_speedup ? "PASS" : "FAIL"));

  bench::JsonValue root =
      bench::BenchReportRoot("scale", "subtask_solves_per_sec", quick);
  root.Add("hardware_concurrency",
           bench::JsonValue::Number(static_cast<double>(hardware)));
  root.Add("snapshot_5x_smaller_than_raw", bench::JsonValue::Bool(gate_size));
  root.Add("snapshot_lossless", bench::JsonValue::Bool(gate_lossless));
  root.Add("sharded_fewer_messages", bench::JsonValue::Bool(gate_sharded));
  root.Add("fewer_bytes_than_old_wire", bench::JsonValue::Bool(gate_bytes));
  root.Add("parallel_2x_speedup", bench::JsonValue::Bool(gate_speedup));
  root.Add("parallel_gate_suppressed",
           bench::JsonValue::Bool(speedup_suppressed));
  root.Add("phases_cover_round", bench::JsonValue::Bool(gate_phases));
  root.Add("results", std::move(results));
  if (bench::EmitBenchReport("BENCH_scale.json", root) != 0) return 1;
  return pass ? 0 : 1;
}
