#include "workloads/random.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "model/evaluation.h"
#include "model/latency_model.h"
#include "model/trigger.h"
#include "model/utility.h"

namespace lla {
namespace {
// WCETs are uniform in [kMinWcetMs, kMaxWcetMs); f_i(x) = kUtilityK C_i - x.
constexpr double kMinWcetMs = 1.0;
constexpr double kMaxWcetMs = 8.0;
constexpr double kUtilityK = 2.0;
}  // namespace

Expected<Workload> MakeRandomWorkload(const RandomWorkloadConfig& config) {
  using E = Expected<Workload>;
  if (config.max_subtasks > config.num_resources) {
    return E::Error(
        "MakeRandomWorkload: max_subtasks exceeds num_resources (subtasks of "
        "a task must use distinct resources)");
  }
  if (config.min_subtasks < 1 || config.min_subtasks > config.max_subtasks) {
    return E::Error("MakeRandomWorkload: invalid subtask count range");
  }
  Rng rng(config.seed);

  std::vector<ResourceSpec> resources;
  for (int r = 0; r < config.num_resources; ++r) {
    ResourceSpec spec;
    spec.name = "res" + std::to_string(r);
    spec.kind = r % 2 == 0 ? ResourceKind::kCpu : ResourceKind::kNetworkLink;
    spec.capacity = config.capacity;
    spec.lag_ms = config.lag_ms;
    resources.push_back(std::move(spec));
  }

  // Persistent pool for scaled sampling: a partial Fisher-Yates of length n
  // over any permutation yields a uniform distinct n-subset, so the pool
  // need not be re-initialized between tasks.
  std::vector<int> pool(config.num_resources);
  std::iota(pool.begin(), pool.end(), 0);

  std::vector<TaskSpec> tasks;
  std::vector<int> resource_ids;
  for (int t = 0; t < config.num_tasks; ++t) {
    const int n = config.min_subtasks +
                  static_cast<int>(rng.Below(
                      config.max_subtasks - config.min_subtasks + 1));

    TaskSpec task;
    task.name = "rand" + std::to_string(t);
    task.trigger = TriggerSpec::Periodic(config.trigger_period_ms);

    // Distinct resources per task.
    if (config.scaled_sampling) {
      // Partial Fisher-Yates: O(n) draws against the persistent pool.
      resource_ids.resize(n);
      for (int i = 0; i < n; ++i) {
        std::swap(pool[i],
                  pool[i + rng.Below(config.num_resources - i)]);
        resource_ids[i] = pool[i];
      }
    } else {
      // Full shuffle, prefix taken (the original stream; seeds are pinned).
      resource_ids.resize(config.num_resources);
      std::iota(resource_ids.begin(), resource_ids.end(), 0);
      for (int i = config.num_resources - 1; i > 0; --i) {
        std::swap(resource_ids[i], resource_ids[rng.Below(i + 1)]);
      }
    }

    for (int i = 0; i < n; ++i) {
      SubtaskSpec sub;
      sub.name = task.name + ".s" + std::to_string(i);
      sub.resource = ResourceId(static_cast<std::size_t>(resource_ids[i]));
      sub.wcet_ms = rng.Uniform(kMinWcetMs, kMaxWcetMs);
      sub.min_share = sub.wcet_ms / config.trigger_period_ms;
      task.subtasks.push_back(std::move(sub));
    }

    // Random DAG: node i > 0 attaches under a random earlier node (tree),
    // plus optional extra forward edges.
    for (int i = 1; i < n; ++i) {
      const int parent = static_cast<int>(rng.Below(i));
      task.edges.emplace_back(parent, i);
      if (i >= 2 && rng.NextDouble() < config.extra_edge_prob) {
        int extra = static_cast<int>(rng.Below(i));
        if (extra != parent) task.edges.emplace_back(extra, i);
      }
    }

    // Placeholder critical time; calibrated below once the workload (and so
    // the path structure) exists.
    task.critical_time_ms = 1.0;
    task.utility = MakePaperSimUtility(1.0, kUtilityK);
    tasks.push_back(std::move(task));
  }

  // First build with placeholder critical times (validation of everything
  // else happens here).  min_share <= capacity may fail for unlucky draws;
  // that is a legitimate validation error surfaced to the caller.
  auto tentative = Workload::Create(resources, tasks);
  if (!tentative.ok()) return tentative;
  const Workload& probe = tentative.value();

  // Equal-split witness: subtask on resource r gets share B_r / n_r.
  Assignment witness(probe.subtask_count(), 0.0);
  for (const ResourceInfo& resource : probe.resources()) {
    const double n_r = static_cast<double>(resource.subtasks.size());
    if (n_r == 0) continue;
    for (SubtaskId sid : resource.subtasks) {
      const double share = resource.capacity / n_r;
      witness[sid.value()] = probe.subtask(sid).work_ms / share;
    }
  }

  for (const TaskInfo& task : probe.tasks()) {
    const double crit = CriticalPathLatency(probe, task.id, witness);
    const double critical_time = crit / config.target_utilization;
    tasks[task.id.value()].critical_time_ms = critical_time;
    tasks[task.id.value()].utility =
        MakePaperSimUtility(critical_time, kUtilityK);
  }

  return Workload::Create(std::move(resources), std::move(tasks));
}

RandomWorkloadConfig ScaledRandomWorkloadConfig(std::size_t num_subtasks,
                                                std::uint64_t seed) {
  RandomWorkloadConfig config;
  config.seed = seed;
  config.num_resources = static_cast<int>(
      std::max<std::size_t>(8, num_subtasks / 200));
  config.min_subtasks = 3;
  config.max_subtasks = 6;
  // Mean subtasks per task is (3+6)/2 = 4.5.
  config.num_tasks = static_cast<int>(
      std::max<std::size_t>(1, 2 * num_subtasks / 9));
  config.extra_edge_prob = 0.15;
  config.target_utilization = 0.8;
  // Scale the trigger period with the expected per-resource load so the sum
  // of min shares (wcet / period) per resource stays near 0.3 of capacity at
  // any size — keeping both the hard min-share validity check and the
  // equal-split schedulable witness comfortable.
  const double per_resource =
      static_cast<double>(num_subtasks) / config.num_resources;
  const double mean_wcet = 0.5 * (kMinWcetMs + kMaxWcetMs);
  config.trigger_period_ms =
      std::max(100.0, per_resource * mean_wcet / (0.3 * config.capacity));
  config.scaled_sampling = true;
  return config;
}

}  // namespace lla
