#include "workloads/transform.h"

#include <cassert>

namespace lla {

WorkloadSpecs ExtractSpecs(const Workload& workload) {
  WorkloadSpecs specs;
  specs.resources.reserve(workload.resource_count());
  for (const ResourceInfo& resource : workload.resources()) {
    specs.resources.push_back(
        {resource.name, resource.kind, resource.capacity, resource.lag_ms});
  }
  specs.tasks.reserve(workload.task_count());
  for (const TaskInfo& task : workload.tasks()) {
    TaskSpec spec;
    spec.name = task.name;
    spec.critical_time_ms = task.critical_time_ms;
    spec.utility = task.utility;
    spec.trigger = task.trigger;
    spec.edges = task.dag.edges();
    for (SubtaskId sid : task.subtasks) {
      const SubtaskInfo& sub = workload.subtask(sid);
      spec.subtasks.push_back(
          {sub.name, sub.resource, sub.wcet_ms, sub.min_share});
    }
    specs.tasks.push_back(std::move(spec));
  }
  return specs;
}

Expected<Workload> Rebuild(
    const Workload& workload,
    const std::function<void(ResourceId, ResourceSpec&)>& edit_resource,
    const std::function<void(TaskId, TaskSpec&)>& edit_task) {
  WorkloadSpecs specs = ExtractSpecs(workload);
  if (edit_resource) {
    for (std::size_t r = 0; r < specs.resources.size(); ++r) {
      edit_resource(ResourceId(r), specs.resources[r]);
    }
  }
  if (edit_task) {
    for (std::size_t t = 0; t < specs.tasks.size(); ++t) {
      edit_task(TaskId(t), specs.tasks[t]);
    }
  }
  return Workload::Create(std::move(specs.resources),
                          std::move(specs.tasks));
}

Expected<Workload> WithResourceCapacity(const Workload& workload,
                                        ResourceId resource,
                                        double capacity) {
  return Rebuild(workload,
                 [&](ResourceId id, ResourceSpec& spec) {
                   if (id == resource) spec.capacity = capacity;
                 });
}

Expected<Workload> WithoutTask(const Workload& workload, TaskId task) {
  if (!task.valid() || task.value() >= workload.task_count()) {
    return Expected<Workload>::Error("WithoutTask: invalid task id");
  }
  WorkloadSpecs specs = ExtractSpecs(workload);
  specs.tasks.erase(specs.tasks.begin() + task.value());
  return Workload::Create(std::move(specs.resources),
                          std::move(specs.tasks));
}

PriceVector MapPricesWithoutTask(const Workload& old_workload,
                                 const PriceVector& prices, TaskId removed) {
  assert(prices.mu.size() == old_workload.resource_count());
  assert(prices.lambda.size() == old_workload.path_count());
  assert(removed.valid() && removed.value() < old_workload.task_count());
  PriceVector mapped;
  mapped.mu = prices.mu;
  mapped.lambda.reserve(old_workload.path_count() -
                        old_workload.task(removed).paths.size());
  for (const TaskInfo& task : old_workload.tasks()) {
    if (task.id == removed) continue;
    for (PathId path : task.paths) {
      mapped.lambda.push_back(prices.lambda[path.value()]);
    }
  }
  return mapped;
}

PriceVector MapPricesWithTask(const Workload& new_workload,
                              const PriceVector& old_prices, TaskId added) {
  assert(old_prices.mu.size() == new_workload.resource_count());
  assert(added.valid() && added.value() < new_workload.task_count());
  PriceVector mapped;
  mapped.mu = old_prices.mu;
  mapped.lambda.reserve(new_workload.path_count());
  std::size_t next_old = 0;
  for (const TaskInfo& task : new_workload.tasks()) {
    for (std::size_t k = 0; k < task.paths.size(); ++k) {
      if (task.id == added) {
        mapped.lambda.push_back(0.0);
      } else {
        assert(next_old < old_prices.lambda.size());
        mapped.lambda.push_back(old_prices.lambda[next_old++]);
      }
    }
  }
  assert(next_old == old_prices.lambda.size());
  return mapped;
}

}  // namespace lla
