#include "model/workload.h"

#include <cmath>
#include <set>
#include <sstream>

namespace lla {
namespace {

bool PositiveFinite(double x) { return std::isfinite(x) && x > 0.0; }
bool NonNegativeFinite(double x) { return std::isfinite(x) && x >= 0.0; }

// Why `t` cannot drive a release stream, or "" when it can.  Every field is
// checked whatever the kind, so the spec stays valid if the kind changes.
std::string TriggerProblem(const TriggerSpec& t) {
  const auto problem = [](const char* field, double value, const char* want) {
    std::ostringstream os;
    os << field << ' ' << value << " is not " << want;
    return os.str();
  };
  if (!PositiveFinite(t.period_ms)) {
    return problem("period", t.period_ms, "a finite number > 0");
  }
  if (!std::isfinite(t.phase_ms)) return problem("phase", t.phase_ms, "finite");
  if (!PositiveFinite(t.rate_per_s)) {
    return problem("rate", t.rate_per_s, "a finite number > 0");
  }
  if (t.burst_size < 1) return problem("burst size", t.burst_size, ">= 1");
  if (!NonNegativeFinite(t.burst_spread_ms)) {
    return problem("burst spread", t.burst_spread_ms, "a finite number >= 0");
  }
  return {};
}

}  // namespace

const char* ToString(ResourceKind kind) {
  switch (kind) {
    case ResourceKind::kCpu:
      return "cpu";
    case ResourceKind::kNetworkLink:
      return "link";
  }
  return "?";
}

const char* ToString(UtilityVariant variant) {
  switch (variant) {
    case UtilityVariant::kSum:
      return "sum";
    case UtilityVariant::kPathWeighted:
      return "path-weighted";
  }
  return "?";
}

Expected<Workload> Workload::Create(std::vector<ResourceSpec> resources,
                                    std::vector<TaskSpec> tasks,
                                    Options options) {
  using E = Expected<Workload>;
  if (resources.empty()) return E::Error("Workload: no resources");
  if (tasks.empty()) return E::Error("Workload: no tasks");

  Workload w;
  w.resources_.reserve(resources.size());
  for (std::size_t r = 0; r < resources.size(); ++r) {
    const ResourceSpec& spec = resources[r];
    if (!PositiveFinite(spec.capacity) || spec.capacity > 1.0) {
      std::ostringstream os;
      os << "Workload: resource '" << spec.name << "' capacity "
         << spec.capacity << " outside (0, 1]";
      return E::Error(os.str());
    }
    if (!NonNegativeFinite(spec.lag_ms)) {
      std::ostringstream os;
      os << "Workload: resource '" << spec.name << "' lag " << spec.lag_ms
         << " is not a finite number >= 0";
      return E::Error(os.str());
    }
    ResourceInfo info;
    info.id = ResourceId(r);
    info.name = spec.name.empty() ? "resource" + std::to_string(r) : spec.name;
    info.kind = spec.kind;
    info.capacity = spec.capacity;
    info.lag_ms = spec.lag_ms;
    w.resources_.push_back(std::move(info));
  }

  for (std::size_t t = 0; t < tasks.size(); ++t) {
    TaskSpec& spec = tasks[t];
    const std::string task_name =
        spec.name.empty() ? "task" + std::to_string(t) : spec.name;
    if (!PositiveFinite(spec.critical_time_ms)) {
      std::ostringstream os;
      os << "Workload: task '" << task_name << "' critical time "
         << spec.critical_time_ms << " is not a finite number > 0";
      return E::Error(os.str());
    }
    const std::string trigger_problem = TriggerProblem(spec.trigger);
    if (!trigger_problem.empty()) {
      return E::Error("Workload: task '" + task_name + "' trigger " +
                      trigger_problem);
    }
    if (!spec.utility) {
      return E::Error("Workload: task '" + task_name + "' has no utility");
    }
    if (spec.subtasks.empty()) {
      return E::Error("Workload: task '" + task_name + "' has no subtasks");
    }

    auto dag = Dag::Create(static_cast<int>(spec.subtasks.size()),
                           spec.edges);
    if (!dag.ok()) {
      return E::Error("Workload: task '" + task_name + "': " + dag.error());
    }

    TaskInfo task_info;
    task_info.id = TaskId(t);
    task_info.name = task_name;
    task_info.critical_time_ms = spec.critical_time_ms;
    task_info.utility = std::move(spec.utility);
    task_info.trigger = spec.trigger;
    task_info.dag = std::move(dag).value();

    std::set<ResourceId> used_resources;
    for (std::size_t local = 0; local < spec.subtasks.size(); ++local) {
      const SubtaskSpec& sub = spec.subtasks[local];
      if (!sub.resource.valid() ||
          sub.resource.value() >= w.resources_.size()) {
        std::ostringstream os;
        os << "Workload: task '" << task_name << "' subtask " << local
           << " references invalid resource";
        return E::Error(os.str());
      }
      if (!PositiveFinite(sub.wcet_ms)) {
        std::ostringstream os;
        os << "Workload: task '" << task_name << "' subtask " << local
           << " wcet " << sub.wcet_ms << " is not a finite number > 0";
        return E::Error(os.str());
      }
      if (!NonNegativeFinite(sub.min_share) ||
          sub.min_share > w.resources_[sub.resource.value()].capacity) {
        std::ostringstream os;
        os << "Workload: task '" << task_name << "' subtask " << local
           << " min_share " << sub.min_share
           << " outside [0, resource capacity]";
        return E::Error(os.str());
      }
      if (!options.allow_shared_resource_within_task &&
          !used_resources.insert(sub.resource).second) {
        std::ostringstream os;
        os << "Workload: task '" << task_name
           << "' places two subtasks on resource "
           << w.resources_[sub.resource.value()].name
           << " (disallowed by default, see Options)";
        return E::Error(os.str());
      }

      SubtaskInfo info;
      info.id = SubtaskId(w.subtasks_.size());
      info.task = task_info.id;
      info.local_index = static_cast<int>(local);
      info.resource = sub.resource;
      info.name = sub.name.empty()
                      ? task_name + "." + std::to_string(local)
                      : sub.name;
      info.wcet_ms = sub.wcet_ms;
      info.work_ms = sub.wcet_ms + w.resources_[sub.resource.value()].lag_ms;
      info.min_share = sub.min_share;
      info.path_count = task_info.dag.path_counts()[local];

      task_info.subtasks.push_back(info.id);
      w.resources_[sub.resource.value()].subtasks.push_back(info.id);
      w.subtasks_.push_back(std::move(info));
    }

    // Flatten paths to global ids.
    for (const std::vector<int>& local_path : task_info.dag.paths()) {
      PathInfo path;
      path.id = PathId(w.paths_.size());
      path.task = task_info.id;
      path.critical_time_ms = task_info.critical_time_ms;
      for (int local : local_path) {
        const SubtaskId sid = task_info.subtasks[local];
        path.subtasks.push_back(sid);
        w.subtasks_[sid.value()].paths.push_back(path.id);
      }
      task_info.paths.push_back(path.id);
      w.paths_.push_back(std::move(path));
    }

    w.tasks_.push_back(std::move(task_info));
  }

  return w;
}

double Workload::MinShareDemand(ResourceId r) const {
  double demand = 0.0;
  for (SubtaskId sid : resource(r).subtasks) {
    demand += subtask(sid).min_share;
  }
  return demand;
}

}  // namespace lla
