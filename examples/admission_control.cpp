// Admission control layered on top of LLA (paper Sec. 3.2 assumes this
// layer exists; we build it): tenants ask to run tasks on a shared fabric;
// each candidate is admitted only if the combined workload stays
// schedulable — tested by running the optimizer itself, exactly the paper's
// Sec. 5.4 methodology — optionally with a net-benefit bar.
#include <cstdio>

#include "admission/admission.h"
#include "model/trigger.h"
#include "model/utility.h"

using namespace lla;
using namespace lla::admission;

namespace {

TaskSpec Tenant(const std::string& name, double wcet_ms, double critical_ms,
                double rate_per_s, double value_slope) {
  TaskSpec task;
  task.name = name;
  task.critical_time_ms = critical_ms;
  task.utility = Utility::Linear(2.0 * critical_ms * value_slope, value_slope);
  task.trigger = TriggerSpec::Periodic(1000.0 / rate_per_s);
  const double min_share = rate_per_s * wcet_ms / 1000.0;
  task.subtasks = {{name + "/ingest", ResourceId(0u), wcet_ms, min_share},
                   {name + "/process", ResourceId(1u), wcet_ms, min_share},
                   {name + "/publish", ResourceId(2u), wcet_ms / 2.0,
                    min_share / 2.0}};
  task.edges = {{0, 1}, {1, 2}};
  return task;
}

void Try(AdmissionController& controller, const TaskSpec& task) {
  const AdmissionReport report = controller.TryAdmit(task);
  std::printf("%-14s -> %-24s %s\n", task.name.c_str(),
              ToString(report.decision), report.reason.c_str());
}

}  // namespace

int main() {
  std::printf("== admission control on a 3-node fabric ==\n\n");
  std::vector<ResourceSpec> resources = {
      {"ingest-cpu", ResourceKind::kCpu, 0.9, 1.0},
      {"process-cpu", ResourceKind::kCpu, 0.9, 1.0},
      {"publish-link", ResourceKind::kNetworkLink, 0.95, 0.5},
  };

  AdmissionConfig config;
  config.lla.gamma0 = 3.0;
  AdmissionController controller(resources, config);

  // A stream of tenants with mixed demands.
  Try(controller, Tenant("alerts", 4.0, 60.0, 50.0, 3.0));    // 0.2 share
  Try(controller, Tenant("pricing", 5.0, 80.0, 40.0, 2.0));   // 0.2
  Try(controller, Tenant("audit", 6.0, 200.0, 30.0, 1.0));    // 0.18
  Try(controller, Tenant("greedy", 8.0, 90.0, 60.0, 1.0));    // 0.48: too much
  Try(controller, Tenant("deadline0", 4.0, 10.0, 10.0, 1.0)); // impossible C
  Try(controller, Tenant("modest", 2.0, 150.0, 20.0, 1.0));   // 0.04: fits

  std::printf("\nadmitted set:");
  for (const std::string& name : controller.TaskNames()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\noptimal utility of the admitted set: %.2f\n",
              controller.CurrentUtility());

  // A tenant leaves; the big one can now fit.
  std::printf("\n'audit' departs; retrying 'greedy':\n");
  controller.Remove("audit");
  Try(controller, Tenant("greedy", 8.0, 90.0, 60.0, 1.0));
  std::printf("final utility: %.2f with %zu tasks\n",
              controller.CurrentUtility(), controller.task_count());

  // Net-benefit policy demo: a low-value tenant that would squeeze the
  // high-value ones is turned away even though it is schedulable.
  std::printf("\nwith a net-benefit bar of +50 utility:\n");
  AdmissionConfig strict = config;
  strict.policy = Policy::kNetBenefit;
  strict.min_net_benefit = 50.0;
  AdmissionController selective(resources, strict);
  Try(selective, Tenant("vip", 4.0, 50.0, 50.0, 5.0));
  Try(selective, Tenant("freeloader", 6.0, 300.0, 30.0, 0.05));
  return 0;
}
