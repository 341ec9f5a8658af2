#include "core/price_update.h"

#include <cassert>

namespace lla {
namespace {

// The momentum states as a raw array, null under plain dynamics (which keep
// none).  The loops below take it, and a copy of the DynamicsConfig, into
// locals once: each price they store is a double that may alias the
// caller's momentum coefficient, so reading it through the caller's object
// would reload it per component.
inline ComponentDynamicsState* StatesOf(
    std::vector<ComponentDynamicsState>* states) {
  return states->empty() ? nullptr : states->data();
}

// Component i's momentum state, or null.
inline ComponentDynamicsState* At(ComponentDynamicsState* states,
                                  std::size_t i) {
  return states != nullptr ? states + i : nullptr;
}

}  // namespace

PriceUpdater::PriceUpdater(const Workload& workload, const LatencyModel& model)
    : workload_(&workload), model_(&model) {}

void PriceUpdater::UpdateResourcePrices(const Assignment& latencies,
                                        const StepSchedule& steps,
                                        PriceVector* prices) const {
  assert(prices->mu.size() == workload_->resource_count());
  for (const ResourceInfo& resource : workload_->resources()) {
    const std::size_t r = resource.id.value();
    const double share_sum =
        ResourceShareSum(*workload_, *model_, resource.id, latencies);
    const double slack = resource.capacity - share_sum;
    prices->mu[r] = StepComponentDynamics(DynamicsConfig{}, nullptr,
                                          prices->mu[r],
                                          steps.resource_step(r), slack,
                                          nullptr);
  }
}

void PriceUpdater::UpdatePathPrices(const Assignment& latencies,
                                    const StepSchedule& steps,
                                    PriceVector* prices) const {
  assert(prices->lambda.size() == workload_->path_count());
  for (const PathInfo& path : workload_->paths()) {
    const std::size_t p = path.id.value();
    const double latency = PathLatency(*workload_, path.id, latencies);
    const double slack = 1.0 - latency / path.critical_time_ms;
    prices->lambda[p] = StepComponentDynamics(DynamicsConfig{}, nullptr,
                                              prices->lambda[p],
                                              steps.path_step(p), slack,
                                              nullptr);
  }
}

void PriceUpdater::Update(const Assignment& latencies,
                          const StepSchedule& steps,
                          PriceVector* prices) const {
  UpdateResourcePrices(latencies, steps, prices);
  UpdatePathPrices(latencies, steps, prices);
}

void PriceUpdater::Update(const std::vector<double>& resource_share_sums,
                          const std::vector<double>& path_latencies,
                          const StepSchedule& steps,
                          const DynamicsConfig& dynamics,
                          std::vector<ComponentDynamicsState>* mu_state,
                          std::vector<ComponentDynamicsState>* lambda_state,
                          std::uint64_t* restarts, PriceVector* prices) const {
  assert(resource_share_sums.size() == workload_->resource_count());
  assert(path_latencies.size() == workload_->path_count());
  const DynamicsConfig config = dynamics;
  ComponentDynamicsState* const mu_states = StatesOf(mu_state);
  ComponentDynamicsState* const lambda_states = StatesOf(lambda_state);
  for (const ResourceInfo& resource : workload_->resources()) {
    const std::size_t r = resource.id.value();
    const double slack = resource.capacity - resource_share_sums[r];
    prices->mu[r] =
        StepComponentDynamics(config, At(mu_states, r), prices->mu[r],
                              steps.resource_step(r), slack, restarts);
  }
  for (const PathInfo& path : workload_->paths()) {
    const std::size_t p = path.id.value();
    const double slack = 1.0 - path_latencies[p] / path.critical_time_ms;
    prices->lambda[p] =
        StepComponentDynamics(config, At(lambda_states, p), prices->lambda[p],
                              steps.path_step(p), slack, restarts);
  }
}

std::vector<bool> PriceUpdater::ResourceCongestion(
    const Assignment& latencies) const {
  std::vector<bool> congested(workload_->resource_count());
  for (const ResourceInfo& resource : workload_->resources()) {
    const double share_sum =
        ResourceShareSum(*workload_, *model_, resource.id, latencies);
    congested[resource.id.value()] = share_sum > resource.capacity;
  }
  return congested;
}

}  // namespace lla
