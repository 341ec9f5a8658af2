#include "core/price_update.h"

#include <cassert>
#include <cstring>

namespace lla {
namespace {

inline bool SameBits(double a, double b) {
  std::uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

// The momentum states as a raw array, null under plain dynamics (which keep
// none).  The loops below take it, and a copy of the DynamicsConfig, into
// locals once: their byte-sized stores may alias any memory, so reading
// either through the caller's objects would reload it per component.
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
                                        const StepSizes& steps,
                                        PriceVector* prices) const {
  assert(steps.resource.size() == workload_->resource_count());
  assert(prices->mu.size() == workload_->resource_count());
  for (const ResourceInfo& resource : workload_->resources()) {
    const std::size_t r = resource.id.value();
    const double share_sum =
        ResourceShareSum(*workload_, *model_, resource.id, latencies);
    const double slack = resource.capacity - share_sum;
    prices->mu[r] = StepComponentDynamics(DynamicsConfig{}, nullptr,
                                          prices->mu[r], steps.resource[r],
                                          slack, nullptr)
                        .value;
  }
}

void PriceUpdater::UpdatePathPrices(const Assignment& latencies,
                                    const StepSizes& steps,
                                    PriceVector* prices) const {
  assert(steps.path.size() == workload_->path_count());
  assert(prices->lambda.size() == workload_->path_count());
  for (const PathInfo& path : workload_->paths()) {
    const std::size_t p = path.id.value();
    const double latency = PathLatency(*workload_, path.id, latencies);
    const double slack = 1.0 - latency / path.critical_time_ms;
    prices->lambda[p] = StepComponentDynamics(DynamicsConfig{}, nullptr,
                                              prices->lambda[p], steps.path[p],
                                              slack, nullptr)
                            .value;
  }
}

void PriceUpdater::Update(const Assignment& latencies, const StepSizes& steps,
                          PriceVector* prices) const {
  UpdateResourcePrices(latencies, steps, prices);
  UpdatePathPrices(latencies, steps, prices);
}

void PriceUpdater::Update(const std::vector<double>& resource_share_sums,
                          const std::vector<double>& path_latencies,
                          const StepSizes& steps,
                          const DynamicsConfig& dynamics,
                          std::vector<ComponentDynamicsState>* mu_state,
                          std::vector<ComponentDynamicsState>* lambda_state,
                          std::uint64_t* restarts, PriceVector* prices) const {
  assert(resource_share_sums.size() == workload_->resource_count());
  assert(path_latencies.size() == workload_->path_count());
  assert(steps.resource.size() == workload_->resource_count());
  assert(steps.path.size() == workload_->path_count());
  const DynamicsConfig config = dynamics;
  ComponentDynamicsState* const mu_states = StatesOf(mu_state);
  ComponentDynamicsState* const lambda_states = StatesOf(lambda_state);
  for (const ResourceInfo& resource : workload_->resources()) {
    const std::size_t r = resource.id.value();
    const double slack = resource.capacity - resource_share_sums[r];
    prices->mu[r] =
        StepComponentDynamics(config, At(mu_states, r), prices->mu[r],
                              steps.resource[r], slack, restarts)
            .value;
  }
  for (const PathInfo& path : workload_->paths()) {
    const std::size_t p = path.id.value();
    const double slack = 1.0 - path_latencies[p] / path.critical_time_ms;
    prices->lambda[p] =
        StepComponentDynamics(config, At(lambda_states, p), prices->lambda[p],
                              steps.path[p], slack, restarts)
            .value;
  }
}

ActivePriceWork PriceUpdater::UpdateActive(
    const std::vector<double>& resource_share_sums,
    const std::vector<double>& path_latencies, const StepSizes& steps,
    const DynamicsConfig& dynamics,
    std::vector<ComponentDynamicsState>* mu_state,
    std::vector<ComponentDynamicsState>* lambda_state,
    std::uint64_t* restarts, PriceVector* prices,
    ActivePriceState* state) const {
  const std::size_t resource_count = workload_->resource_count();
  const std::size_t path_count = workload_->path_count();
  assert(resource_share_sums.size() == resource_count);
  assert(path_latencies.size() == path_count);
  assert(steps.resource.size() == resource_count);
  assert(steps.path.size() == path_count);
  assert(prices->mu.size() == resource_count);
  assert(prices->lambda.size() == path_count);

  ActivePriceWork work;
  const bool primed = state->primed &&
                      state->prev_share_sums.size() == resource_count &&
                      state->prev_path_latencies.size() == path_count;
  if (!primed) {
    state->mu_settled.assign(resource_count, 0);
    state->lambda_settled.assign(path_count, 0);
    state->mu_zero_epochs.assign(resource_count, 0);
    state->lambda_zero_epochs.assign(path_count, 0);
    state->prev_share_sums.resize(resource_count);
    state->prev_path_latencies.resize(path_count);
  }
  const DynamicsConfig config = dynamics;
  ComponentDynamicsState* const mu_states = StatesOf(mu_state);
  ComponentDynamicsState* const lambda_states = StatesOf(lambda_state);

  const std::vector<ResourceInfo>& resources = workload_->resources();
  for (std::size_t r = 0; r < resource_count; ++r) {
    const double sum = resource_share_sums[r];
    const bool changed = !primed || !SameBits(sum, state->prev_share_sums[r]);
    // Retired: multiplier clamped at 0 long enough, input bits unchanged.
    if (!changed && prices->mu[r] == 0.0 && state->mu_settled[r] != 0 &&
        state->mu_zero_epochs[r] >= kRetireAfterEpochs) {
      ++state->mu_zero_epochs[r];
      ++work.mu_skipped;
      continue;
    }
    const double slack = resources[r].capacity - sum;
    const DynamicsStep ds =
        StepComponentDynamics(config, At(mu_states, r), prices->mu[r],
                              steps.resource[r], slack, restarts);
    prices->mu[r] = ds.value;
    ++work.mu_updated;
    // `settled` implies the value is exactly 0.
    state->mu_zero_epochs[r] = ds.settled ? state->mu_zero_epochs[r] + 1 : 0;
    state->mu_settled[r] = ds.settled ? 1 : 0;
    state->prev_share_sums[r] = sum;
  }

  const std::vector<PathInfo>& paths = workload_->paths();
  for (std::size_t p = 0; p < path_count; ++p) {
    const double latency = path_latencies[p];
    const bool changed =
        !primed || !SameBits(latency, state->prev_path_latencies[p]);
    if (!changed && prices->lambda[p] == 0.0 &&
        state->lambda_settled[p] != 0 &&
        state->lambda_zero_epochs[p] >= kRetireAfterEpochs) {
      ++state->lambda_zero_epochs[p];
      ++work.lambda_skipped;
      continue;
    }
    const double slack = 1.0 - latency / paths[p].critical_time_ms;
    const DynamicsStep ds =
        StepComponentDynamics(config, At(lambda_states, p), prices->lambda[p],
                              steps.path[p], slack, restarts);
    prices->lambda[p] = ds.value;
    ++work.lambda_updated;
    state->lambda_zero_epochs[p] =
        ds.settled ? state->lambda_zero_epochs[p] + 1 : 0;
    state->lambda_settled[p] = ds.settled ? 1 : 0;
    state->prev_path_latencies[p] = latency;
  }
  state->primed = true;

  for (double mu : prices->mu) {
    if (mu != 0.0) ++work.mu_nonzero;
  }
  for (double lambda : prices->lambda) {
    if (lambda != 0.0) ++work.lambda_nonzero;
  }
  return work;
}

std::vector<bool> PriceUpdater::ResourceCongestion(
    const Assignment& latencies) const {
  std::vector<bool> congested;
  ResourceCongestion(latencies, &congested);
  return congested;
}

void PriceUpdater::ResourceCongestion(const Assignment& latencies,
                                      std::vector<bool>* congested) const {
  congested->resize(workload_->resource_count());
  for (const ResourceInfo& resource : workload_->resources()) {
    const double share_sum =
        ResourceShareSum(*workload_, *model_, resource.id, latencies);
    (*congested)[resource.id.value()] = share_sum > resource.capacity;
  }
}

}  // namespace lla
