#include "core/prices.h"

#include <gtest/gtest.h>

#include "workloads/paper.h"

namespace lla {
namespace {

TEST(PriceVectorTest, ZeroAndUniformFactories) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  const PriceVector zero = PriceVector::Zero(w);
  EXPECT_EQ(zero.mu.size(), w.resource_count());
  EXPECT_EQ(zero.lambda.size(), w.path_count());
  for (double mu : zero.mu) EXPECT_DOUBLE_EQ(mu, 0.0);

  const PriceVector uniform = PriceVector::Uniform(w, 3.5, 0.25);
  for (double mu : uniform.mu) EXPECT_DOUBLE_EQ(mu, 3.5);
  for (double lambda : uniform.lambda) EXPECT_DOUBLE_EQ(lambda, 0.25);
}

TEST(PriceVectorTest, PathPriceSumAggregatesContainingPaths) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  PriceVector prices = PriceVector::Zero(w);
  // Task 1 has 5 paths (global ids 0..4); its root T11 lies on all five.
  for (std::size_t p = 0; p < 5; ++p) prices.lambda[p] = 1.0 + p;
  EXPECT_DOUBLE_EQ(prices.PathPriceSum(w, SubtaskId(0u)),
                   1.0 + 2.0 + 3.0 + 4.0 + 5.0);
  // Leaf T13 (local 2) lies on exactly one of them.
  const SubtaskInfo& leaf = w.subtask(SubtaskId(2u));
  ASSERT_EQ(leaf.paths.size(), 1u);
  EXPECT_DOUBLE_EQ(prices.PathPriceSum(w, leaf.id),
                   prices.lambda[leaf.paths[0].value()]);
  // Task 3's subtasks see only task 3's single path (price 0 here).
  EXPECT_DOUBLE_EQ(prices.PathPriceSum(w, SubtaskId(15u)), 0.0);
}

}  // namespace
}  // namespace lla
