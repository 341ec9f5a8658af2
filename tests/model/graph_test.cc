#include "model/graph.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

namespace lla {
namespace {

TEST(DagTest, SingleNode) {
  auto dag = Dag::Create(1, {});
  ASSERT_TRUE(dag.ok());
  EXPECT_EQ(dag.value().root(), 0);
  EXPECT_EQ(dag.value().leaves(), std::vector<int>{0});
  EXPECT_EQ(dag.value().paths().size(), 1u);
  EXPECT_EQ(dag.value().paths()[0], std::vector<int>{0});
  EXPECT_EQ(dag.value().path_counts(), std::vector<int>{1});
}

TEST(DagTest, FanOutTree) {
  // 0 -> 1 -> {2,3,4}: the task-1 shape of the paper workload.
  auto dag = Dag::Create(5, {{0, 1}, {1, 2}, {1, 3}, {1, 4}});
  ASSERT_TRUE(dag.ok());
  const Dag& d = dag.value();
  EXPECT_EQ(d.leaves(), (std::vector<int>{2, 3, 4}));
  EXPECT_EQ(d.paths().size(), 3u);
  EXPECT_EQ(d.path_counts(), (std::vector<int>{3, 3, 1, 1, 1}));
}

TEST(DagTest, DiamondMerge) {
  // 0 -> {1,2} -> 3: merging is allowed (DAG, not a tree).
  auto dag = Dag::Create(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  ASSERT_TRUE(dag.ok());
  const Dag& d = dag.value();
  EXPECT_EQ(d.leaves(), std::vector<int>{3});
  EXPECT_EQ(d.paths().size(), 2u);
  EXPECT_EQ(d.path_counts(), (std::vector<int>{2, 1, 1, 2}));
}

TEST(DagTest, PaperTask2Shape) {
  // 0 -> 1 -> {2,3}; 3 -> {4,5}; 5 -> 6 -> 7.
  auto dag = Dag::Create(
      8, {{0, 1}, {1, 2}, {1, 3}, {3, 4}, {3, 5}, {5, 6}, {6, 7}});
  ASSERT_TRUE(dag.ok());
  const Dag& d = dag.value();
  EXPECT_EQ(d.paths().size(), 3u);
  // Paths in deterministic (lexicographic) order.
  EXPECT_EQ(d.paths()[0], (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(d.paths()[1], (std::vector<int>{0, 1, 3, 4}));
  EXPECT_EQ(d.paths()[2], (std::vector<int>{0, 1, 3, 5, 6, 7}));
  EXPECT_EQ(d.path_counts(), (std::vector<int>{3, 3, 1, 2, 1, 1, 1, 1}));
}

TEST(DagTest, TopoOrderRespectsEdges) {
  auto dag = Dag::Create(6, {{0, 2}, {0, 1}, {1, 3}, {2, 3}, {3, 4}, {3, 5}});
  ASSERT_TRUE(dag.ok());
  const auto& topo = dag.value().topo_order();
  std::vector<int> position(6);
  for (std::size_t i = 0; i < topo.size(); ++i) position[topo[i]] = i;
  for (const auto& [from, to] : dag.value().edges()) {
    EXPECT_LT(position[from], position[to]);
  }
}

TEST(DagTest, PathCountEqualsEnumeratedPaths) {
  auto dag = Dag::Create(7, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4},
                             {3, 5}, {4, 6}, {5, 6}});
  ASSERT_TRUE(dag.ok());
  const Dag& d = dag.value();
  // Count occurrences of each node across enumerated paths and compare with
  // path_counts().
  std::vector<int> counted(7, 0);
  for (const auto& path : d.paths()) {
    for (int v : path) ++counted[v];
  }
  EXPECT_EQ(counted, d.path_counts());
}

TEST(DagTest, RejectsEmptyGraph) {
  EXPECT_FALSE(Dag::Create(0, {}).ok());
}

TEST(DagTest, RejectsSelfLoop) {
  auto dag = Dag::Create(2, {{0, 1}, {1, 1}});
  ASSERT_FALSE(dag.ok());
  EXPECT_NE(dag.error().find("self loop"), std::string::npos);
}

TEST(DagTest, RejectsDuplicateEdge) {
  auto dag = Dag::Create(2, {{0, 1}, {0, 1}});
  ASSERT_FALSE(dag.ok());
  EXPECT_NE(dag.error().find("duplicate"), std::string::npos);
}

TEST(DagTest, RejectsInvalidNode) {
  EXPECT_FALSE(Dag::Create(2, {{0, 5}}).ok());
  EXPECT_FALSE(Dag::Create(2, {{-1, 1}}).ok());
}

TEST(DagTest, RejectsCycle) {
  auto dag = Dag::Create(3, {{0, 1}, {1, 2}, {2, 1}});
  ASSERT_FALSE(dag.ok());
}

TEST(DagTest, RejectsMultipleRoots) {
  auto dag = Dag::Create(3, {{0, 2}, {1, 2}});
  ASSERT_FALSE(dag.ok());
  EXPECT_NE(dag.error().find("multiple roots"), std::string::npos);
}

TEST(DagTest, RejectsPureCycleWithNoRoot) {
  auto dag = Dag::Create(2, {{0, 1}, {1, 0}});
  ASSERT_FALSE(dag.ok());
  EXPECT_NE(dag.error().find("no root"), std::string::npos);
}

// Property: for random-ish layered DAGs, every enumerated path starts at the
// root, ends at a leaf, and follows edges.
class DagPathProperty : public ::testing::TestWithParam<int> {};

TEST_P(DagPathProperty, PathsAreWellFormed) {
  const int width = GetParam();
  // Layered DAG: root -> layer of `width` -> single sink.
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < width; ++i) {
    edges.push_back({0, 1 + i});
    edges.push_back({1 + i, 1 + width});
  }
  auto dag = Dag::Create(width + 2, edges);
  ASSERT_TRUE(dag.ok());
  const Dag& d = dag.value();
  EXPECT_EQ(d.paths().size(), static_cast<std::size_t>(width));
  std::set<std::pair<int, int>> edge_set(d.edges().begin(), d.edges().end());
  for (const auto& path : d.paths()) {
    EXPECT_EQ(path.front(), d.root());
    EXPECT_TRUE(d.successors(path.back()).empty());
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      EXPECT_TRUE(edge_set.count({path[i], path[i + 1]}));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, DagPathProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

}  // namespace
}  // namespace lla
