#include "model/graph.h"

#include <algorithm>
#include <deque>
#include <set>
#include <sstream>

namespace lla {

Expected<Dag> Dag::Create(int node_count,
                          std::vector<std::pair<int, int>> edges) {
  if (node_count < 1) {
    return Expected<Dag>::Error("Dag: node_count must be >= 1");
  }
  std::set<std::pair<int, int>> seen;
  for (const auto& [from, to] : edges) {
    if (from < 0 || from >= node_count || to < 0 || to >= node_count) {
      std::ostringstream os;
      os << "Dag: edge (" << from << "," << to << ") references invalid node";
      return Expected<Dag>::Error(os.str());
    }
    if (from == to) {
      std::ostringstream os;
      os << "Dag: self loop at node " << from;
      return Expected<Dag>::Error(os.str());
    }
    if (!seen.insert({from, to}).second) {
      std::ostringstream os;
      os << "Dag: duplicate edge (" << from << "," << to << ")";
      return Expected<Dag>::Error(os.str());
    }
  }

  Dag dag;
  dag.node_count_ = node_count;
  // (fields below overwrite the empty-placeholder defaults)
  dag.edges_ = std::move(edges);
  dag.succ_.assign(node_count, {});
  dag.pred_.assign(node_count, {});
  for (const auto& [from, to] : dag.edges_) {
    dag.succ_[from].push_back(to);
    dag.pred_[to].push_back(from);
  }
  for (auto& s : dag.succ_) std::sort(s.begin(), s.end());
  for (auto& p : dag.pred_) std::sort(p.begin(), p.end());

  // Unique root.
  int root = -1;
  for (int v = 0; v < node_count; ++v) {
    if (dag.pred_[v].empty()) {
      if (root != -1) {
        std::ostringstream os;
        os << "Dag: multiple roots (nodes " << root << " and " << v << ")";
        return Expected<Dag>::Error(os.str());
      }
      root = v;
    }
  }
  if (root == -1) {
    return Expected<Dag>::Error("Dag: no root (graph contains a cycle)");
  }
  dag.root_ = root;

  // Kahn topological sort; detects cycles.
  std::vector<int> indegree(node_count);
  for (int v = 0; v < node_count; ++v) {
    indegree[v] = static_cast<int>(dag.pred_[v].size());
  }
  std::deque<int> ready{root};
  std::vector<int> topo;
  topo.reserve(node_count);
  while (!ready.empty()) {
    const int v = ready.front();
    ready.pop_front();
    topo.push_back(v);
    for (int w : dag.succ_[v]) {
      if (--indegree[w] == 0) ready.push_back(w);
    }
  }
  if (static_cast<int>(topo.size()) != node_count) {
    return Expected<Dag>::Error(
        "Dag: graph contains a cycle or nodes unreachable from the root");
  }
  dag.topo_ = std::move(topo);

  if (!dag.ComputeDerived()) {
    std::ostringstream os;
    os << "Dag: the root-to-leaf paths would hold more than the limit of "
       << kMaxPathEntries << " entries";
    return Expected<Dag>::Error(os.str());
  }
  return dag;
}

bool Dag::ComputeDerived() {
  leaves_.clear();
  for (int v = 0; v < node_count_; ++v) {
    if (succ_[v].empty()) leaves_.push_back(v);
  }

  // up[v] = #paths root->v, down[v] = #paths v->any leaf; paths through v =
  // up[v] * down[v].  Every count saturates at kCap, so each product stays
  // below 2^50, and a saturated count already puts the total past the limit.
  constexpr std::int64_t kCap = kMaxPathEntries + 1;
  std::vector<std::int64_t> up(node_count_, 0), down(node_count_, 0);
  up[root_] = 1;
  for (int v : topo_) {
    for (int w : succ_[v]) up[w] = std::min(up[w] + up[v], kCap);
  }
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    const int v = *it;
    if (succ_[v].empty()) {
      down[v] = 1;
    } else {
      for (int w : succ_[v]) down[v] = std::min(down[v] + down[w], kCap);
    }
  }
  std::int64_t entries = 0;
  path_counts_.assign(node_count_, 0);
  for (int v = 0; v < node_count_; ++v) {
    const std::int64_t through = std::min(up[v] * down[v], kCap);
    path_counts_[v] = static_cast<int>(through);
    entries = std::min(entries + through, kCap);
  }
  if (entries > kMaxPathEntries) return false;

  // Iterative DFS from the root keeping the current path (successor lists
  // are sorted, so the order is deterministic).
  paths_.clear();
  struct Frame {
    int node;
    std::size_t next_succ;
  };
  std::vector<Frame> frames{{root_, 0}};
  std::vector<int> current{root_};
  while (!frames.empty()) {
    Frame& top = frames.back();
    const auto& succs = succ_[top.node];
    if (succs.empty() && top.next_succ == 0) {
      paths_.push_back(current);
      ++top.next_succ;  // mark emitted
    }
    if (top.next_succ >= succs.size() || succs.empty()) {
      frames.pop_back();
      current.pop_back();
      continue;
    }
    const int child = succs[top.next_succ++];
    frames.push_back({child, 0});
    current.push_back(child);
  }
  return true;
}

}  // namespace lla
