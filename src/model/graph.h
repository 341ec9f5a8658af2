// Subtask-graph DAG (paper Sec. 2).
//
// A task's subtasks are related by a precedence DAG with a unique root (the
// start subtask); leaves are end subtasks; every root-to-leaf sequence is a
// "path".  The optimizer needs (a) the explicit path list for the per-path
// critical-time constraints (Eq. 4) and (b) the number of paths through each
// node for the *path-weighted* utility variant (Sec. 3.2).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/expected.h"

namespace lla {

/// Most path entries (path lengths summed over all root-to-leaf paths) one
/// workload may hold: a Dag or a Workload past it is refused.  Paths grow
/// exponentially with depth (a chain of 26 diamonds, 79 nodes, has 2^26), so
/// a few-KB `.lla` file could otherwise demand any amount of memory.  The
/// largest tier, random_1m, holds 1,478,828 entries, about an eleventh.
inline constexpr std::int64_t kMaxPathEntries = std::int64_t{1} << 24;

/// Immutable validated DAG over nodes [0, n).  Node indices are local to the
/// owning task.
class Dag {
 public:
  /// Empty placeholder (node_count 0); only useful as a to-be-assigned slot.
  Dag() = default;

  /// Validates and builds.  Requirements: n >= 1; edges reference valid
  /// nodes; no self loops or duplicate edges; acyclic; exactly one node with
  /// in-degree zero (the root); every node reachable from the root; at most
  /// kMaxPathEntries path entries, counted before any path is built.
  static Expected<Dag> Create(int node_count,
                              std::vector<std::pair<int, int>> edges);

  /// Convenience: a simple chain 0 -> 1 -> ... -> n-1.
  static Dag Chain(int node_count);

  int node_count() const { return node_count_; }
  int root() const { return root_; }
  const std::vector<std::pair<int, int>>& edges() const { return edges_; }
  const std::vector<int>& leaves() const { return leaves_; }
  const std::vector<int>& successors(int node) const { return succ_[node]; }
  const std::vector<int>& predecessors(int node) const { return pred_[node]; }

  /// Nodes in a topological order (root first).
  const std::vector<int>& topo_order() const { return topo_; }

  /// All root-to-leaf paths, each as a sequence of node indices.
  /// Deterministic order (lexicographic by successor index).
  const std::vector<std::vector<int>>& paths() const { return paths_; }

  /// Number of root-to-leaf paths passing through each node (the
  /// path-weighted utility weights).  Their sum is the path entries.
  const std::vector<int>& path_counts() const { return path_counts_; }

 private:
  /// Fills leaves_, path_counts_ and paths_; false, before any path is
  /// built, when the paths would hold more than kMaxPathEntries entries.
  bool ComputeDerived();

  int node_count_ = 0;
  int root_ = 0;
  std::vector<std::pair<int, int>> edges_;
  std::vector<std::vector<int>> succ_;
  std::vector<std::vector<int>> pred_;
  std::vector<int> leaves_;
  std::vector<int> topo_;
  std::vector<std::vector<int>> paths_;
  std::vector<int> path_counts_;
};

}  // namespace lla
