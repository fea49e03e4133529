// The Theorem 3.1 construction: pebbling any connected graph with effective
// cost at most m + ⌊(m−1)/4⌋ (the integral form of 1.25m − 1).
//
// Works on the line graph L(G), which is claw-free. A DFS tree of a
// claw-free graph has at most two children per node (children of a DFS node
// are pairwise non-adjacent, so three children plus the parent edge would be
// an induced K_{1,3}). The procedure, following the paper's proof with the
// case analysis made fully explicit:
//
//   1. Build a DFS tree of L(G).
//   2. Twin elimination: while some node p has two leaf children l₁, l₂,
//      restructure using a guaranteed adjacency (claw-freeness means that
//      among {parent(p), l₁, l₂} — all neighbors of p — some pair is
//      adjacent) so that the twin disappears; every restructure strictly
//      increases the depth sum, so this terminates.
//   3. Peel: pick the deepest node r with ≥ 4 descendants. Below r every
//      node has at most one child (a node below r with two children would
//      have exactly three descendants, i.e. two leaf children — a twin),
//      so the subtree of r is a path through r (≤ 2 legs). Emit it as one
//      segment and delete it; the remaining tree stays connected. Re-run
//      twin elimination and repeat while ≥ 4 nodes remain.
//   4. The ≤ 3 remaining nodes form a tree, hence a path: the final segment.
//
// All segments except possibly the last have ≥ 4 nodes, so the number of
// jumps (segment boundaries) is at most ⌊(m−1)/4⌋, giving
// π ≤ m + ⌊(m−1)/4⌋. Each segment is a Hamiltonian path of its nodes inside
// L(G), i.e. a run of pairwise-consecutive edges of G.
//
// The line graph is materialized explicitly, so memory is
// O(Σ deg(v)²); PebbleConnected returns nullopt beyond a size budget
// (the component driver falls back to the greedy walk there).

#ifndef PEBBLEJOIN_SOLVER_DFS_TREE_PEBBLER_H_
#define PEBBLEJOIN_SOLVER_DFS_TREE_PEBBLER_H_

#include <cstdint>

#include "solver/pebbler.h"

namespace pebblejoin {

class DfsTreePebbler : public Pebbler {
 public:
  using Pebbler::PebbleConnected;

  // `max_line_graph_edges` bounds the materialized L(G); a BudgetContext
  // with an explicit memory ceiling tightens it further (see
  // MaxLineGraphEdgesForMemory in line_graph.h).
  explicit DfsTreePebbler(int64_t max_line_graph_edges = 50'000'000)
      : max_line_graph_edges_(max_line_graph_edges) {}

  std::string name() const override { return "dfs-tree"; }
  std::optional<std::vector<int>> PebbleConnected(
      const Graph& g, BudgetContext& budget) const override;

 private:
  int64_t max_line_graph_edges_;
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_SOLVER_DFS_TREE_PEBBLER_H_
