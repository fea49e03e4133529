// Perfect pebbling of complete bipartite components (Lemma 3.2,
// Theorem 3.2, Theorem 4.1).
//
// Equijoin join graphs are disjoint unions of complete bipartite graphs;
// each K_{k,l} is pebbled perfectly (π = m) by the boustrophedon order
// (u₁,v₁), (u₁,v₂), …, (u₁,v_l), (u₂,v_l), (u₂,v_{l−1}), … — the shape of
// the merge phase of sort-merge join. Runs in O(m) time: one sweep writes
// each edge once, at its place in the order.

#ifndef PEBBLEJOIN_SOLVER_SORT_MERGE_PEBBLER_H_
#define PEBBLEJOIN_SOLVER_SORT_MERGE_PEBBLER_H_

#include "solver/pebbler.h"

namespace pebblejoin {

// Pebbles connected complete bipartite graphs perfectly. Returns nullopt if
// the input component is not complete bipartite.
class SortMergePebbler : public Pebbler {
 public:
  using Pebbler::PebbleConnected;

  std::string name() const override { return "sort-merge"; }
  std::optional<std::vector<int>> PebbleConnected(
      const Graph& g, BudgetContext& budget) const override;

  // The same sweep over one component of a decomposed graph, read in place
  // from the graph and its decomposition: no subgraph is extracted. A
  // component that is not complete bipartite is declined as
  // PebbleConnected declines it (sort-merge:unsupported).
  bool PebbleComponent(ComponentRef& component, BudgetContext& budget,
                       SolveOutcome* outcome,
                       std::vector<int>* order) const override;
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_SOLVER_SORT_MERGE_PEBBLER_H_
