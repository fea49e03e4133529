// Greedy edge-walk pebbler.
//
// Walks the graph deleting an adjacent undeleted edge whenever one exists
// (preferring the move whose new frontier vertex has the fewest undeleted
// incident edges) and jumping to an arbitrary undeleted edge otherwise.
// Always valid; cost at most 2m (Lemma 2.1's trivial upper bound), usually
// far better. Runs in near-linear time and serves as the baseline
// constructive heuristic and as the seed for local search.

#ifndef PEBBLEJOIN_SOLVER_GREEDY_WALK_PEBBLER_H_
#define PEBBLEJOIN_SOLVER_GREEDY_WALK_PEBBLER_H_

#include "solver/pebbler.h"

namespace pebblejoin {

class GreedyWalkPebbler : public Pebbler {
 public:
  using Pebbler::PebbleConnected;

  std::string name() const override { return "greedy-walk"; }
  std::optional<std::vector<int>> PebbleConnected(
      const Graph& g, BudgetContext& budget) const override;
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_SOLVER_GREEDY_WALK_PEBBLER_H_
