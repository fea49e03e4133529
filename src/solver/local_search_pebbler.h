// Local-search pebbler: seeds with the better of greedy-walk and DFS-tree
// orders, then improves the edge order with 2-opt/Or-opt over the completed
// line graph (Proposition 2.2 makes edge orders and L(G) tours the same
// object). This is the strongest polynomial-time solver in the library and
// plays the role of the constant-factor approximations the paper cites
// (the 7/6 algorithm of Papadimitriou–Yannakakis [12]).

#ifndef PEBBLEJOIN_SOLVER_LOCAL_SEARCH_PEBBLER_H_
#define PEBBLEJOIN_SOLVER_LOCAL_SEARCH_PEBBLER_H_

#include <cstdint>

#include "solver/pebbler.h"
#include "tsp/local_search.h"

namespace pebblejoin {

class LocalSearchPebbler : public Pebbler {
 public:
  using Pebbler::PebbleConnected;

  explicit LocalSearchPebbler(int64_t max_line_graph_edges = 20'000'000)
      : max_line_graph_edges_(max_line_graph_edges) {}

  std::string name() const override { return "local-search"; }
  // Deadline-aware and anytime: under a budget it returns its best incumbent
  // (seed or partially improved order) rather than failing, as long as a
  // seed was constructed before the deadline hit.
  std::optional<std::vector<int>> PebbleConnected(
      const Graph& g, BudgetContext& budget) const override;

 private:
  int64_t max_line_graph_edges_;
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_SOLVER_LOCAL_SEARCH_PEBBLER_H_
