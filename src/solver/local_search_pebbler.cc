#include "solver/local_search_pebbler.h"

#include <algorithm>
#include <utility>

#include "graph/line_graph.h"
#include "pebble/cost_model.h"
#include "solver/dfs_tree_pebbler.h"
#include "solver/greedy_walk_pebbler.h"
#include "tsp/tour.h"
#include "tsp/tsp12.h"
#include "util/check.h"

namespace pebblejoin {

std::optional<std::vector<int>> LocalSearchPebbler::PebbleConnected(
    const Graph& g, BudgetContext& budget) const {
  JP_CHECK(g.num_edges() >= 1);

  // Seed tours. Under a live budget either seeder may decline (deadline hit
  // mid-walk); with no seed there is no incumbent to improve or return.
  const GreedyWalkPebbler greedy;
  std::optional<std::vector<int>> seed = greedy.PebbleConnected(g, budget);
  const DfsTreePebbler dfs(max_line_graph_edges_);
  std::optional<std::vector<int>> dfs_order = dfs.PebbleConnected(g, budget);
  if (dfs_order.has_value() &&
      (!seed.has_value() ||
       JumpsOfEdgeOrder(g, *dfs_order) < JumpsOfEdgeOrder(g, *seed))) {
    seed = std::move(dfs_order);
  }
  if (!seed.has_value()) return std::nullopt;
  if (budget.Expired()) return seed;  // best incumbent

  // Improve over the line graph if it fits the budgets; otherwise return the
  // seed unimproved. LocalSearchImprove is anytime: a deadline mid-descent
  // leaves a valid (partially improved) tour.
  int64_t max_line_edges = max_line_graph_edges_;
  if (budget.budget().has_memory_limit()) {
    max_line_edges = std::min(
        max_line_edges,
        MaxLineGraphEdgesForMemory(budget.budget().memory_limit_bytes));
  }
  std::optional<Graph> line = BuildLineGraphWithBudget(g, max_line_edges);
  if (!line.has_value()) return seed;
  const Tsp12Instance instance(*std::move(line));
  Tour tour = *std::move(seed);
  LocalSearchImprove(instance, &tour, budget);
  return tour;
}

}  // namespace pebblejoin
