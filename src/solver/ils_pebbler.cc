#include "solver/ils_pebbler.h"

#include <algorithm>
#include <utility>

#include "graph/line_graph.h"
#include "obs/solve_stats.h"
#include "pebble/cost_model.h"
#include "solver/local_search_pebbler.h"
#include "tsp/tour.h"
#include "tsp/tsp12.h"
#include "util/check.h"
#include "util/random.h"

namespace pebblejoin {

namespace {

// Double bridge: cut the tour into four segments A|B|C|D and reassemble as
// A|C|B|D. The canonical ILS kick for path/tour problems.
Tour DoubleBridge(const Tour& tour, Rng* rng) {
  const int n = static_cast<int>(tour.size());
  if (n < 8) return tour;
  // Three distinct interior cut points, sorted.
  int cuts[3];
  cuts[0] = 1 + static_cast<int>(rng->UniformInt(n - 3));
  cuts[1] = 1 + static_cast<int>(rng->UniformInt(n - 3));
  cuts[2] = 1 + static_cast<int>(rng->UniformInt(n - 3));
  std::sort(cuts, cuts + 3);
  if (cuts[0] == cuts[1] || cuts[1] == cuts[2]) return tour;

  Tour out;
  out.reserve(n);
  out.insert(out.end(), tour.begin(), tour.begin() + cuts[0]);
  out.insert(out.end(), tour.begin() + cuts[1], tour.begin() + cuts[2]);
  out.insert(out.end(), tour.begin() + cuts[0], tour.begin() + cuts[1]);
  out.insert(out.end(), tour.begin() + cuts[2], tour.end());
  return out;
}

}  // namespace

std::optional<std::vector<int>> IlsPebbler::PebbleConnected(
    const Graph& g, BudgetContext& budget) const {
  JP_CHECK(g.num_edges() >= 1);

  // Baseline: the full local-search pipeline. It is itself budget-aware and
  // only declines when no seed could be built before the deadline.
  const LocalSearchPebbler local(options_.max_line_graph_edges);
  std::optional<std::vector<int>> best = local.PebbleConnected(g, budget);
  if (!best.has_value()) return std::nullopt;
  int64_t best_jumps = JumpsOfEdgeOrder(g, *best);
  if (best_jumps == 0) return best;  // already perfect

  int64_t max_line_edges = options_.max_line_graph_edges;
  if (budget.budget().has_memory_limit()) {
    max_line_edges = std::min(
        max_line_edges,
        MaxLineGraphEdgesForMemory(budget.budget().memory_limit_bytes));
  }
  std::optional<Graph> line = BuildLineGraphWithBudget(g, max_line_edges);
  if (!line.has_value()) return best;  // too big to improve further
  const Tsp12Instance instance(*std::move(line));

  Rng rng(options_.seed);
  int64_t iterations = 0;
  int64_t kicks_accepted = 0;
  for (int round = 0; round < options_.iterations && best_jumps > 0;
       ++round) {
    // Deadline-aware rounds: stopping here returns the incumbent `best`,
    // which is always a complete, valid order.
    if (budget.Expired()) break;
    ++iterations;
    Tour candidate = DoubleBridge(*best, &rng);
    LocalSearchImprove(instance, &candidate, budget);
    const int64_t jumps = TourJumps(instance, candidate);
    if (jumps < best_jumps) {
      best_jumps = jumps;
      *best = std::move(candidate);
      ++kicks_accepted;
    }
  }
  if (SolveStats* stats = budget.stats()) {
    stats->ils_iterations += iterations;
    stats->ils_kicks_accepted += kicks_accepted;
  }
  return best;
}

}  // namespace pebblejoin
