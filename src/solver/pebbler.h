// Solver interface for the PEBBLE problem (Definition 4.1).
//
// A Pebbler consumes a *connected* graph and produces an edge order — a
// permutation of the graph's edge ids — whose induced scheme (see
// pebble/pebbling_scheme.h) pebbles the graph. Effective cost of the order
// is m + jumps. The ComponentPebbler wraps any Pebbler to handle arbitrary
// (disconnected) graphs, which by the additivity lemma 2.2 loses nothing.
//
// Every solve runs under a BudgetContext (util/budget.h) carrying the
// request's wall-clock deadline, node budget, and memory ceiling.
// Cancellation is cooperative — a solver polls the context in its hot loop
// and returns either its best valid incumbent or std::nullopt, never a
// partial order. The public pointer entry points accept nullptr and turn it
// into a local unlimited context once; every override takes the context by
// reference, so "no budget" has exactly one meaning inside the solvers.

#ifndef PEBBLEJOIN_SOLVER_PEBBLER_H_
#define PEBBLEJOIN_SOLVER_PEBBLER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "solver/solve_outcome.h"
#include "util/budget.h"

namespace pebblejoin {

// Abstract base for connected-graph pebblers.
class Pebbler {
 public:
  virtual ~Pebbler() = default;

  // Short stable identifier, e.g. "dfs-tree".
  virtual std::string name() const = 0;

  // Produces an edge order for connected `g` (every vertex non-isolated,
  // one component, at least one edge). Returns nullopt when the solver
  // cannot handle the instance (e.g. SortMergePebbler on a non-complete-
  // bipartite graph, ExactPebbler beyond its size limits) or when `budget`
  // stops the solve before any incumbent exists. A null `budget` solves
  // under a local unlimited context.
  std::optional<std::vector<int>> PebbleConnected(
      const Graph& g, BudgetContext* budget = nullptr) const;
  virtual std::optional<std::vector<int>> PebbleConnected(
      const Graph& g, BudgetContext& budget) const = 0;

  // Like PebbleConnected but also reports provenance. The default wraps the
  // solve in a single-rung SolveOutcome, classifying a refusal via the
  // budget's stop reason / decline note; FallbackPebbler overrides it with
  // the full degradation ladder. `outcome` must be non-null; a null
  // `budget` solves under a local unlimited context.
  std::optional<std::vector<int>> PebbleWithOutcome(
      const Graph& g, BudgetContext* budget, SolveOutcome* outcome) const;
  virtual std::optional<std::vector<int>> PebbleWithOutcome(
      const Graph& g, BudgetContext& budget, SolveOutcome* outcome) const;

  // Whether a successful unstopped solve is proven optimal (sets the rung
  // status to kOptimal rather than kCompleted).
  virtual bool is_exact() const { return false; }
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_SOLVER_PEBBLER_H_
