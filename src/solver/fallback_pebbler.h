// Graceful-degradation ladder over every pebbler in the library.
//
// A production request must always get a valid scheme, even when the exact
// solvers (the executable face of Theorem 4.2's NP-completeness) cannot
// finish inside the request's budget. The ladder descends through
//
//   exact  ->  ils  ->  local-search  ->  dfs-tree  ->  greedy-walk
//
// taking the first rung that produces an order. The first three rungs run
// under the shared BudgetContext and so respect the deadline, node budget
// and memory ceiling. The dfs-tree rung is the guaranteed terminator: it is
// polynomial (Theorem 3.1, cost <= m + floor((m-1)/4)), so it runs with the
// memory ceiling only — never the deadline — and can only decline when the
// materialized line graph misses that ceiling. In that last case the greedy
// walk (cost <= 2m, no auxiliary structures) answers unbudgeted.
//
// PebbleWithOutcome reports the full provenance: every rung attempted, why
// each stopped (SolveOutcome::attempts), which one won, and whether the
// result is degraded relative to what an unbudgeted solve would have tried.

#ifndef PEBBLEJOIN_SOLVER_FALLBACK_PEBBLER_H_
#define PEBBLEJOIN_SOLVER_FALLBACK_PEBBLER_H_

#include <cstdint>

#include "solver/exact_pebbler.h"
#include "solver/ils_pebbler.h"
#include "solver/pebbler.h"
#include "tsp/local_search.h"

namespace pebblejoin {

class LadderPlanner;

class FallbackPebbler : public Pebbler {
 public:
  struct Options {
    ExactPebbler::Options exact;
    IlsPebbler::Options ils;
    LocalSearchOptions local_search;
    // Soft cap on the materialized L(G) for the heuristic rungs; a budget
    // memory ceiling tightens it further inside each rung.
    int64_t max_line_graph_edges = 20'000'000;
    // Calibrated dispatch (solver/ladder_planner.h). Null — the default —
    // is the blind ladder: rung iteration starts at exact with no per-rung
    // caps, byte-identical to the pre-planner sequence. Non-null, each
    // descent is planned from the component's GraphFeatures (reusing the
    // classify-stage vector on BudgetContext::features() when the request
    // is a single component) and the remaining deadline: the plan picks
    // the starting rung, may cap the exact rung's wall clock, and records
    // `plan` provenance on the SolveOutcome, SolveStats and the journal
    // (`ladder.plan`). Borrowed; must outlive every solve.
    const LadderPlanner* planner = nullptr;
  };

  using Pebbler::PebbleConnected;

  FallbackPebbler() : options_(Options()) {}
  explicit FallbackPebbler(Options options) : options_(options) {}

  std::string name() const override { return "fallback"; }

  // Always returns an order for a connected graph: the greedy-walk safety
  // net cannot decline.
  std::optional<std::vector<int>> PebbleConnected(
      const Graph& g, BudgetContext* budget) const override;

  // The ladder with full provenance. `outcome->attempts` lists every rung
  // tried in order; `outcome->degradation` is the first budget-induced cut
  // (deadline/node-budget/memory) on the way down, or kCompleted when the
  // winning rung was reached without one.
  std::optional<std::vector<int>> PebbleWithOutcome(
      const Graph& g, BudgetContext* budget,
      SolveOutcome* outcome) const override;

 private:
  Options options_;
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_SOLVER_FALLBACK_PEBBLER_H_
