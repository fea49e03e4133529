#include "solver/exact_pebbler.h"

#include <algorithm>
#include <utility>

#include "graph/line_graph.h"
#include "obs/trace.h"
#include "pebble/cost_model.h"
#include "tsp/held_karp.h"
#include "util/check.h"

namespace pebblejoin {

std::optional<std::vector<int>> ExactPebbler::PebbleConnected(
    const Graph& g, BudgetContext& budget) const {
  JP_CHECK(g.num_edges() >= 1);
  // Soft time cap, clamped to the structural branch-and-bound ceiling so an
  // oversized user option can never trip the solver's internal JP_CHECK.
  const int max_edges =
      std::min(options_.max_edges, kBranchAndBoundMaxNodes);
  if (g.num_edges() > max_edges) return std::nullopt;
  if (budget.Expired()) return std::nullopt;

  Graph line = BuildLineGraph(g);
  const Tsp12Instance instance(std::move(line));

  // Dispatch: Held–Karp while its 2^n · n table fits the memory ceiling
  // (the budget's, or the default); branch and bound beyond. One derived
  // threshold, not two constants.
  const bool use_held_karp =
      instance.num_nodes() <=
      MaxHeldKarpNodesForMemory(
          budget.MemoryLimitOr(kDefaultHeldKarpTableBytes));
  if (TraceSession* trace = budget.trace()) {
    trace->Instant(
        "exact-dispatch", "solver",
        {TraceArg::Str("method", use_held_karp ? "held-karp"
                                               : "branch-and-bound"),
         TraceArg::Num("line_nodes", instance.num_nodes())});
  }
  if (use_held_karp) {
    // A deadline expiry mid-DP legitimately yields nothing.
    std::optional<TspPathResult> result = HeldKarpSolve(instance, budget);
    if (!result.has_value()) return std::nullopt;
    return result->tour;
  }

  BranchAndBoundOptions bnb;
  bnb.node_budget = options_.bnb_node_budget;
  BranchAndBoundResult result = BranchAndBoundSolve(instance, bnb, budget);
  if (!result.proven_optimal) {
    // Exactness is the contract, so an unproven incumbent is discarded.
    // Distinguish "our own node budget ran dry" (a recoverable decline —
    // ladder rungs below still apply) from a shared-budget stop, which the
    // caller reads off the context itself.
    if (!budget.stopped() && result.budget_exhausted) {
      budget.NoteDecline(SolveDecline::kLocalBudgetExhausted);
    }
    return std::nullopt;
  }
  return result.best.tour;
}

std::optional<int64_t> ExactPebbler::OptimalEffectiveCost(
    const Graph& g) const {
  std::optional<std::vector<int>> order = PebbleConnected(g);
  if (!order.has_value()) return std::nullopt;
  // Effective cost of a connected graph's edge order: m + jumps.
  return static_cast<int64_t>(order->size()) + JumpsOfEdgeOrder(g, *order);
}

}  // namespace pebblejoin
