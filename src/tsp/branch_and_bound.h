// Exact TSP-(1,2) path solver by depth-first branch and bound.
//
// Complements Held–Karp: no exponential memory, and effective on structured
// instances beyond 20 nodes, at the price of a node budget after which it
// reports the best tour found so far as non-optimal. Used for the
// exact-solver scaling experiment (the executable face of Theorem 4.2's
// NP-completeness) and as ground truth on mid-size instances.
//
// The admissible lower bound generalizes the B⁺/B⁻ counting argument of
// Theorem 3.3: any completion must pay at least one jump per additional
// connected component of the good graph induced on the unvisited nodes, plus
// a jump to leave the current endpoint if it has no unvisited good neighbor,
// plus ⌈(z − 1)/1⌉-style penalties for isolated unvisited nodes (each
// isolated node must be entered and left by bad edges, except tour ends).

#ifndef PEBBLEJOIN_TSP_BRANCH_AND_BOUND_H_
#define PEBBLEJOIN_TSP_BRANCH_AND_BOUND_H_

#include <cstdint>

#include "tsp/held_karp.h"
#include "tsp/tour.h"
#include "tsp/tsp12.h"
#include "util/budget.h"

namespace pebblejoin {

// Structural instance ceiling (adjacency bitmasks are uint64). Instances
// beyond this are rejected up front by callers, never JP_CHECK-aborted on
// user input.
inline constexpr int kBranchAndBoundMaxNodes = 64;

// Options controlling search effort.
struct BranchAndBoundOptions {
  // Maximum number of search-tree nodes expanded before giving up on
  // optimality. The best tour found so far is still returned.
  int64_t node_budget = 5'000'000;
  // Ablation switches for the two admissible lower bounds (bench_ablation
  // measures their pruning power; disabling both degrades to plain DFS
  // with incumbent pruning — still exact, exponentially slower).
  bool use_component_bound = true;
  bool use_deficiency_bound = true;
};

// Outcome of a branch-and-bound solve.
struct BranchAndBoundResult {
  TspPathResult best;        // best tour found (always a valid tour)
  bool proven_optimal = false;
  bool deadline_expired = false;  // stopped by the budget's wall clock
  bool budget_exhausted = false;  // stopped by a node budget (local or shared)
  int64_t nodes_expanded = 0;
  // Search-tree cuts attributed to the admissible bound that was largest at
  // the cut (the numbers bench_ablation's pruning-power claim rests on).
  int64_t prunes_component = 0;
  int64_t prunes_deficiency = 0;
  // Times a strictly better tour replaced the incumbent mid-search.
  int64_t incumbent_updates = 0;
};

// Solves (or approximates, if a budget runs out) the instance. Requires
// 1 <= num_nodes <= kBranchAndBoundMaxNodes. `budget` adds a wall-clock
// deadline and a shared cross-solver node budget on top of
// options.node_budget; whenever the search is cut short, the best incumbent
// found so far is still returned (it is always a valid tour — the heuristic
// primer runs before the search starts).
BranchAndBoundResult BranchAndBoundSolve(const Tsp12Instance& instance,
                                         const BranchAndBoundOptions& options,
                                         BudgetContext& budget);

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_TSP_BRANCH_AND_BOUND_H_
