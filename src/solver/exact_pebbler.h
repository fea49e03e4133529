// Exact optimal pebbling via Proposition 2.2: an optimal pebbling of a
// connected G is an optimal TSP-(1,2) path over the completed line graph
// L(G), with π(G) = optimal tour cost + 1. Dispatches to Held–Karp while the
// DP table fits the memory ceiling (MaxHeldKarpNodesForMemory — the single
// source of that threshold) and to branch and bound beyond it.
//
// This is the executable face of Theorem 4.2's NP-completeness: its running
// time grows exponentially in m (see bench_exact_scaling), which is why the
// polynomial solvers above exist. Budgets make that tractable to operate:
// the BudgetContext adds a wall-clock deadline, a shared node
// budget, and the memory ceiling that moves the Held–Karp/B&B dispatch.

#ifndef PEBBLEJOIN_SOLVER_EXACT_PEBBLER_H_
#define PEBBLEJOIN_SOLVER_EXACT_PEBBLER_H_

#include <cstdint>

#include "solver/pebbler.h"
#include "tsp/branch_and_bound.h"

namespace pebblejoin {

class ExactPebbler : public Pebbler {
 public:
  struct Options {
    // Edge-count ceiling; beyond it PebbleConnected returns nullopt. A soft
    // running-time cap — values above kBranchAndBoundMaxNodes are clamped to
    // it (the structural limit), never aborted on.
    int max_edges = 40;
    // Node budget for the branch-and-bound fallback. If exhausted, the
    // (possibly suboptimal) incumbent is *not* returned: nullopt instead,
    // because callers of an exact solver rely on optimality. (The
    // FallbackPebbler ladder recovers a degraded order from the
    // heuristic rungs in that case.)
    int64_t bnb_node_budget = 50'000'000;
  };

  using Pebbler::PebbleConnected;

  ExactPebbler() : options_(Options()) {}
  explicit ExactPebbler(Options options) : options_(options) {}

  std::string name() const override { return "exact"; }
  bool is_exact() const override { return true; }
  std::optional<std::vector<int>> PebbleConnected(
      const Graph& g, BudgetContext& budget) const override;

  // Optimal effective cost π(G) of a connected graph, or nullopt when the
  // instance exceeds the limits.
  std::optional<int64_t> OptimalEffectiveCost(const Graph& g) const;

 private:
  Options options_;
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_SOLVER_EXACT_PEBBLER_H_
