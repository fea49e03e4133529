// The hardness pipeline of Section 4, narrated end to end:
//
//   TSP-4(1,2)  --diamond gadgets-->  TSP-3(1,2)  --incidence graph-->
//   PEBBLE  --Lemma 3.3-->  an actual set-containment join instance.
//
// Every stage is solved, every solution mapped back, and every L-reduction
// inequality checked on the spot. This is how the paper's MAX-SNP-
// completeness argument becomes a runnable object.

#include <cstdio>

#include "graph/generators.h"
#include "join/join_graph_builder.h"
#include "join/realizers.h"
#include "pebble/cost_model.h"
#include "reductions/l_reduction.h"
#include "reductions/tsp3_to_pebble.h"
#include "reductions/tsp4_to_tsp3.h"
#include "solver/exact_pebbler.h"
#include "tsp/branch_and_bound.h"
#include "tsp/held_karp.h"

namespace pebblejoin {
namespace {

// Exact TSP-(1,2) solve: Held–Karp when it fits, branch and bound beyond.
TspPathResult SolveExactTsp(const Tsp12Instance& instance) {
  BudgetContext unlimited{SolveBudget{}};
  if (instance.num_nodes() <= kMaxHeldKarpNodes) {
    return *HeldKarpSolve(instance, unlimited);
  }
  BranchAndBoundOptions options;
  options.node_budget = 500'000'000;
  return BranchAndBoundSolve(instance, options, unlimited).best;
}

}  // namespace
}  // namespace pebblejoin

int main() {
  using namespace pebblejoin;

  // Stage 0: a TSP-4(1,2) instance — good graph of max degree 4.
  const Tsp12Instance g4(RandomConnectedBoundedDegree(6, 4, 4, 7));
  std::printf("Stage 0: TSP-4(1,2) instance\n  good graph: %s\n",
              g4.good().DebugString().c_str());
  const TspPathResult opt4_result = SolveExactTsp(g4);
  const TspPathResult* opt4 = &opt4_result;
  std::printf("  OPT cost = %lld (jumps = %lld)\n\n",
              static_cast<long long>(opt4->cost),
              static_cast<long long>(opt4->jumps));

  // Stage 1: degree reduction via diamond gadgets (Theorem 4.3).
  const Tsp4ToTsp3Reduction stage1(g4);
  int diamonds = 0;
  for (int v = 0; v < g4.num_nodes(); ++v) {
    if (stage1.IsDiamond(v)) ++diamonds;
  }
  std::printf(
      "Stage 1: diamond-gadget reduction (Theorem 4.3)\n"
      "  %d degree-4 node(s) replaced by 9-node diamonds\n"
      "  |V(H)| = %d (<= 9x blowup), max good degree = %d\n",
      diamonds, stage1.h().num_nodes(), stage1.h().MaxGoodDegree());
  const TspPathResult opt3_result = SolveExactTsp(stage1.h());
  const TspPathResult* opt3 = &opt3_result;
  std::printf("  OPT(H) = %lld; alpha observed = %.3f (claim: <= 9)\n\n",
              static_cast<long long>(opt3->cost),
              static_cast<double>(opt3->cost) /
                  static_cast<double>(opt4->cost));

  // Stage 2: incidence graph — TSP-3(1,2) becomes PEBBLE (Theorem 4.4).
  const Tsp3ToPebbleReduction stage2(stage1.h());
  std::printf(
      "Stage 2: incidence-graph reduction (Theorem 4.4)\n"
      "  PEBBLE instance B: %d x %d bipartite, m = %d edges\n",
      stage2.b().left_size(), stage2.b().right_size(),
      stage2.b().num_edges());

  // Solve the PEBBLE instance by lifting the optimal TSP-3 tour.
  const std::vector<int> pebbling = stage2.LiftTourToEdgeOrder(opt3->tour);
  const int64_t pebble_cost =
      static_cast<int64_t>(pebbling.size()) +
      JumpsOfEdgeOrder(stage2.pebble_graph(), pebbling);
  std::printf("  lifted pebbling: pi = %lld (tour-cost form %lld; "
              "claim <= 3*OPT + O(1))\n\n",
              static_cast<long long>(pebble_cost),
              static_cast<long long>(pebble_cost - 1));

  // Stage 3: the PEBBLE instance is a *real join* (Lemma 3.3).
  const Realization<IntSet> join_instance =
      RealizeAsSetContainment(stage2.b());
  const BipartiteGraph rebuilt =
      BuildSetContainmentJoinGraph(join_instance.left, join_instance.right);
  std::printf(
      "Stage 3: Lemma 3.3 realization\n"
      "  B realized as a set-containment join: %d left sets, %d right "
      "sets\n  join graph matches B exactly: %s\n\n",
      join_instance.left.size(), join_instance.right.size(),
      rebuilt.SameEdgeSet(stage2.b()) ? "yes" : "NO");

  // And back down the pipeline: pebbling -> TSP-3 tour -> TSP-4 tour.
  const Tour tour3 = stage2.MapEdgeOrderBack(pebbling);
  const Tour tour4 = stage1.MapTourBack(tour3);
  std::printf(
      "Back-mapping: pebbling -> TSP-3 tour (cost %lld) -> TSP-4 tour "
      "(cost %lld; OPT %lld)\n",
      static_cast<long long>(TourCost(stage1.h(), tour3)),
      static_cast<long long>(TourCost(g4, tour4)),
      static_cast<long long>(opt4->cost));

  LReductionSample sample;
  sample.opt_x = opt4->cost;
  sample.opt_fx = opt3->cost;
  sample.cost_s = TourCost(stage1.h(), stage1.LiftTour(tour4));
  sample.cost_gs = TourCost(g4, tour4);
  std::printf(
      "L-reduction check on this run: property 1 (alpha=9): %s, "
      "property 2 (beta=1): %s\n",
      SatisfiesProperty1(sample, 9.0) ? "ok" : "VIOLATED",
      SatisfiesProperty2(sample, 1.0) ? "ok" : "VIOLATED");

  std::printf(
      "\nConclusion (Theorem 4.4): a polynomial-time approximation scheme\n"
      "for PEBBLE would propagate back through these maps to one for\n"
      "TSP-3(1,2) and TSP-4(1,2) — contradicting PCP theory unless "
      "NP = P.\n");
  return 0;
}
