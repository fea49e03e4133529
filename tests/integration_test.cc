// Cross-module integration tests: the paper's storyline executed end to end.

#include "core/analyzer.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "join/join_graph_builder.h"
#include "join/realizers.h"
#include "join/workload.h"
#include "pebble/bounds.h"
#include "reductions/tsp3_to_pebble.h"
#include "reductions/tsp4_to_tsp3.h"
#include "solver/exact_pebbler.h"
#include "tsp/held_karp.h"

namespace pebblejoin {
namespace {

// The same combinatorial object — the Figure-1 worst-case graph — dressed
// as a set-containment join and as a spatial-overlap join must cost exactly
// the same, and strictly more than any equijoin of the same output size.
TEST(IntegrationTest, SameGraphDifferentPredicatesSameCost) {
  const int n = 6;
  AnalyzerOptions options;
  options.solver = SolverChoice::kExact;
  const JoinAnalyzer analyzer(options);

  const Realization<IntSet> as_sets =
      RealizeAsSetContainment(WorstCaseFamily(n));
  const JoinAnalysis set_analysis =
      analyzer.AnalyzeSetContainment(as_sets.left, as_sets.right);

  const Realization<Rect> as_rects = RealizeWorstCaseAsSpatial(n);
  const JoinAnalysis spatial_analysis =
      analyzer.AnalyzeSpatialOverlap(as_rects.left, as_rects.right);

  EXPECT_EQ(set_analysis.output_size, 2 * n);
  EXPECT_EQ(spatial_analysis.output_size, 2 * n);
  EXPECT_EQ(set_analysis.solution.effective_cost,
            spatial_analysis.solution.effective_cost);
  EXPECT_EQ(set_analysis.solution.effective_cost,
            WorstCaseFamilyOptimalCost(n));

  // An equijoin with the same output size is strictly cheaper (perfect).
  EquijoinWorkloadOptions eq;
  eq.num_keys = n;
  eq.min_left_dup = eq.max_left_dup = 1;
  eq.min_right_dup = eq.max_right_dup = 2;
  const Realization<int64_t> w = GenerateEquijoinWorkload(eq);
  const JoinAnalysis eq_analysis = analyzer.AnalyzeEquiJoin(w.left, w.right);
  EXPECT_EQ(eq_analysis.output_size, 2 * n);
  EXPECT_LT(eq_analysis.solution.effective_cost,
            set_analysis.solution.effective_cost);
}

// The full hardness pipeline of Section 4: TSP-4(1,2) → TSP-3(1,2) →
// PEBBLE, solved at each stage, with the solution mapped all the way back.
TEST(IntegrationTest, FullReductionPipeline) {
  const Tsp12Instance g4(RandomConnectedBoundedDegree(6, 4, 4, 11));
  ASSERT_LE(g4.MaxGoodDegree(), 4);

  // Stage 1: degree reduction.
  const Tsp4ToTsp3Reduction stage1(g4);
  const Tsp12Instance& g3 = stage1.h();
  ASSERT_LE(g3.MaxGoodDegree(), 3);

  // Stage 2: to PEBBLE.
  const Tsp3ToPebbleReduction stage2(g3);

  // Solve the PEBBLE instance with the heuristic pipeline (B is too large
  // for the exact solver); the test requires a valid chain of mappings all
  // the way back plus sane costs, not optimality.
  AnalyzerOptions options;
  options.solver = SolverChoice::kLocalSearch;
  const JoinAnalyzer analyzer(options);
  const JoinAnalysis pebble_analysis = analyzer.AnalyzeJoinGraph(
      stage2.b(), PredicateClass::kSetContainment);
  ASSERT_GT(pebble_analysis.output_size, 0);

  // Map the pebbling back to a TSP-3 tour, then to a TSP-4 tour.
  const Tour tour3 =
      stage2.MapEdgeOrderBack(pebble_analysis.solution.edge_order);
  ASSERT_TRUE(IsValidTour(g3, tour3));
  const Tour tour4 = stage1.MapTourBack(tour3);
  ASSERT_TRUE(IsValidTour(g4, tour4));

  // The mapped-back tour cannot beat the optimum.
  BudgetContext unlimited{SolveBudget{}};
  const auto opt4 = HeldKarpSolve(g4, unlimited);
  ASSERT_TRUE(opt4.has_value());
  EXPECT_GE(TourCost(g4, tour4), opt4->cost);
}

// Lemma 3.3 in action: a PEBBLE-hard graph coming out of the reduction is
// realizable as an actual set-containment join instance whose join graph
// matches exactly.
TEST(IntegrationTest, ReductionOutputIsARealJoin) {
  const Tsp12Instance g3(RandomConnectedBoundedDegree(7, 3, 3, 5));
  const Tsp3ToPebbleReduction reduction(g3);
  const Realization<IntSet> join_instance =
      RealizeAsSetContainment(reduction.b());
  const BipartiteGraph rebuilt =
      BuildSetContainmentJoinGraph(join_instance.left, join_instance.right);
  EXPECT_TRUE(rebuilt.SameEdgeSet(reduction.b()));
}

// Equijoin vs set-containment at matched output size, over a seed sweep:
// equijoins are always perfect; set-containment joins generally are not.
TEST(IntegrationTest, PredicateComplexityOrdering) {
  const JoinAnalyzer analyzer;
  int imperfect_set_joins = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const BipartiteGraph hard = RandomConnectedBipartite(6, 6, 14, seed);
    const Realization<IntSet> as_sets = RealizeAsSetContainment(hard);
    const JoinAnalysis set_analysis =
        analyzer.AnalyzeSetContainment(as_sets.left, as_sets.right);
    EXPECT_EQ(set_analysis.output_size, 14);
    if (!set_analysis.perfect) ++imperfect_set_joins;

    EXPECT_GE(set_analysis.solution.effective_cost, 14);
    EXPECT_LE(set_analysis.solution.effective_cost,
              DfsUpperBoundForConnected(14));
  }
  EXPECT_GT(imperfect_set_joins, 0);
}

}  // namespace
}  // namespace pebblejoin
