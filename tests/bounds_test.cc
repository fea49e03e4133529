#include "pebble/bounds.h"

#include "graph/components.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "solver/exact_pebbler.h"

namespace pebblejoin {
namespace {

TEST(BoundsTest, ConnectedGraphBounds) {
  const Graph g = WorstCaseFamily(4).ToGraph();  // m = 8, connected
  const PebblingBounds b = ComputeBounds(FindComponents(g));
  EXPECT_EQ(b.num_edges, 8);
  EXPECT_EQ(b.betti_zero, 1);
  EXPECT_EQ(b.lower, 8);
  EXPECT_EQ(b.upper_general, 15);    // 2m − 1
  EXPECT_EQ(b.upper_dfs_bound, 9);   // m + ⌊(m−1)/4⌋
}

TEST(BoundsTest, SumsOverComponents) {
  const Graph g = MatchingGraph(5).ToGraph();
  const PebblingBounds b = ComputeBounds(FindComponents(g));
  EXPECT_EQ(b.betti_zero, 5);
  EXPECT_EQ(b.lower, 5);
  EXPECT_EQ(b.upper_general, 5);    // Σ (2·1 − 1)
  EXPECT_EQ(b.upper_dfs_bound, 5);  // Σ (1 + 0)
}

TEST(BoundsTest, EmptyGraph) {
  const PebblingBounds b = ComputeBounds(FindComponents(Graph(3)));
  EXPECT_EQ(b.num_edges, 0);
  EXPECT_EQ(b.lower, 0);
  EXPECT_EQ(b.upper_general, 0);
  EXPECT_EQ(b.upper_dfs_bound, 0);
}

TEST(DfsUpperBoundTest, IntegralForm) {
  EXPECT_EQ(DfsUpperBoundForConnected(1), 1);
  EXPECT_EQ(DfsUpperBoundForConnected(3), 3);
  EXPECT_EQ(DfsUpperBoundForConnected(4), 4);
  EXPECT_EQ(DfsUpperBoundForConnected(5), 6);
  EXPECT_EQ(DfsUpperBoundForConnected(8), 9);    // 1.25·8 − 1
  EXPECT_EQ(DfsUpperBoundForConnected(12), 14);  // 1.25·12 − 1
}

TEST(WorstCaseFamilyCostTest, ClosedForm) {
  // π(Gₙ) = 2n + ⌈n/2⌉ − 1.
  EXPECT_EQ(WorstCaseFamilyOptimalCost(3), 7);
  EXPECT_EQ(WorstCaseFamilyOptimalCost(4), 9);   // 1.25·8 − 1
  EXPECT_EQ(WorstCaseFamilyOptimalCost(5), 12);
  EXPECT_EQ(WorstCaseFamilyOptimalCost(6), 14);  // 1.25·12 − 1
  EXPECT_EQ(WorstCaseFamilyOptimalCost(8), 19);  // 1.25·16 − 1
}

TEST(WorstCaseFamilyCostTest, MatchesExactSolver) {
  // Ground truth for Theorem 3.3 on the sizes the exact solver can handle.
  const ExactPebbler exact;
  for (int n = 3; n <= 8; ++n) {
    const Graph g = WorstCaseFamily(n).ToGraph();
    const auto cost = exact.OptimalEffectiveCost(g);
    ASSERT_TRUE(cost.has_value()) << "n=" << n;
    EXPECT_EQ(*cost, WorstCaseFamilyOptimalCost(n)) << "n=" << n;
  }
}

TEST(WorstCaseFamilyCostTest, EqualsDfsBoundAtMultiplesOfFour) {
  // At m ≡ 0 (mod 4) the family exactly meets the Theorem 3.1 bound: the
  // upper bound is tight (Theorem 3.3).
  for (int n = 4; n <= 16; n += 2) {
    EXPECT_EQ(WorstCaseFamilyOptimalCost(n),
              DfsUpperBoundForConnected(2 * n))
        << "n=" << n;
  }
}

TEST(EquijoinCostTest, CompleteBipartiteIsPerfect) {
  EXPECT_EQ(EquijoinOptimalEffectiveCost(CompleteBipartite(3, 5).ToGraph()),
            15);
  EXPECT_EQ(EquijoinOptimalEffectiveCost(MatchingGraph(4).ToGraph()), 4);
}

TEST(EquijoinCostDeathTest, RejectsNonEquijoinShape) {
  EXPECT_DEATH(EquijoinOptimalEffectiveCost(PathGraph(3).ToGraph()),
               "equijoin");
}

TEST(BoundsPropertyTest, ExactCostRespectsBoundsOnRandomGraphs) {
  const ExactPebbler exact;
  int solved = 0;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    const Graph g =
        RandomConnectedBipartite(4, 4, 7 + seed % 6, seed).ToGraph();
    const PebblingBounds b = ComputeBounds(FindComponents(g));
    const auto cost = exact.OptimalEffectiveCost(g);
    if (!cost.has_value()) continue;
    ++solved;
    EXPECT_GE(*cost, b.lower) << g.DebugString();
    EXPECT_LE(*cost, b.upper_dfs_bound) << g.DebugString();
    EXPECT_LE(*cost, b.upper_general) << g.DebugString();
  }
  EXPECT_GT(solved, 20);
}

}  // namespace
}  // namespace pebblejoin
