#include <cstdint>
#include <memory>
#include <vector>

#include "graph/generators.h"
#include "gtest/gtest.h"
#include "pebble/bounds.h"
#include "pebble/cost_model.h"
#include "pebble/scheme_verifier.h"
#include "solver/dfs_tree_pebbler.h"
#include "solver/exact_pebbler.h"
#include "solver/greedy_walk_pebbler.h"
#include "solver/local_search_pebbler.h"
#include "solver/sort_merge_pebbler.h"

namespace pebblejoin {
namespace {

// Effective cost of an edge order on a connected graph: m + jumps.
int64_t ConnectedEffectiveCost(const Graph& g, const std::vector<int>& order) {
  return static_cast<int64_t>(order.size()) + JumpsOfEdgeOrder(g, order);
}

// --- SortMergePebbler ----------------------------------------------------

TEST(SortMergePebblerTest, PerfectOnCompleteBipartite) {
  const SortMergePebbler pebbler;
  for (int k = 1; k <= 5; ++k) {
    for (int l = 1; l <= 5; ++l) {
      const Graph g = CompleteBipartite(k, l).ToGraph();
      const auto order = pebbler.PebbleConnected(g);
      ASSERT_TRUE(order.has_value()) << k << "x" << l;
      EXPECT_TRUE(VerifyEdgeOrder(g, *order).valid);
      EXPECT_EQ(JumpsOfEdgeOrder(g, *order), 0) << k << "x" << l;
    }
  }
}

TEST(SortMergePebblerTest, RefusesIncompleteComponents) {
  const SortMergePebbler pebbler;
  EXPECT_FALSE(pebbler.PebbleConnected(PathGraph(3).ToGraph()).has_value());
  EXPECT_FALSE(
      pebbler.PebbleConnected(WorstCaseFamily(3).ToGraph()).has_value());
}

TEST(SortMergePebblerTest, RefusesOddCycles) {
  const SortMergePebbler pebbler;
  EXPECT_FALSE(pebbler.PebbleConnected(CycleGraph(5)).has_value());
}

TEST(SortMergePebblerTest, SingleEdge) {
  const Graph g = CompleteBipartite(1, 1).ToGraph();
  const auto order = SortMergePebbler().PebbleConnected(g);
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(order->size(), 1u);
}

// --- GreedyWalkPebbler ---------------------------------------------------

TEST(GreedyWalkPebblerTest, AlwaysValidOnRandomConnectedGraphs) {
  const GreedyWalkPebbler pebbler;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const Graph g =
        RandomConnectedBipartite(5, 6, 12 + seed % 12, seed).ToGraph();
    const auto order = pebbler.PebbleConnected(g);
    ASSERT_TRUE(order.has_value());
    EXPECT_TRUE(VerifyEdgeOrder(g, *order).valid) << seed;
    // Trivial bound: π ≤ 2m − 1 for connected graphs (Corollary 2.1).
    EXPECT_LE(ConnectedEffectiveCost(g, *order), 2 * g.num_edges() - 1);
  }
}

TEST(GreedyWalkPebblerTest, PerfectOnPath) {
  const Graph g = PathGraph(7).ToGraph();
  const auto order = GreedyWalkPebbler().PebbleConnected(g);
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(JumpsOfEdgeOrder(g, *order), 0);
}

TEST(GreedyWalkPebblerTest, PerfectOnStar) {
  const Graph g = StarGraph(6).ToGraph();
  const auto order = GreedyWalkPebbler().PebbleConnected(g);
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(JumpsOfEdgeOrder(g, *order), 0);
}

// --- DfsTreePebbler ------------------------------------------------------

TEST(DfsTreePebblerTest, ValidAndWithinTheoremBoundOnRandomGraphs) {
  const DfsTreePebbler pebbler;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    const int left = 3 + static_cast<int>(seed % 5);
    const int right = 3 + static_cast<int>((seed / 5) % 5);
    const int min_edges = left + right - 1;
    const int max_edges = left * right;
    const int m = min_edges +
                  static_cast<int>(seed % (max_edges - min_edges + 1));
    const Graph g = RandomConnectedBipartite(left, right, m, seed).ToGraph();
    const auto order = pebbler.PebbleConnected(g);
    ASSERT_TRUE(order.has_value());
    EXPECT_TRUE(VerifyEdgeOrder(g, *order).valid) << seed;
    EXPECT_LE(ConnectedEffectiveCost(g, *order),
              DfsUpperBoundForConnected(g.num_edges()))
        << "seed=" << seed << " " << g.DebugString();
  }
}

TEST(DfsTreePebblerTest, WithinBoundOnWorstCaseFamily) {
  const DfsTreePebbler pebbler;
  for (int n = 3; n <= 40; ++n) {
    const Graph g = WorstCaseFamily(n).ToGraph();
    const auto order = pebbler.PebbleConnected(g);
    ASSERT_TRUE(order.has_value());
    EXPECT_TRUE(VerifyEdgeOrder(g, *order).valid);
    EXPECT_LE(ConnectedEffectiveCost(g, *order),
              DfsUpperBoundForConnected(2 * n))
        << "n=" << n;
    // Theorem 3.3: no scheme can beat the closed form either.
    EXPECT_GE(ConnectedEffectiveCost(g, *order),
              WorstCaseFamilyOptimalCost(n));
  }
}

TEST(DfsTreePebblerTest, PerfectOnCompleteBipartite) {
  const DfsTreePebbler pebbler;
  const Graph g = CompleteBipartite(4, 4).ToGraph();
  const auto order = pebbler.PebbleConnected(g);
  ASSERT_TRUE(order.has_value());
  EXPECT_LE(ConnectedEffectiveCost(g, *order),
            DfsUpperBoundForConnected(16));
}

TEST(DfsTreePebblerTest, SmallGraphs) {
  const DfsTreePebbler pebbler;
  for (int m = 1; m <= 4; ++m) {
    const Graph g = PathGraph(m).ToGraph();
    const auto order = pebbler.PebbleConnected(g);
    ASSERT_TRUE(order.has_value());
    EXPECT_EQ(JumpsOfEdgeOrder(g, *order), 0);  // paths are perfect
  }
}

TEST(DfsTreePebblerTest, RefusesWhenLineGraphExceedsBudget) {
  const DfsTreePebbler tight(/*max_line_graph_edges=*/10);
  EXPECT_FALSE(tight.PebbleConnected(StarGraph(20).ToGraph()).has_value());
}

TEST(DfsTreePebblerTest, DenserNonBipartiteGraphsToo) {
  // The Theorem 3.1 proof applies to all connected graphs.
  const DfsTreePebbler pebbler;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Graph g = RandomConnectedBoundedDegree(12, 5, 8, seed);
    const auto order = pebbler.PebbleConnected(g);
    ASSERT_TRUE(order.has_value());
    EXPECT_TRUE(VerifyEdgeOrder(g, *order).valid);
    EXPECT_LE(ConnectedEffectiveCost(g, *order),
              DfsUpperBoundForConnected(g.num_edges()))
        << seed;
  }
}

// --- LocalSearchPebbler --------------------------------------------------

TEST(LocalSearchPebblerTest, NeverWorseThanDfsTree) {
  const LocalSearchPebbler local;
  const DfsTreePebbler dfs;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const Graph g = RandomConnectedBipartite(5, 5, 12, seed).ToGraph();
    const auto a = local.PebbleConnected(g);
    const auto b = dfs.PebbleConnected(g);
    ASSERT_TRUE(a.has_value() && b.has_value());
    EXPECT_TRUE(VerifyEdgeOrder(g, *a).valid);
    EXPECT_LE(ConnectedEffectiveCost(g, *a), ConnectedEffectiveCost(g, *b));
  }
}

TEST(LocalSearchPebblerTest, OptimalOnWorstCaseFamilySmall) {
  const LocalSearchPebbler local;
  for (int n = 3; n <= 8; ++n) {
    const Graph g = WorstCaseFamily(n).ToGraph();
    const auto order = local.PebbleConnected(g);
    ASSERT_TRUE(order.has_value());
    EXPECT_EQ(ConnectedEffectiveCost(g, *order),
              WorstCaseFamilyOptimalCost(n))
        << "n=" << n;
  }
}

// --- ExactPebbler ---------------------------------------------------------

TEST(ExactPebblerTest, ClosedFormsOnNamedFamilies) {
  const ExactPebbler exact;
  // Complete bipartite: π = m (Lemma 3.2).
  EXPECT_EQ(*exact.OptimalEffectiveCost(CompleteBipartite(3, 4).ToGraph()),
            12);
  // Paths and stars: π = m.
  EXPECT_EQ(*exact.OptimalEffectiveCost(PathGraph(9).ToGraph()), 9);
  EXPECT_EQ(*exact.OptimalEffectiveCost(StarGraph(9).ToGraph()), 9);
  // Even cycles: π = m.
  EXPECT_EQ(*exact.OptimalEffectiveCost(EvenCycle(5).ToGraph()), 10);
}

TEST(ExactPebblerTest, SchemeIsOptimalAndValid) {
  const ExactPebbler exact;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const Graph g = RandomConnectedBipartite(4, 4, 9, seed).ToGraph();
    const auto order = exact.PebbleConnected(g);
    ASSERT_TRUE(order.has_value());
    EXPECT_TRUE(VerifyEdgeOrder(g, *order).valid);
    // No other solver may beat it.
    const LocalSearchPebbler local;
    const auto other = local.PebbleConnected(g);
    ASSERT_TRUE(other.has_value());
    EXPECT_LE(ConnectedEffectiveCost(g, *order),
              ConnectedEffectiveCost(g, *other));
  }
}

TEST(ExactPebblerTest, RefusesBeyondEdgeLimit) {
  ExactPebbler::Options options;
  options.max_edges = 5;
  const ExactPebbler exact(options);
  EXPECT_FALSE(
      exact.PebbleConnected(CompleteBipartite(3, 3).ToGraph()).has_value());
}

TEST(ExactPebblerTest, UsesBranchAndBoundAboveHeldKarpLimit) {
  // m = 24 edges > kMaxHeldKarpNodes: exercised via branch and bound.
  const Graph g = EvenCycle(12).ToGraph();
  const ExactPebbler exact;
  const auto cost = exact.OptimalEffectiveCost(g);
  ASSERT_TRUE(cost.has_value());
  EXPECT_EQ(*cost, 24);  // cycles pebble perfectly
}

TEST(ExactPebblerTest, NullAndUnlimitedBudgetsClassifyDeclinesAlike) {
  // "No budget" has one meaning: a null pointer and an unlimited context
  // both report the exact rung's own node-budget decline as
  // budget-exhausted (m = 30 is past Held–Karp, so branch and bound runs).
  ExactPebbler::Options options;
  options.bnb_node_budget = 1;
  const ExactPebbler exact(options);
  const Graph g = RandomConnectedBipartite(8, 8, 30, 6).ToGraph();
  SolveOutcome from_null;
  EXPECT_FALSE(exact.PebbleWithOutcome(g, nullptr, &from_null).has_value());
  BudgetContext unlimited{SolveBudget{}};
  SolveOutcome from_unlimited;
  EXPECT_FALSE(
      exact.PebbleWithOutcome(g, &unlimited, &from_unlimited).has_value());
  EXPECT_EQ(from_null.status, RungStatus::kBudgetExhausted);
  EXPECT_EQ(from_unlimited.status, RungStatus::kBudgetExhausted);
}

}  // namespace
}  // namespace pebblejoin
