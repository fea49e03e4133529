#include "tsp/blossom_matching.h"

#include <algorithm>

#include "graph/generators.h"
#include "gtest/gtest.h"
#include "tsp/held_karp.h"
#include "tsp/matching_path_cover.h"

namespace pebblejoin {
namespace {

// Maximum matching size by brute force over edge subsets (small graphs).
int BruteForceMatchingSize(const Graph& g) {
  const int m = g.num_edges();
  int best = 0;
  for (int mask = 0; mask < (1 << m); ++mask) {
    std::vector<bool> used(g.num_vertices(), false);
    int size = 0;
    bool ok = true;
    for (int e = 0; e < m && ok; ++e) {
      if (!((mask >> e) & 1)) continue;
      const Graph::Edge& edge = g.edge(e);
      if (used[edge.u] || used[edge.v]) {
        ok = false;
      } else {
        used[edge.u] = used[edge.v] = true;
        ++size;
      }
    }
    if (ok) best = std::max(best, size);
  }
  return best;
}

TEST(BlossomTest, EmptyAndSingleEdge) {
  EXPECT_EQ(MaximumMatching(Graph(3)).size, 0);
  Graph g(2);
  g.AddEdge(0, 1);
  const Matching m = MaximumMatching(g);
  EXPECT_EQ(m.size, 1);
  EXPECT_EQ(m.match[0], 1);
  EXPECT_EQ(m.match[1], 0);
}

TEST(BlossomTest, PathGraph) {
  // A path on 2k+1 edges has a matching of size k+1... precisely
  // ⌈edges/2⌉ for paths: P with m edges, matching = ⌈m/2⌉.
  for (int m = 1; m <= 9; ++m) {
    const Graph g = PathGraph(m).ToGraph();
    EXPECT_EQ(MaximumMatching(g).size, (m + 1) / 2) << m;
  }
}

TEST(BlossomTest, OddCycleNeedsBlossoms) {
  // C_{2k+1} has maximum matching k; greedy-augmenting without blossom
  // handling gets this wrong, so this exercises the contraction path.
  for (int n : {3, 5, 7, 9, 11}) {
    EXPECT_EQ(MaximumMatching(CycleGraph(n)).size, n / 2) << n;
  }
}

TEST(BlossomTest, CompleteGraph) {
  for (int n = 2; n <= 9; ++n) {
    EXPECT_EQ(MaximumMatching(CompleteGraph(n)).size, n / 2) << n;
  }
}

TEST(BlossomTest, PetersenLikeBlossomNest) {
  // Two triangles joined by a path: forces nested blossom handling.
  Graph g(8);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);   // triangle A
  g.AddEdge(2, 3);
  g.AddEdge(3, 4);   // bridge path
  g.AddEdge(4, 5);
  g.AddEdge(5, 6);
  g.AddEdge(6, 7);
  g.AddEdge(7, 5);   // triangle B
  EXPECT_EQ(MaximumMatching(g).size, BruteForceMatchingSize(g));
}

TEST(BlossomTest, MatchesBruteForceOnRandomGraphs) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const Graph g = RandomGraph(9, 0.3, seed);
    const Matching m = MaximumMatching(g);
    EXPECT_TRUE(IsValidMatching(g, m));
    EXPECT_EQ(m.size, BruteForceMatchingSize(g)) << g.DebugString();
  }
}

TEST(BlossomTest, MatchesBruteForceOnDenseRandomGraphs) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const Graph g = RandomGraph(8, 0.6, seed);
    EXPECT_EQ(MaximumMatching(g).size, BruteForceMatchingSize(g))
        << g.DebugString();
  }
}

TEST(IsValidMatchingTest, RejectsBadMatchings) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  Matching m;
  m.match = {1, 0, 3, 2};
  m.size = 2;
  EXPECT_TRUE(IsValidMatching(g, m));
  m.match = {1, 0, 3, 2};
  m.size = 1;  // wrong count
  EXPECT_FALSE(IsValidMatching(g, m));
  m.match = {2, -1, 0, -1};  // not an edge
  m.size = 1;
  EXPECT_FALSE(IsValidMatching(g, m));
  m.match = {1, 0, 3, -1};  // asymmetric
  m.size = 2;
  EXPECT_FALSE(IsValidMatching(g, m));
}

// --- Matching-seeded path cover ---------------------------------------------

TEST(MatchingPathCoverTest, ValidToursOnRandomInstances) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const Tsp12Instance inst(RandomGraph(14, 0.25, seed));
    const Tour tour = MatchingPathCoverTour(inst, seed);
    EXPECT_TRUE(IsValidTour(inst, tour));
  }
}

TEST(MatchingPathCoverTest, JumpUpperBoundFromMatching) {
  // J_ours <= n − 1 − |M*| by construction.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const Tsp12Instance inst(RandomGraph(13, 0.3, seed));
    const Matching matching = MaximumMatching(inst.good());
    const Tour tour = MatchingPathCoverTour(inst, seed);
    EXPECT_LE(TourJumps(inst, tour),
              inst.num_nodes() - 1 - matching.size)
        << seed;
  }
}

TEST(MatchingPathCoverTest, LowerBoundIsAdmissible) {
  // J_opt >= n − 1 − 2|M*|: verified against Held–Karp.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const Tsp12Instance inst(RandomGraph(11, 0.25, seed));
    const Matching matching = MaximumMatching(inst.good());
    BudgetContext unlimited{SolveBudget{}};
    const auto exact = HeldKarpSolve(inst, unlimited);
    ASSERT_TRUE(exact.has_value());
    EXPECT_GE(exact->jumps, MatchingJumpLowerBound(inst, matching)) << seed;
  }
}

TEST(MatchingPathCoverTest, WithinThreeHalvesOfOptimal) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    const Tsp12Instance inst(RandomGraph(12, 0.2, seed));
    if (inst.num_nodes() < 2) continue;
    const Tour tour = MatchingPathCoverTour(inst, seed);
    BudgetContext unlimited{SolveBudget{}};
    const auto exact = HeldKarpSolve(inst, unlimited);
    ASSERT_TRUE(exact.has_value());
    EXPECT_LE(2 * TourCost(inst, tour), 3 * exact->cost) << seed;
  }
}

TEST(MatchingPathCoverTest, PerfectWhenGoodGraphHasHamPath) {
  Graph good(8);
  for (int i = 0; i + 1 < 8; ++i) good.AddEdge(i, i + 1);
  const Tsp12Instance inst(good);
  // The matching covers alternate edges; linking restores the path.
  EXPECT_EQ(TourJumps(inst, MatchingPathCoverTour(inst, 3)), 0);
}

TEST(MatchingPathCoverTest, NoGoodEdgesAtAll) {
  const Tsp12Instance inst(Graph(5));
  const Tour tour = MatchingPathCoverTour(inst, 1);
  EXPECT_TRUE(IsValidTour(inst, tour));
  EXPECT_EQ(TourJumps(inst, tour), 4);
}

}  // namespace
}  // namespace pebblejoin
