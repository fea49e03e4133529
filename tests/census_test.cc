#include "graph/census.h"

#include <algorithm>
#include <unordered_set>

#include "graph/components.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "pebble/bounds.h"
#include "solver/exact_pebbler.h"
#include "util/random.h"

#include "graph_test_util.h"

namespace pebblejoin {
namespace {

TEST(CanonicalKeyTest, IsomorphicGraphsShareKeys) {
  // Relabeling rows/columns must not change the key.
  Rng rng(3);
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    const BipartiteGraph g = RandomBipartite(4, 4, 0.4, seed);
    const std::vector<int> row_perm = rng.Permutation(4);
    const std::vector<int> col_perm = rng.Permutation(4);
    BipartiteGraph permuted(4, 4);
    for (const BipartiteGraph::Edge& e : g.edges()) {
      permuted.AddEdge(row_perm[e.left], col_perm[e.right]);
    }
    EXPECT_EQ(CanonicalBipartiteKey(g), CanonicalBipartiteKey(permuted));
  }
}

TEST(CanonicalKeyTest, SwapInvarianceForEqualSides) {
  BipartiteGraph g(3, 3);
  g.AddEdge(0, 0);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  BipartiteGraph swapped(3, 3);  // transpose
  swapped.AddEdge(0, 0);
  swapped.AddEdge(1, 0);
  swapped.AddEdge(2, 1);
  EXPECT_EQ(CanonicalBipartiteKey(g), CanonicalBipartiteKey(swapped));
}

TEST(CanonicalKeyTest, DifferentGraphsDiffer) {
  BipartiteGraph path(2, 2);  // path: L0-R0, R0-L1, L1-R1
  path.AddEdge(0, 0);
  path.AddEdge(1, 0);
  path.AddEdge(1, 1);
  BipartiteGraph star(2, 2);  // star + isolated-ish: L0-R0, L0-R1, L1-R0
  star.AddEdge(0, 0);
  star.AddEdge(0, 1);
  star.AddEdge(1, 0);
  // Both have 3 edges but the path and the "claw" differ... in 2x2 they
  // are actually isomorphic (both are P4). Use degree sequences that
  // genuinely differ instead:
  BipartiteGraph full(2, 2);
  full.AddEdge(0, 0);
  full.AddEdge(0, 1);
  full.AddEdge(1, 0);
  full.AddEdge(1, 1);
  EXPECT_NE(CanonicalBipartiteKey(path), CanonicalBipartiteKey(full));
}

TEST(EnumerateTest, KnownCounts) {
  // 2x2 with 3 edges: every such spanning graph is a path P4 — 1 class.
  EXPECT_EQ(EnumerateConnectedBipartite(2, 2, 3).size(), 1u);
  // 2x2 with 4 edges: K_{2,2} — 1 class.
  EXPECT_EQ(EnumerateConnectedBipartite(2, 2, 4).size(), 1u);
  // 2x2 with 2 edges: cannot span 4 vertices connectedly... a connected
  // graph on 4 vertices needs >= 3 edges.
  EXPECT_EQ(EnumerateConnectedBipartite(2, 2, 2).size(), 0u);
  // 1x3 with 3 edges: the star K_{1,3} — 1 class.
  EXPECT_EQ(EnumerateConnectedBipartite(1, 3, 3).size(), 1u);
  // 2x3 spanning trees (5 vertices, 4 edges): two classes (the path P5
  // and the "T" / spider with leg lengths 2,1,1 rooted appropriately).
  EXPECT_EQ(EnumerateConnectedBipartite(2, 3, 4).size(), 2u);
}

TEST(EnumerateTest, AllResultsConnectedSpanningDistinct) {
  for (int edges = 4; edges <= 9; ++edges) {
    const std::vector<BipartiteGraph> classes =
        EnumerateConnectedBipartite(3, 3, edges);
    std::unordered_set<uint64_t> keys;
    for (const BipartiteGraph& g : classes) {
      EXPECT_EQ(g.num_edges(), edges);
      EXPECT_TRUE(IsConnectedIgnoringIsolated(g.ToGraph()));
      for (int l = 0; l < 3; ++l) EXPECT_GE(LeftDegree(g, l), 1);
      for (int r = 0; r < 3; ++r) EXPECT_GE(RightDegree(g, r), 1);
      EXPECT_TRUE(keys.insert(CanonicalBipartiteKey(g)).second);
    }
  }
}

TEST(CensusTest, Theorem31ExhaustiveOnThreeByThree) {
  // EVERY connected bipartite graph on 3+3 vertices respects
  // m <= π <= m + ⌊(m−1)/4⌋ — not a sample, the whole space.
  const ExactPebbler exact;
  int total = 0;
  for (int edges = 5; edges <= 9; ++edges) {
    for (const BipartiteGraph& g :
         EnumerateConnectedBipartite(3, 3, edges)) {
      const Graph flat = g.ToGraph();
      const auto pi = exact.OptimalEffectiveCost(flat);
      ASSERT_TRUE(pi.has_value());
      EXPECT_GE(*pi, edges) << g.DebugString();
      EXPECT_LE(*pi, DfsUpperBoundForConnected(edges)) << g.DebugString();
      ++total;
    }
  }
  EXPECT_GT(total, 8);  // the census is not vacuous (10 classes exist)
}

TEST(CensusTest, WorstCaseG3AppearsInItsClass) {
  // G₃ lives in the 4x3 census with 6 edges and is (one of) the extremal
  // graphs there: π = 7 = bound.
  const ExactPebbler exact;
  const uint64_t g3_key = CanonicalBipartiteKey(WorstCaseFamily(3));
  bool found = false;
  int64_t max_pi = 0;
  for (const BipartiteGraph& g : EnumerateConnectedBipartite(4, 3, 6)) {
    const auto pi = exact.OptimalEffectiveCost(g.ToGraph());
    ASSERT_TRUE(pi.has_value());
    max_pi = std::max(max_pi, *pi);
    if (CanonicalBipartiteKey(g) == g3_key) {
      found = true;
      EXPECT_EQ(*pi, WorstCaseFamilyOptimalCost(3));
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(max_pi, WorstCaseFamilyOptimalCost(3));  // nothing is worse
}

}  // namespace
}  // namespace pebblejoin
