#include "graph/hamiltonian.h"

#include <algorithm>

#include "graph/generators.h"
#include "gtest/gtest.h"

#include "graph_test_util.h"

namespace pebblejoin {
namespace {

// True if `path` is a Hamiltonian path of `g`.
bool IsHamiltonianPath(const Graph& g, const std::vector<int>& path) {
  if (static_cast<int>(path.size()) != g.num_vertices()) return false;
  std::vector<bool> seen(g.num_vertices(), false);
  for (int v : path) {
    if (v < 0 || v >= g.num_vertices() || seen[v]) return false;
    seen[v] = true;
  }
  for (size_t i = 1; i < path.size(); ++i) {
    if (!HasEdge(g, path[i - 1], path[i])) return false;
  }
  return true;
}

TEST(HamiltonianTest, PathGraphHasPath) {
  const Graph g = PathGraph(6).ToGraph();
  EXPECT_TRUE(HasHamiltonianPath(g));
  const auto path = FindHamiltonianPath(g);
  ASSERT_TRUE(path.has_value());
  EXPECT_TRUE(IsHamiltonianPath(g, *path));
}

TEST(HamiltonianTest, StarHasNone) {
  EXPECT_FALSE(HasHamiltonianPath(StarGraph(3).ToGraph()));
  EXPECT_FALSE(FindHamiltonianPath(StarGraph(3).ToGraph()).has_value());
}

TEST(HamiltonianTest, CompleteGraphAlwaysHas) {
  for (int n = 2; n <= 8; ++n) {
    const Graph g = CompleteGraph(n);
    const auto path = FindHamiltonianPath(g);
    ASSERT_TRUE(path.has_value());
    EXPECT_TRUE(IsHamiltonianPath(g, *path));
  }
}

TEST(HamiltonianTest, CycleHasPath) {
  EXPECT_TRUE(HasHamiltonianPath(CycleGraph(7)));
}

TEST(HamiltonianTest, DisconnectedHasNone) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  EXPECT_FALSE(HasHamiltonianPath(g));
}

TEST(HamiltonianTest, SingleVertex) {
  Graph g(1);
  EXPECT_TRUE(HasHamiltonianPath(g));
  const auto path = FindHamiltonianPath(g);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, std::vector<int>{0});
}

TEST(HamiltonianTest, EmptyGraph) {
  EXPECT_FALSE(HasHamiltonianPath(Graph()));
}

TEST(HamiltonianBetweenTest, PathEndpointsOnly) {
  const Graph g = PathGraph(4).ToGraph();  // a path on 5 vertices
  // The only Hamiltonian paths go end to end.
  const auto pairs = HamiltonianPathEndpointPairs(g);
  ASSERT_EQ(pairs.size(), 1u);
  const auto path =
      FindHamiltonianPathBetween(g, pairs[0].first, pairs[0].second);
  ASSERT_TRUE(path.has_value());
  EXPECT_TRUE(IsHamiltonianPath(g, *path));
  EXPECT_EQ(path->front(), pairs[0].first);
  EXPECT_EQ(path->back(), pairs[0].second);
}

TEST(HamiltonianBetweenTest, RespectsEndpoints) {
  const Graph g = CompleteGraph(5);
  const auto path = FindHamiltonianPathBetween(g, 2, 4);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->front(), 2);
  EXPECT_EQ(path->back(), 4);
  EXPECT_TRUE(IsHamiltonianPath(g, *path));
}

TEST(HamiltonianBetweenTest, InfeasiblePair) {
  // In a star, no Hamiltonian path exists at all for m >= 3.
  const Graph g = StarGraph(3).ToGraph();
  EXPECT_FALSE(FindHamiltonianPathBetween(g, 1, 2).has_value());
}

TEST(HamiltonianEndpointPairsTest, CompleteGraphAllPairs) {
  const auto pairs = HamiltonianPathEndpointPairs(CompleteGraph(5));
  EXPECT_EQ(pairs.size(), 10u);  // C(5,2)
}

TEST(HamiltonianTest, AgreesWithBruteForceOnSmallRandomGraphs) {
  // Cross-check the DP against permutation brute force on 7-vertex graphs.
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    const Graph g = RandomGraph(7, 0.3, seed);
    std::vector<int> perm(7);
    for (int i = 0; i < 7; ++i) perm[i] = i;
    bool brute = false;
    do {
      bool ok = true;
      for (int i = 1; i < 7 && ok; ++i) {
        if (!HasEdge(g, perm[i - 1], perm[i])) ok = false;
      }
      if (ok) brute = true;
    } while (!brute && std::next_permutation(perm.begin(), perm.end()));
    EXPECT_EQ(HasHamiltonianPath(g), brute) << g.DebugString();
  }
}

}  // namespace
}  // namespace pebblejoin
