#include "graph/line_graph.h"

#include "graph/generators.h"
#include "gtest/gtest.h"

#include "graph_test_util.h"

namespace pebblejoin {
namespace {

TEST(LineGraphTest, EdgeCountFormula) {
  // A star K_{1,m} has line graph K_m.
  EXPECT_EQ(LineGraphEdgeCount(StarGraph(5).ToGraph()), 10);
  // A path with m edges has a path line graph with m-1 edges.
  EXPECT_EQ(LineGraphEdgeCount(PathGraph(6).ToGraph()), 5);
  // A matching's line graph has no edges.
  EXPECT_EQ(LineGraphEdgeCount(MatchingGraph(4).ToGraph()), 0);
}

TEST(LineGraphTest, StarBecomesClique) {
  const Graph line = BuildLineGraph(StarGraph(4).ToGraph());
  EXPECT_EQ(line.num_vertices(), 4);
  EXPECT_EQ(line.num_edges(), 6);
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) EXPECT_TRUE(HasEdge(line, i, j));
  }
}

TEST(LineGraphTest, PathBecomesPath) {
  const Graph line = BuildLineGraph(PathGraph(5).ToGraph());
  EXPECT_EQ(line.num_vertices(), 5);
  EXPECT_EQ(line.num_edges(), 4);
  for (int i = 0; i + 1 < 5; ++i) EXPECT_TRUE(HasEdge(line, i, i + 1));
  EXPECT_FALSE(HasEdge(line, 0, 2));
}

TEST(LineGraphTest, AdjacencyMatchesSharedEndpoints) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const Graph g = RandomGraph(10, 0.3, seed);
    const Graph line = BuildLineGraph(g);
    ASSERT_EQ(line.num_vertices(), g.num_edges());
    for (int a = 0; a < g.num_edges(); ++a) {
      for (int b = a + 1; b < g.num_edges(); ++b) {
        EXPECT_EQ(HasEdge(line, a, b), g.edge(a).Touches(g.edge(b)));
      }
    }
  }
}

TEST(LineGraphTest, WorstCaseFamilyLineGraphShape) {
  // L(Gₙ) is K_n plus n pendant nodes (Theorem 3.3 / Figure 1b). With our
  // edge ordering, spokes have even ids 2i and pendants odd ids 2i+1.
  const int n = 5;
  const Graph line = BuildLineGraph(WorstCaseFamily(n).ToGraph());
  ASSERT_EQ(line.num_vertices(), 2 * n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      EXPECT_TRUE(HasEdge(line, 2 * i, 2 * j));  // spokes form K_n
    }
  }
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(Degree(line, 2 * i + 1), 1);       // pendants have degree 1
    EXPECT_TRUE(HasEdge(line, 2 * i + 1, 2 * i));
  }
}

TEST(LineGraphBudgetTest, RespectsBudget) {
  const Graph star = StarGraph(100).ToGraph();  // line graph = K_100
  EXPECT_FALSE(BuildLineGraphWithBudget(star, 1000).has_value());
  EXPECT_TRUE(BuildLineGraphWithBudget(star, 5000).has_value());
}

TEST(LineGraphTest, EmptyAndSingleEdge) {
  Graph g(3);
  EXPECT_EQ(BuildLineGraph(g).num_vertices(), 0);
  g.AddEdge(0, 1);
  const Graph line = BuildLineGraph(g);
  EXPECT_EQ(line.num_vertices(), 1);
  EXPECT_EQ(line.num_edges(), 0);
}

}  // namespace
}  // namespace pebblejoin
