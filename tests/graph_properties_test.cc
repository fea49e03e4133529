#include "graph/graph_properties.h"

#include "graph/generators.h"
#include "graph/line_graph.h"
#include "gtest/gtest.h"

namespace pebblejoin {
namespace {

TEST(TwoColorTest, PathIsBipartite) {
  const Graph g = PathGraph(5).ToGraph();
  const auto color = TwoColor(g);
  ASSERT_TRUE(color.has_value());
  for (int e = 0; e < g.num_edges(); ++e) {
    EXPECT_NE((*color)[g.edge(e).u], (*color)[g.edge(e).v]);
  }
}

TEST(TwoColorTest, OddCycleIsNot) {
  EXPECT_FALSE(TwoColor(CycleGraph(5)).has_value());
  EXPECT_FALSE(TwoColor(CompleteGraph(3)).has_value());
}

TEST(TwoColorTest, EvenCycleIs) {
  EXPECT_TRUE(TwoColor(CycleGraph(6)).has_value());
}

TEST(TwoColorTest, DisconnectedGraphColorsAllComponents) {
  Graph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  const auto color = TwoColor(g);
  ASSERT_TRUE(color.has_value());
  EXPECT_NE((*color)[0], (*color)[1]);
  EXPECT_NE((*color)[2], (*color)[3]);
}

TEST(CompleteBipartiteShapeTest, RecognizesEquijoinGraphs) {
  EXPECT_TRUE(ComponentsAreCompleteBipartite(CompleteBipartite(3, 4).ToGraph()));
  EXPECT_TRUE(ComponentsAreCompleteBipartite(MatchingGraph(5).ToGraph()));
  // Disjoint union of two complete bipartite blocks.
  const BipartiteGraph u =
      DisjointUnion(CompleteBipartite(2, 3), CompleteBipartite(1, 4));
  EXPECT_TRUE(ComponentsAreCompleteBipartite(u.ToGraph()));
}

TEST(CompleteBipartiteShapeTest, RejectsPathsAndStars) {
  EXPECT_FALSE(ComponentsAreCompleteBipartite(PathGraph(3).ToGraph()));
  // A star IS complete bipartite (K_{1,m}).
  EXPECT_TRUE(ComponentsAreCompleteBipartite(StarGraph(4).ToGraph()));
  EXPECT_FALSE(ComponentsAreCompleteBipartite(WorstCaseFamily(3).ToGraph()));
}

TEST(CompleteBipartiteShapeTest, RejectsOddCycles) {
  EXPECT_FALSE(ComponentsAreCompleteBipartite(CycleGraph(5)));
}

TEST(CompleteBipartiteShapeTest, EmptyGraphPasses) {
  EXPECT_TRUE(ComponentsAreCompleteBipartite(Graph(4)));
}

TEST(ClawTest, StarHasClaw) {
  const auto claw = FindInducedClaw(StarGraph(3).ToGraph());
  ASSERT_TRUE(claw.has_value());
  EXPECT_EQ((*claw)[0], 0);  // the center is flat id 0
}

TEST(ClawTest, CompleteGraphHasNone) {
  EXPECT_FALSE(FindInducedClaw(CompleteGraph(6)).has_value());
}

TEST(ClawTest, ClawNeedsNonAdjacentLeaves) {
  // K_{1,3} plus an edge between two leaves: the remaining claw is gone.
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  g.AddEdge(1, 2);
  EXPECT_FALSE(FindInducedClaw(g).has_value());
}

TEST(ClawTest, LineGraphsAreClawFree) {
  // Fundamental fact used by Theorem 3.1; checked over random graphs.
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    const Graph g = RandomGraph(12, 0.3, seed);
    const Graph line = BuildLineGraph(g);
    EXPECT_FALSE(FindInducedClaw(line).has_value()) << g.DebugString();
  }
}

TEST(DegreeTest, MaxDegreeAndHistogram) {
  const Graph g = StarGraph(4).ToGraph();
  EXPECT_EQ(MaxDegree(g), 4);
  const std::vector<int> hist = DegreeHistogram(g);
  ASSERT_EQ(hist.size(), 5u);
  EXPECT_EQ(hist[1], 4);  // four leaves
  EXPECT_EQ(hist[4], 1);  // one center
}

TEST(DegreeTest, EmptyGraph) {
  EXPECT_EQ(MaxDegree(Graph(3)), 0);
  EXPECT_EQ(NumNonIsolatedVertices(Graph(3)), 0);
}

TEST(DegreeTest, NumNonIsolated) {
  Graph g(5);
  g.AddEdge(0, 1);
  EXPECT_EQ(NumNonIsolatedVertices(g), 2);
}

}  // namespace
}  // namespace pebblejoin
