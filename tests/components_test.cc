#include "graph/components.h"

#include "graph/generators.h"
#include "gtest/gtest.h"

#include "graph_test_util.h"

namespace pebblejoin {
namespace {

TEST(ComponentsTest, EmptyGraphHasNoComponents) {
  Graph g(5);
  const ComponentDecomposition d = FindComponents(g);
  EXPECT_EQ(d.num_components, 0);
  for (int v = 0; v < 5; ++v) EXPECT_EQ(d.component_of[v], -1);
}

TEST(ComponentsTest, IsolatedVerticesIgnored) {
  Graph g(4);
  g.AddEdge(0, 1);
  const ComponentDecomposition d = FindComponents(g);
  EXPECT_EQ(d.num_components, 1);
  EXPECT_EQ(d.component_of[2], -1);
  EXPECT_EQ(d.component_of[3], -1);
}

TEST(ComponentsTest, TwoComponents) {
  Graph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(3, 4);
  const ComponentDecomposition d = FindComponents(g);
  EXPECT_EQ(d.num_components, 2);
  EXPECT_EQ(d.component_of[0], d.component_of[2]);
  EXPECT_NE(d.component_of[0], d.component_of[3]);
  EXPECT_EQ(d.edges_of[d.component_of[0]].size(), 2u);
  EXPECT_EQ(d.edges_of[d.component_of[3]].size(), 1u);
}

TEST(ComponentsTest, EdgesAssignedToOwningComponent) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  const ComponentDecomposition d = FindComponents(g);
  EXPECT_EQ(d.edges_of[d.component_of[0]], std::vector<int>{0});
  EXPECT_EQ(d.edges_of[d.component_of[2]], std::vector<int>{1});
}

TEST(BettiZeroTest, MatchingHasOneComponentPerEdge) {
  const Graph g = MatchingGraph(7).ToGraph();
  EXPECT_EQ(BettiZero(g), 7);
}

TEST(BettiZeroTest, CompleteBipartiteIsConnected) {
  const Graph g = CompleteBipartite(3, 4).ToGraph();
  EXPECT_EQ(BettiZero(g), 1);
}

TEST(IsConnectedTest, RequiresAnEdge) {
  Graph g(3);
  EXPECT_FALSE(IsConnectedIgnoringIsolated(g));
  g.AddEdge(0, 1);
  EXPECT_TRUE(IsConnectedIgnoringIsolated(g));  // vertex 2 is isolated
  Graph h(4);
  h.AddEdge(0, 1);
  h.AddEdge(2, 3);
  EXPECT_FALSE(IsConnectedIgnoringIsolated(h));
}

TEST(ExtractComponentTest, MapsVerticesAndEdgesBack) {
  Graph g(6);
  g.AddEdge(0, 1);   // component A
  g.AddEdge(2, 3);   // component B
  g.AddEdge(3, 4);   // component B
  const ComponentDecomposition d = FindComponents(g);
  const int b = d.component_of[2];
  const std::vector<int>& vertex_map = d.vertices_of[b];
  const std::vector<int>& edge_map = d.edges_of[b];
  const Graph sub = ExtractComponent(g, d, b);
  EXPECT_EQ(sub.num_vertices(), 3);
  EXPECT_EQ(sub.num_edges(), 2);
  EXPECT_EQ(edge_map, (std::vector<int>{1, 2}));
  // Each sub edge maps to an original edge with corresponding endpoints.
  for (int e = 0; e < sub.num_edges(); ++e) {
    const Graph::Edge& se = sub.edge(e);
    const Graph::Edge& oe = g.edge(edge_map[e]);
    EXPECT_TRUE((vertex_map[se.u] == oe.u && vertex_map[se.v] == oe.v) ||
                (vertex_map[se.u] == oe.v && vertex_map[se.v] == oe.u));
  }
}

TEST(ExtractComponentTest, SingleEdgeComponent) {
  Graph g(2);
  g.AddEdge(0, 1);
  const ComponentDecomposition d = FindComponents(g);
  const Graph sub = ExtractComponent(g, d, 0);
  EXPECT_EQ(sub.num_edges(), 1);
}

TEST(ComponentsTest, RandomGraphComponentsPartitionEdges) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const Graph g = RandomGraph(30, 0.05, seed);
    const ComponentDecomposition d = FindComponents(g);
    size_t total_edges = 0;
    for (const auto& edges : d.edges_of) total_edges += edges.size();
    EXPECT_EQ(total_edges, static_cast<size_t>(g.num_edges()));
    size_t total_vertices = 0;
    for (const auto& vertices : d.vertices_of) {
      total_vertices += vertices.size();
    }
    int non_isolated = 0;
    for (int v = 0; v < g.num_vertices(); ++v) {
      if (Degree(g, v) > 0) ++non_isolated;
    }
    EXPECT_EQ(total_vertices, static_cast<size_t>(non_isolated));
  }
}

TEST(ComponentsTest, LocalIndexInvertsVerticesOf) {
  // p = 0.05 on 30 vertices leaves isolated vertices in most seeds.
  int isolated_seen = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const Graph g = RandomGraph(30, 0.05, seed);
    const ComponentDecomposition d = FindComponents(g);
    ASSERT_EQ(d.local_index.size(), static_cast<size_t>(g.num_vertices()));
    for (int c = 0; c < d.num_components; ++c) {
      for (int i = 0; i < static_cast<int>(d.vertices_of[c].size()); ++i) {
        EXPECT_EQ(d.local_index[d.vertices_of[c][i]], i) << seed;
      }
    }
    for (int v = 0; v < g.num_vertices(); ++v) {
      if (Degree(g, v) > 0) continue;
      ++isolated_seen;
      EXPECT_EQ(d.local_index[v], -1) << seed;
    }
  }
  EXPECT_GT(isolated_seen, 0);
}

TEST(ExtractComponentDeathTest, RejectsDecompositionOfAnotherGraph) {
  Graph small(2);
  small.AddEdge(0, 1);
  Graph large(4);
  large.AddEdge(0, 1);
  large.AddEdge(2, 3);
  const ComponentDecomposition d = FindComponents(small);
  EXPECT_DEATH(ExtractComponent(large, d, 0),
               "decomposition does not belong to this graph");
}

}  // namespace
}  // namespace pebblejoin
