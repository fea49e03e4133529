#include "graph/components.h"

#include <algorithm>
#include <span>
#include <vector>

#include "graph/generators.h"
#include "gtest/gtest.h"

#include "graph_test_util.h"

namespace pebblejoin {
namespace {

std::vector<int> AsVector(std::span<const int> ids) {
  return std::vector<int>(ids.begin(), ids.end());
}

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
  EXPECT_EQ(d.edges_of(d.component_of[0]).size(), 2u);
  EXPECT_EQ(d.edges_of(d.component_of[3]).size(), 1u);
}

TEST(ComponentsTest, EdgesAssignedToOwningComponent) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  const ComponentDecomposition d = FindComponents(g);
  EXPECT_EQ(AsVector(d.edges_of(d.component_of[0])), std::vector<int>{0});
  EXPECT_EQ(AsVector(d.edges_of(d.component_of[2])), std::vector<int>{1});
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
  const std::span<const int> vertex_map = d.vertices_of(b);
  const std::span<const int> edge_map = d.edges_of(b);
  const Graph sub = ExtractComponent(g, d, b);
  EXPECT_EQ(sub.num_vertices(), 3);
  EXPECT_EQ(sub.num_edges(), 2);
  EXPECT_EQ(AsVector(edge_map), (std::vector<int>{1, 2}));
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
    size_t total_vertices = 0;
    for (int c = 0; c < d.num_components; ++c) {
      total_edges += d.edges_of(c).size();
      total_vertices += d.vertices_of(c).size();
    }
    EXPECT_EQ(total_edges, static_cast<size_t>(g.num_edges()));
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
      const std::span<const int> vertices = d.vertices_of(c);
      for (int i = 0; i < static_cast<int>(vertices.size()); ++i) {
        EXPECT_EQ(d.local_index[vertices[i]], i) << seed;
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

// The flat layout's invariants, which the in-place sort-merge sweep and
// byte identity rest on: offsets of num_components + 1 entries that never
// decrease, every non-isolated vertex and every edge listed exactly once
// and in its own component, components numbered by their smallest vertex,
// edge ids increasing within a component, and local_index inverting
// vertices_of(c).
void ExpectFlatLayout(const Graph& g, const ComponentDecomposition& d) {
  const size_t slots = static_cast<size_t>(d.num_components) + 1;
  ASSERT_EQ(d.vertex_offsets.size(), slots);
  ASSERT_EQ(d.edge_offsets.size(), slots);
  EXPECT_EQ(d.vertex_offsets.front(), 0);
  EXPECT_EQ(d.edge_offsets.front(), 0);
  EXPECT_EQ(d.vertex_offsets.back(), static_cast<int>(d.vertices.size()));
  EXPECT_EQ(d.edge_offsets.back(), static_cast<int>(d.edges.size()));
  for (size_t c = 0; c + 1 < slots; ++c) {
    EXPECT_LE(d.vertex_offsets[c], d.vertex_offsets[c + 1]);
    EXPECT_LE(d.edge_offsets[c], d.edge_offsets[c + 1]);
  }

  std::vector<int> vertex_seen(g.num_vertices(), 0);
  std::vector<int> edge_seen(g.num_edges(), 0);
  int previous_first = -1;
  for (int c = 0; c < d.num_components; ++c) {
    const std::span<const int> vertices = d.vertices_of(c);
    ASSERT_FALSE(vertices.empty()) << c;
    int smallest = vertices[0];
    for (int i = 0; i < static_cast<int>(vertices.size()); ++i) {
      const int v = vertices[i];
      ++vertex_seen[v];
      smallest = std::min(smallest, v);
      EXPECT_EQ(d.component_of[v], c);
      EXPECT_EQ(d.local_index[v], i);
    }
    // The traversal starts each component at its smallest vertex.
    EXPECT_EQ(vertices[0], smallest) << c;
    EXPECT_GT(smallest, previous_first) << c;
    previous_first = smallest;

    const std::span<const int> edges = d.edges_of(c);
    ASSERT_FALSE(edges.empty()) << c;
    for (size_t i = 0; i < edges.size(); ++i) {
      ++edge_seen[edges[i]];
      EXPECT_EQ(d.component_of[g.edge(edges[i]).u], c);
      if (i > 0) {
        EXPECT_LT(edges[i - 1], edges[i]) << c;
      }
    }
  }
  for (int v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(vertex_seen[v], Degree(g, v) > 0 ? 1 : 0) << v;
  }
  for (int e = 0; e < g.num_edges(); ++e) EXPECT_EQ(edge_seen[e], 1) << e;
}

TEST(ComponentsTest, FlatLayoutInvariantsHold) {
  ExpectFlatLayout(Graph(0), FindComponents(Graph(0)));
  ExpectFlatLayout(Graph(6), FindComponents(Graph(6)));
  ExpectFlatLayout(Graph(), ComponentDecomposition{});
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    // Sparse enough to leave isolated vertices and many components, dense
    // enough for cycles and components of several hundred edges.
    const Graph g = RandomGraph(60 + static_cast<int>(seed) * 5,
                                seed % 2 == 0 ? 0.02 : 0.06, seed);
    ExpectFlatLayout(g, FindComponents(g));
  }
}

TEST(BettiZeroTest, MatchesTheDecompositionsComponentCount) {
  EXPECT_EQ(BettiZero(Graph(0)), 0);
  EXPECT_EQ(BettiZero(Graph(9)), 0);  // edgeless: every vertex isolated
  int isolated_seen = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const Graph g = RandomGraph(50 + static_cast<int>(seed) * 3,
                                seed % 2 == 0 ? 0.01 : 0.04, seed);
    EXPECT_EQ(BettiZero(g), FindComponents(g).num_components) << seed;
    for (int v = 0; v < g.num_vertices(); ++v) {
      if (Degree(g, v) == 0) ++isolated_seen;
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
