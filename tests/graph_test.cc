#include "graph/graph.h"

#include <vector>

#include "graph/bipartite_graph.h"
#include "graph/csr_graph.h"
#include "gtest/gtest.h"

namespace pebblejoin {
namespace {

std::vector<int> ToVector(CsrSpan span) {
  return std::vector<int>(span.begin(), span.end());
}

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(GraphTest, AddEdgeAssignsSequentialIds) {
  Graph g(4);
  EXPECT_EQ(g.AddEdge(0, 1), 0);
  EXPECT_EQ(g.AddEdge(1, 2), 1);
  EXPECT_EQ(g.AddEdge(2, 3), 2);
  EXPECT_EQ(g.num_edges(), 3);
}

TEST(GraphTest, EdgeEndpointsStored) {
  Graph g(3);
  g.AddEdge(2, 0);
  EXPECT_EQ(g.edge(0).u, 2);
  EXPECT_EQ(g.edge(0).v, 0);
}

TEST(GraphTest, EdgeOther) {
  Graph g(3);
  g.AddEdge(0, 2);
  EXPECT_EQ(g.edge(0).Other(0), 2);
  EXPECT_EQ(g.edge(0).Other(2), 0);
}

TEST(GraphDeathTest, EdgeOtherRejectsNonEndpoint) {
  Graph g(3);
  g.AddEdge(0, 2);
  EXPECT_DEATH(g.edge(0).Other(1), "JP_CHECK");
}

TEST(GraphTest, EdgeTouches) {
  Graph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(3, 4);
  EXPECT_TRUE(g.edge(0).Touches(g.edge(1)));
  EXPECT_FALSE(g.edge(0).Touches(g.edge(2)));
  EXPECT_TRUE(g.edge(0).Touches(g.edge(0)));
}

TEST(GraphTest, DegreeAndIncidence) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  const CsrGraph& csr = g.csr();
  EXPECT_EQ(csr.Degree(0), 3u);
  EXPECT_EQ(csr.Degree(1), 1u);
  EXPECT_EQ(csr.IncidentEdges(0).size, 3u);
  EXPECT_EQ(csr.IncidentEdges(0)[1], 1u);
}

TEST(GraphTest, Neighbors) {
  Graph g(4);
  g.AddEdge(1, 0);
  g.AddEdge(1, 3);
  EXPECT_EQ(ToVector(g.csr().Neighbors(1)), (std::vector<int>{0, 3}));
  EXPECT_EQ(ToVector(g.csr().Neighbors(2)), std::vector<int>{});
}

TEST(GraphTest, HasEdgeAndFindEdgeSymmetric) {
  Graph g(3);
  g.AddEdge(0, 1);
  const CsrGraph& csr = g.csr();
  EXPECT_TRUE(csr.HasEdge(0, 1));
  EXPECT_TRUE(csr.HasEdge(1, 0));
  EXPECT_FALSE(csr.HasEdge(0, 2));
  EXPECT_EQ(csr.FindEdge(1, 0), 0);
  EXPECT_EQ(csr.FindEdge(2, 0), -1);
}

TEST(GraphDeathTest, RejectsSelfLoop) {
  Graph g(2);
  EXPECT_DEATH(g.AddEdge(1, 1), "self-loops");
}

// The simple-graph invariant is checked once, when the CSR view freezes.
TEST(GraphDeathTest, RejectsParallelEdge) {
  Graph g(2);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  EXPECT_DEATH(g.csr(), "parallel edges are not allowed");
}

TEST(GraphDeathTest, RejectsOutOfRangeVertex) {
  Graph g(2);
  EXPECT_DEATH(g.AddEdge(0, 2), "JP_CHECK");
}

TEST(GraphTest, DebugStringListsEdges) {
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  EXPECT_EQ(g.DebugString(), "Graph(3 vertices): 0-1 1-2");
}

TEST(BipartiteGraphTest, SizesAndEdges) {
  BipartiteGraph g(2, 3);
  EXPECT_EQ(g.left_size(), 2);
  EXPECT_EQ(g.right_size(), 3);
  EXPECT_EQ(g.AddEdge(0, 2), 0);
  EXPECT_EQ(g.AddEdge(1, 0), 1);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.edge(0).left, 0);
  EXPECT_EQ(g.edge(0).right, 2);
}

TEST(BipartiteGraphTest, HasEdge) {
  BipartiteGraph g(2, 2);
  g.AddEdge(0, 1);
  const Graph flat = g.ToGraph();
  EXPECT_TRUE(flat.csr().HasEdge(g.FlatLeftId(0), g.FlatRightId(1)));
  EXPECT_FALSE(flat.csr().HasEdge(g.FlatLeftId(1), g.FlatRightId(1)));
}

// A repeated pair is kept by AddEdge and caught when the flattened graph
// freezes.
TEST(BipartiteGraphDeathTest, RejectsDuplicateEdge) {
  BipartiteGraph g(2, 2);
  g.AddEdge(0, 1);
  g.AddEdge(0, 1);
  EXPECT_DEATH(g.ToGraph().csr(), "parallel edges are not allowed");
}

TEST(BipartiteGraphTest, DegreesAndAdjacency) {
  BipartiteGraph g(2, 2);
  g.AddEdge(0, 0);
  g.AddEdge(0, 1);
  g.AddEdge(1, 1);
  const Graph flat = g.ToGraph();
  const CsrGraph& csr = flat.csr();
  EXPECT_EQ(csr.Degree(g.FlatLeftId(0)), 2u);
  EXPECT_EQ(csr.Degree(g.FlatLeftId(1)), 1u);
  EXPECT_EQ(csr.Degree(g.FlatRightId(1)), 2u);
  EXPECT_EQ(ToVector(csr.Neighbors(g.FlatLeftId(0))),
            (std::vector<int>{g.FlatRightId(0), g.FlatRightId(1)}));
  EXPECT_EQ(ToVector(csr.Neighbors(g.FlatRightId(1))),
            (std::vector<int>{g.FlatLeftId(0), g.FlatLeftId(1)}));
}

TEST(BipartiteGraphTest, ToGraphPreservesIdsAndStructure) {
  BipartiteGraph g(2, 3);
  g.AddEdge(0, 2);
  g.AddEdge(1, 0);
  const Graph flat = g.ToGraph();
  EXPECT_EQ(flat.num_vertices(), 5);
  EXPECT_EQ(flat.num_edges(), 2);
  // Edge 0 joins left 0 (flat id 0) with right 2 (flat id 2 + 2 = 4).
  EXPECT_EQ(flat.edge(0).u, g.FlatLeftId(0));
  EXPECT_EQ(flat.edge(0).v, g.FlatRightId(2));
  EXPECT_EQ(flat.edge(1).u, g.FlatLeftId(1));
  EXPECT_EQ(flat.edge(1).v, g.FlatRightId(0));
}

TEST(BipartiteGraphTest, SameEdgeSetIgnoresInsertionOrder) {
  BipartiteGraph a(2, 2);
  a.AddEdge(0, 0);
  a.AddEdge(1, 1);
  BipartiteGraph b(2, 2);
  b.AddEdge(1, 1);
  b.AddEdge(0, 0);
  EXPECT_TRUE(a.SameEdgeSet(b));
}

TEST(BipartiteGraphTest, SameEdgeSetDetectsDifferences) {
  BipartiteGraph a(2, 2);
  a.AddEdge(0, 0);
  BipartiteGraph b(2, 2);
  b.AddEdge(0, 1);
  EXPECT_FALSE(a.SameEdgeSet(b));
  BipartiteGraph c(3, 2);
  c.AddEdge(0, 0);
  EXPECT_FALSE(a.SameEdgeSet(c));
}

}  // namespace
}  // namespace pebblejoin
