#include "graph/generators.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "graph/components.h"
#include "graph/graph_properties.h"
#include "gtest/gtest.h"
#include "io/graph_io.h"

#include "graph_test_util.h"

namespace pebblejoin {
namespace {

TEST(CompleteBipartiteTest, SizesAndCompleteness) {
  const BipartiteGraph g = CompleteBipartite(3, 4);
  EXPECT_EQ(g.num_edges(), 12);
  for (int l = 0; l < 3; ++l) {
    for (int r = 0; r < 4; ++r) EXPECT_TRUE(HasEdge(g, l, r));
  }
}

TEST(MatchingTest, Shape) {
  const Graph g = MatchingGraph(6).ToGraph();
  EXPECT_EQ(g.num_edges(), 6);
  EXPECT_EQ(MaxDegree(g), 1);
  EXPECT_EQ(BettiZero(g), 6);
}

TEST(PathTest, ShapeForEvenAndOdd) {
  for (int m = 1; m <= 8; ++m) {
    const Graph g = PathGraph(m).ToGraph();
    EXPECT_EQ(g.num_edges(), m);
    EXPECT_EQ(BettiZero(g), 1);
    EXPECT_LE(MaxDegree(g), 2);
    const std::vector<int> hist = DegreeHistogram(g);
    EXPECT_EQ(hist[1], 2);  // exactly two endpoints
  }
}

TEST(EvenCycleTest, Shape) {
  for (int k = 2; k <= 6; ++k) {
    const Graph g = EvenCycle(k).ToGraph();
    EXPECT_EQ(g.num_edges(), 2 * k);
    EXPECT_EQ(BettiZero(g), 1);
    EXPECT_EQ(MaxDegree(g), 2);
    EXPECT_EQ(DegreeHistogram(g)[2], 2 * k);  // every vertex degree 2
  }
}

TEST(StarTest, Shape) {
  const Graph g = StarGraph(5).ToGraph();
  EXPECT_EQ(g.num_edges(), 5);
  EXPECT_EQ(Degree(g, 0), 5);
}

TEST(WorstCaseFamilyTest, Shape) {
  for (int n = 3; n <= 8; ++n) {
    const BipartiteGraph g = WorstCaseFamily(n);
    EXPECT_EQ(g.left_size(), n + 1);
    EXPECT_EQ(g.right_size(), n);
    EXPECT_EQ(g.num_edges(), 2 * n);
    // Hub degree n; every private left vertex degree 1; right degree 2.
    EXPECT_EQ(LeftDegree(g, 0), n);
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(LeftDegree(g, 1 + i), 1);
      EXPECT_EQ(RightDegree(g, i), 2);
    }
    EXPECT_EQ(BettiZero(g.ToGraph()), 1);
    // Edge id convention used elsewhere: 2i = spoke, 2i+1 = pendant.
    EXPECT_EQ(g.edge(2 * (n - 1)).left, 0);
    EXPECT_EQ(g.edge(2 * (n - 1) + 1).left, n);
  }
}

TEST(RandomBipartiteTest, ProbabilityExtremes) {
  EXPECT_EQ(RandomBipartite(5, 5, 0.0, 1).num_edges(), 0);
  EXPECT_EQ(RandomBipartite(5, 5, 1.0, 1).num_edges(), 25);
}

TEST(RandomBipartiteTest, Deterministic) {
  const BipartiteGraph a = RandomBipartite(10, 10, 0.3, 77);
  const BipartiteGraph b = RandomBipartite(10, 10, 0.3, 77);
  EXPECT_TRUE(a.SameEdgeSet(b));
}

TEST(RandomBipartiteWithEdgesTest, ExactCount) {
  for (int m : {0, 1, 10, 40, 100}) {
    const BipartiteGraph g = RandomBipartiteWithEdges(10, 10, m, 5);
    EXPECT_EQ(g.num_edges(), m);
  }
}

TEST(RandomBipartiteWithEdgesTest, DenseSamplingPath) {
  // m close to full forces the subset-sampling branch.
  const BipartiteGraph g = RandomBipartiteWithEdges(6, 6, 34, 9);
  EXPECT_EQ(g.num_edges(), 34);
}

TEST(RandomConnectedBipartiteTest, ConnectedWithExactEdges) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const BipartiteGraph g = RandomConnectedBipartite(6, 8, 20, seed);
    EXPECT_EQ(g.num_edges(), 20);
    const Graph flat = g.ToGraph();
    EXPECT_EQ(BettiZero(flat), 1);
    EXPECT_EQ(NumNonIsolatedVertices(flat), 14);  // spanning
  }
}

TEST(RandomConnectedBipartiteTest, TreeCase) {
  const BipartiteGraph g = RandomConnectedBipartite(4, 5, 8, 3);
  EXPECT_EQ(g.num_edges(), 8);  // exactly a spanning tree
  EXPECT_EQ(BettiZero(g.ToGraph()), 1);
}

TEST(DisjointUnionTest, ShiftsIdsCorrectly) {
  const BipartiteGraph u =
      DisjointUnion(CompleteBipartite(1, 2), MatchingGraph(2));
  EXPECT_EQ(u.left_size(), 3);
  EXPECT_EQ(u.right_size(), 4);
  EXPECT_EQ(u.num_edges(), 4);
  EXPECT_TRUE(HasEdge(u, 0, 0));
  EXPECT_TRUE(HasEdge(u, 0, 1));
  EXPECT_TRUE(HasEdge(u, 1, 2));
  EXPECT_TRUE(HasEdge(u, 2, 3));
  EXPECT_EQ(BettiZero(u.ToGraph()), 3);
}

TEST(RandomGraphTest, ExtremesAndDeterminism) {
  EXPECT_EQ(RandomGraph(6, 0.0, 1).num_edges(), 0);
  EXPECT_EQ(RandomGraph(6, 1.0, 1).num_edges(), 15);
  EXPECT_EQ(RandomGraph(12, 0.4, 9).num_edges(),
            RandomGraph(12, 0.4, 9).num_edges());
}

TEST(RandomConnectedBoundedDegreeTest, RespectsBoundAndConnectivity) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const Graph g = RandomConnectedBoundedDegree(15, 4, 10, seed);
    EXPECT_LE(MaxDegree(g), 4);
    EXPECT_EQ(BettiZero(g), 1);
    EXPECT_GE(g.num_edges(), 14);  // at least the spanning tree
  }
}

TEST(RandomConnectedBoundedDegreeTest, DegreeThreeWorks) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const Graph g = RandomConnectedBoundedDegree(12, 3, 6, seed);
    EXPECT_LE(MaxDegree(g), 3);
    EXPECT_EQ(BettiZero(g), 1);
  }
}

TEST(CompleteAndCycleGraphTest, Shapes) {
  EXPECT_EQ(CompleteGraph(5).num_edges(), 10);
  EXPECT_EQ(CycleGraph(5).num_edges(), 5);
  EXPECT_EQ(MaxDegree(CycleGraph(5)), 2);
}

std::string Fnv1a64Hex(const std::string& bytes) {
  uint64_t hash = 14695981039346656037ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

// Pins every generator's exact output (sizes, edges and edge order) at
// fixed seeds. The solve goldens and the frozen benchmark corpus are
// built from these graphs, so a change to a generator's RNG stream or
// insertion order must show up here first.
TEST(GeneratorOutputTest, SerializedBytesArePinned) {
  struct Case {
    const char* name;
    std::string bytes;
    const char* fnv;
  };
  const std::vector<Case> cases = {
      {"complete_3x4", SerializeBipartiteGraph(CompleteBipartite(3, 4)),
       "e950010f8944456d"},
      {"matching_5", SerializeBipartiteGraph(MatchingGraph(5)),
       "cdab711dda81bc34"},
      {"path_7", SerializeBipartiteGraph(PathGraph(7)), "fcc323e0a984a7a5"},
      {"even_cycle_4", SerializeBipartiteGraph(EvenCycle(4)),
       "3c4de80f9d75d41b"},
      {"star_6", SerializeBipartiteGraph(StarGraph(6)), "4001d38eeaa9fe5b"},
      {"worst_case_5", SerializeBipartiteGraph(WorstCaseFamily(5)),
       "39f86613e9a5d09e"},
      {"random_bipartite_9x11_s3",
       SerializeBipartiteGraph(RandomBipartite(9, 11, 0.3, 3)),
       "a763f0a3f637c04b"},
      // Sparse request: the rejection sampler.
      {"with_edges_sparse_20x30x40_s5",
       SerializeBipartiteGraph(RandomBipartiteWithEdges(20, 30, 40, 5)),
       "9f34b961aa01aca5"},
      // Dense request: the subset sampler.
      {"with_edges_dense_6x7x30_s5",
       SerializeBipartiteGraph(RandomBipartiteWithEdges(6, 7, 30, 5)),
       "f84d15a2a31f1e35"},
      // Spanning tree plus rejection-sampled extras.
      {"connected_8x9x40_s7",
       SerializeBipartiteGraph(RandomConnectedBipartite(8, 9, 40, 7)),
       "ff2abd25e8a599c8"},
      {"connected_tree_6x5_s2",
       SerializeBipartiteGraph(RandomConnectedBipartite(6, 5, 10, 2)),
       "7d14a9df50019103"},
      {"disjoint_union",
       SerializeBipartiteGraph(
           DisjointUnion(WorstCaseFamily(3), RandomBipartite(4, 4, 0.5, 9))),
       "d2286ce0513b2500"},
      {"random_graph_14_s4", SerializeGraph(RandomGraph(14, 0.35, 4)),
       "2b54d49b9e3fdadd"},
      // Degree-bounded tree plus rejection-sampled extras.
      {"bounded_degree_30_d3_s11",
       SerializeGraph(RandomConnectedBoundedDegree(30, 3, 12, 11)),
       "edf8b0910f0f1d15"},
      {"bounded_degree_40_d4_s12",
       SerializeGraph(RandomConnectedBoundedDegree(40, 4, 30, 12)),
       "c3f40384557ce810"},
      {"complete_graph_6", SerializeGraph(CompleteGraph(6)),
       "933f6a3923353d26"},
      {"cycle_graph_7", SerializeGraph(CycleGraph(7)), "d512cc4ea60659f1"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(Fnv1a64Hex(c.bytes), c.fnv) << c.name << "\n" << c.bytes;
  }
}

}  // namespace
}  // namespace pebblejoin
