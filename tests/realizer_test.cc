#include "join/realizers.h"

#include "graph/generators.h"
#include "gtest/gtest.h"
#include "join/join_graph_builder.h"
#include "join/predicates.h"

#include "graph_test_util.h"

namespace pebblejoin {
namespace {

TEST(SetContainmentRealizerTest, ReproducesArbitraryGraphs) {
  // Lemma 3.3: every bipartite graph is a set-containment join graph.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const BipartiteGraph target = RandomBipartite(8, 8, 0.3, seed);
    const Realization<IntSet> inst = RealizeAsSetContainment(target);
    const BipartiteGraph rebuilt =
        BuildSetContainmentJoinGraph(inst.left, inst.right);
    EXPECT_TRUE(rebuilt.SameEdgeSet(target)) << seed;
  }
}

TEST(SetContainmentRealizerTest, ReproducesWorstCaseFamily) {
  for (int n = 3; n <= 10; ++n) {
    const BipartiteGraph target = WorstCaseFamily(n);
    const Realization<IntSet> inst = RealizeAsSetContainment(target);
    const BipartiteGraph rebuilt =
        BuildSetContainmentJoinGraph(inst.left, inst.right);
    EXPECT_TRUE(rebuilt.SameEdgeSet(target)) << n;
  }
}

TEST(SetContainmentRealizerTest, LemmaConstructionShape) {
  const BipartiteGraph target = WorstCaseFamily(3);
  const Realization<IntSet> inst = RealizeAsSetContainment(target);
  // Left tuples are singletons {i}.
  for (int i = 0; i < inst.left.size(); ++i) {
    EXPECT_EQ(inst.left.tuple(i).elements(), std::vector<int>{i});
  }
  // Right tuple j is the adjacency set of right vertex j.
  EXPECT_EQ(inst.right.tuple(0).size(), RightDegree(target, 0));
}

TEST(SetContainmentRealizerTest, EmptyGraph) {
  const BipartiteGraph target(3, 2);
  const Realization<IntSet> inst = RealizeAsSetContainment(target);
  EXPECT_EQ(
      BuildSetContainmentJoinGraph(inst.left, inst.right).num_edges(), 0);
}

TEST(SpatialRealizerTest, ReproducesWorstCaseFamily) {
  // Lemma 3.4.
  for (int n = 3; n <= 12; ++n) {
    const Realization<Rect> inst = RealizeWorstCaseAsSpatial(n);
    const BipartiteGraph rebuilt =
        BuildOverlapJoinGraph(inst.left, inst.right);
    EXPECT_TRUE(rebuilt.SameEdgeSet(WorstCaseFamily(n))) << n;
  }
}

TEST(SpatialRealizerTest, NestedLoopAgrees) {
  const Realization<Rect> inst = RealizeWorstCaseAsSpatial(5);
  const BipartiteGraph a = BuildOverlapJoinGraph(inst.left, inst.right);
  const BipartiteGraph b =
      BuildJoinGraphNestedLoop(inst.left, inst.right, OverlapPredicate());
  EXPECT_TRUE(a.SameEdgeSet(b));
}

TEST(EquiJoinRealizerTest, RoundTripsCompleteBipartiteUnions) {
  const BipartiteGraph target = DisjointUnion(
      DisjointUnion(CompleteBipartite(2, 3), MatchingGraph(3)),
      CompleteBipartite(1, 4));
  const auto inst = RealizeAsEquiJoin(target);
  ASSERT_TRUE(inst.has_value());
  const BipartiteGraph rebuilt = BuildEquiJoinGraph(inst->left, inst->right);
  EXPECT_TRUE(rebuilt.SameEdgeSet(target));
}

TEST(EquiJoinRealizerTest, HandlesIsolatedVertices) {
  BipartiteGraph target(3, 3);
  target.AddEdge(0, 0);  // left 1,2 and right 1,2 isolated
  const auto inst = RealizeAsEquiJoin(target);
  ASSERT_TRUE(inst.has_value());
  const BipartiteGraph rebuilt = BuildEquiJoinGraph(inst->left, inst->right);
  EXPECT_TRUE(rebuilt.SameEdgeSet(target));
}

TEST(EquiJoinRealizerTest, RefusesNonEquijoinShapes) {
  EXPECT_FALSE(RealizeAsEquiJoin(PathGraph(3)).has_value());
  EXPECT_FALSE(RealizeAsEquiJoin(WorstCaseFamily(3)).has_value());
}

}  // namespace
}  // namespace pebblejoin
