#include "join/join_graph_builder.h"

#include "graph/graph_properties.h"
#include "gtest/gtest.h"
#include "join/predicates.h"
#include "join/relation.h"
#include "join/workload.h"

#include "graph_test_util.h"

namespace pebblejoin {
namespace {

// --- IntSet ---------------------------------------------------------------

TEST(IntSetTest, OfSortsAndDeduplicates) {
  const IntSet s = IntSet::Of({3, 1, 3, 2, 1});
  EXPECT_EQ(s.elements(), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.size(), 3);
}

TEST(IntSetTest, Contains) {
  const IntSet s = IntSet::Of({5, 7});
  EXPECT_TRUE(s.Contains(5));
  EXPECT_FALSE(s.Contains(6));
}

TEST(IntSetTest, SubsetSemantics) {
  const IntSet empty;
  const IntSet small = IntSet::Of({1, 3});
  const IntSet big = IntSet::Of({1, 2, 3});
  EXPECT_TRUE(empty.IsSubsetOf(small));
  EXPECT_TRUE(empty.IsSubsetOf(empty));
  EXPECT_TRUE(small.IsSubsetOf(big));
  EXPECT_FALSE(big.IsSubsetOf(small));
  EXPECT_TRUE(small.IsSubsetOf(small));
  EXPECT_FALSE(IntSet::Of({4}).IsSubsetOf(big));
}

TEST(IntSetTest, DebugString) {
  EXPECT_EQ(IntSet::Of({2, 1}).DebugString(), "{1,2}");
  EXPECT_EQ(IntSet().DebugString(), "{}");
}

// --- Rect -------------------------------------------------------------------

TEST(RectTest, OverlapBasics) {
  const Rect a{0, 2, 0, 2};
  const Rect b{1, 3, 1, 3};
  const Rect c{5, 6, 5, 6};
  EXPECT_TRUE(a.Overlaps(b));
  EXPECT_TRUE(b.Overlaps(a));
  EXPECT_FALSE(a.Overlaps(c));
}

TEST(RectTest, TouchingCountsAsOverlap) {
  const Rect a{0, 1, 0, 1};
  const Rect b{1, 2, 0, 1};
  EXPECT_TRUE(a.Overlaps(b));
}

TEST(RectTest, DisjointInOneDimensionOnly) {
  const Rect a{0, 1, 0, 1};
  const Rect b{0, 1, 2, 3};  // same x-range, disjoint y
  EXPECT_FALSE(a.Overlaps(b));
}

// --- Relations ---------------------------------------------------------------

TEST(RelationTest, BasicAccess) {
  KeyRelation r("R", {10, 20});
  r.Add(30);
  EXPECT_EQ(r.name(), "R");
  EXPECT_EQ(r.size(), 3);
  EXPECT_EQ(r.tuple(2), 30);
}

// --- Join graph builders ------------------------------------------------------

TEST(NestedLoopTest, MatchesManualEnumeration) {
  KeyRelation r("R", {1, 2, 2});
  KeyRelation s("S", {2, 3});
  const BipartiteGraph g =
      BuildJoinGraphNestedLoop(r, s, EqualityPredicate());
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(HasEdge(g, 1, 0));
  EXPECT_TRUE(HasEdge(g, 2, 0));
}

TEST(EquiJoinBuilderTest, MatchesNestedLoopOnWorkloads) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    EquijoinWorkloadOptions options;
    options.num_keys = 20;
    options.key_match_rate = 0.7;
    options.seed = seed;
    const Realization<int64_t> w = GenerateEquijoinWorkload(options);
    const BipartiteGraph fast = BuildEquiJoinGraph(w.left, w.right);
    const BipartiteGraph slow =
        BuildJoinGraphNestedLoop(w.left, w.right, EqualityPredicate());
    EXPECT_TRUE(fast.SameEdgeSet(slow)) << seed;
  }
}

TEST(EquiJoinBuilderTest, JoinGraphIsEquijoinShaped) {
  // Theorem 3.2's premise: every equijoin join graph is a disjoint union of
  // complete bipartite graphs.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    EquijoinWorkloadOptions options;
    options.num_keys = 15;
    options.max_left_dup = 4;
    options.max_right_dup = 4;
    options.seed = seed;
    const Realization<int64_t> w = GenerateEquijoinWorkload(options);
    const BipartiteGraph g = BuildEquiJoinGraph(w.left, w.right);
    EXPECT_TRUE(ComponentsAreCompleteBipartite(g.ToGraph())) << seed;
  }
}

TEST(SetContainmentBuilderTest, MatchesNestedLoopOnWorkloads) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SetWorkloadOptions options;
    options.num_left = 25;
    options.num_right = 25;
    options.universe = 12;
    options.seed = seed;
    const Realization<IntSet> w = GenerateSetWorkload(options);
    const BipartiteGraph fast =
        BuildSetContainmentJoinGraph(w.left, w.right);
    const BipartiteGraph slow =
        BuildJoinGraphNestedLoop(w.left, w.right, SubsetPredicate());
    EXPECT_TRUE(fast.SameEdgeSet(slow)) << seed;
  }
}

TEST(SetContainmentBuilderTest, EmptyLeftSetJoinsEverything) {
  SetRelation r("R");
  r.Add(IntSet());
  SetRelation s("S");
  s.Add(IntSet::Of({1}));
  s.Add(IntSet());
  const BipartiteGraph g = BuildSetContainmentJoinGraph(r, s);
  EXPECT_EQ(g.num_edges(), 2);
}

TEST(SetContainmentBuilderTest, ElementAbsentFromAllRightSets) {
  SetRelation r("R");
  r.Add(IntSet::Of({99}));
  SetRelation s("S");
  s.Add(IntSet::Of({1, 2}));
  EXPECT_EQ(BuildSetContainmentJoinGraph(r, s).num_edges(), 0);
}

TEST(OverlapBuilderTest, MatchesNestedLoopOnWorkloads) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    RectWorkloadOptions options;
    options.num_left = 30;
    options.num_right = 30;
    options.seed = seed;
    const Realization<Rect> w = GenerateRectWorkload(options);
    const BipartiteGraph fast = BuildOverlapJoinGraph(w.left, w.right);
    const BipartiteGraph slow =
        BuildJoinGraphNestedLoop(w.left, w.right, OverlapPredicate());
    EXPECT_TRUE(fast.SameEdgeSet(slow)) << seed;
  }
}

TEST(OverlapBuilderTest, TouchingRectanglesJoin) {
  RectRelation r("R");
  r.Add(Rect{0, 1, 0, 1});
  RectRelation s("S");
  s.Add(Rect{1, 2, 1, 2});  // touches at the corner point (1,1)
  EXPECT_EQ(BuildOverlapJoinGraph(r, s).num_edges(), 1);
}

TEST(OverlapBuilderTest, EmptyRelations) {
  RectRelation r("R");
  RectRelation s("S");
  EXPECT_EQ(BuildOverlapJoinGraph(r, s).num_edges(), 0);
}

TEST(StringEquiJoinTest, MatchesNestedLoop) {
  // The paper's string-key domain, through the generic hash builder.
  StringRelation r("R", {"ann", "bob", "bob", "cid"});
  StringRelation s("S", {"bob", "cid", "cid", "dee"});
  struct StringEq {
    bool operator()(const std::string& a, const std::string& b) const {
      return a == b;
    }
  };
  const BipartiteGraph fast = BuildEquiJoinGraphOver(r, s);
  const BipartiteGraph slow = BuildJoinGraphNestedLoop(r, s, StringEq());
  EXPECT_TRUE(fast.SameEdgeSet(slow));
  EXPECT_EQ(fast.num_edges(), 4);  // bob x2, cid x2
}

TEST(StringEquiJoinTest, ShapeIsEquijoin) {
  StringRelation r("R", {"x", "x", "y"});
  StringRelation s("S", {"x", "y", "y", "z"});
  const BipartiteGraph g = BuildEquiJoinGraphOver(r, s);
  EXPECT_TRUE(ComponentsAreCompleteBipartite(g.ToGraph()));
}

TEST(PredicateClassNameTest, AllNamesDistinct) {
  EXPECT_STREQ(PredicateClassName(PredicateClass::kEquality), "equijoin");
  EXPECT_STREQ(PredicateClassName(PredicateClass::kSpatialOverlap),
               "spatial-overlap");
  EXPECT_STREQ(PredicateClassName(PredicateClass::kSetContainment),
               "set-containment");
  EXPECT_STREQ(PredicateClassName(PredicateClass::kGeneral), "general");
}

}  // namespace
}  // namespace pebblejoin
