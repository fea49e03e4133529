#include "paging/page_schedule.h"

#include "graph/generators.h"
#include "graph/graph_properties.h"
#include "gtest/gtest.h"
#include "join/join_graph_builder.h"
#include "join/workload.h"
#include "pebble/scheme_verifier.h"
#include "solver/local_search_pebbler.h"
#include "solver/sort_merge_pebbler.h"

#include "graph_test_util.h"

namespace pebblejoin {
namespace {

TEST(PageLayoutTest, SequentialShape) {
  const PageLayout layout = SequentialLayout(10, 4);
  EXPECT_EQ(layout.num_pages, 3);
  EXPECT_EQ(layout.page_of[0], 0);
  EXPECT_EQ(layout.page_of[3], 0);
  EXPECT_EQ(layout.page_of[4], 1);
  EXPECT_EQ(layout.page_of[9], 2);
  EXPECT_TRUE(IsValidLayout(layout, 10));
  EXPECT_EQ(layout.TuplesOnPage(1), (std::vector<int>{4, 5, 6, 7}));
}

TEST(PageLayoutTest, ExactFit) {
  const PageLayout layout = SequentialLayout(8, 4);
  EXPECT_EQ(layout.num_pages, 2);
}

TEST(PageLayoutTest, EmptyRelation) {
  const PageLayout layout = SequentialLayout(0, 4);
  EXPECT_EQ(layout.num_pages, 0);
  EXPECT_TRUE(IsValidLayout(layout, 0));
}

TEST(PageLayoutTest, RandomLayoutIsValidAndDeterministic) {
  const PageLayout a = RandomLayout(23, 5, 7);
  const PageLayout b = RandomLayout(23, 5, 7);
  EXPECT_TRUE(IsValidLayout(a, 23));
  EXPECT_EQ(a.page_of, b.page_of);
  EXPECT_EQ(a.num_pages, 5);
}

TEST(PageLayoutTest, RandomDiffersFromSequential) {
  const PageLayout random = RandomLayout(40, 5, 3);
  const PageLayout sequential = SequentialLayout(40, 5);
  EXPECT_NE(random.page_of, sequential.page_of);
}

TEST(IsValidLayoutTest, DetectsOverfullPages) {
  PageLayout layout;
  layout.num_pages = 2;
  layout.page_capacity = 1;
  layout.page_of = {0, 0, 1};
  EXPECT_FALSE(IsValidLayout(layout, 3));
  layout.page_of = {0, 1, 5};
  EXPECT_FALSE(IsValidLayout(layout, 3));
}

TEST(PageJoinGraphTest, CollapsesParallelPairs) {
  // Tuple join graph: K_{2,2} on tuples all mapping to one page pair.
  const BipartiteGraph tuples = CompleteBipartite(2, 2);
  const PageLayout left = SequentialLayout(2, 2);
  const PageLayout right = SequentialLayout(2, 2);
  const BipartiteGraph pages = BuildPageJoinGraph(tuples, left, right);
  EXPECT_EQ(pages.left_size(), 1);
  EXPECT_EQ(pages.right_size(), 1);
  EXPECT_EQ(pages.num_edges(), 1);
}

TEST(PageJoinGraphTest, PreservesCrossPageEdges) {
  const BipartiteGraph tuples = MatchingGraph(4);
  const PageLayout left = SequentialLayout(4, 2);   // pages {0,1},{2,3}
  const PageLayout right = SequentialLayout(4, 2);
  const BipartiteGraph pages = BuildPageJoinGraph(tuples, left, right);
  EXPECT_EQ(pages.num_edges(), 2);  // diagonal page pairs only
  EXPECT_TRUE(HasEdge(pages, 0, 0));
  EXPECT_TRUE(HasEdge(pages, 1, 1));
}

TEST(PageScheduleTest, FetchCountVerifiedAndBounded) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    EquijoinWorkloadOptions options;
    options.num_keys = 30;
    options.seed = seed;
    const Realization<int64_t> w = GenerateEquijoinWorkload(options);
    const BipartiteGraph tuples = BuildEquiJoinGraph(w.left, w.right);
    const PageLayout left = RandomLayout(tuples.left_size(), 4, seed);
    const PageLayout right = RandomLayout(tuples.right_size(), 4, seed + 1);
    const LocalSearchPebbler pebbler;
    const PageSchedule schedule =
        SchedulePageFetches(tuples, left, right, pebbler);
    EXPECT_TRUE(
        VerifyScheme(schedule.page_graph.ToGraph(), schedule.solution.scheme)
            .valid);
    EXPECT_GE(schedule.page_fetches, schedule.lower_bound);
    // Trivial upper bound: 2 fetches per page-pair (Lemma 2.1).
    EXPECT_LE(schedule.page_fetches, 2 * schedule.page_graph.num_edges());
  }
}

TEST(PageScheduleTest, SortedEquijoinLayoutIsNearOptimal) {
  // A sorted (clustered) layout of an equijoin keeps each key's block on
  // few page pairs; the page graph stays close to the equijoin shape and
  // the schedule close to its lower bound. The classic sort-merge story.
  EquijoinWorkloadOptions options;
  options.num_keys = 64;
  options.min_left_dup = options.max_left_dup = 2;
  options.min_right_dup = options.max_right_dup = 2;
  options.seed = 5;
  const Realization<int64_t> w = GenerateEquijoinWorkload(options);
  const BipartiteGraph tuples = BuildEquiJoinGraph(w.left, w.right);
  // Tuples are generated key-ordered, so sequential layout is clustered.
  const PageLayout left = SequentialLayout(tuples.left_size(), 2);
  const PageLayout right = SequentialLayout(tuples.right_size(), 2);
  const LocalSearchPebbler pebbler;
  const PageSchedule sorted =
      SchedulePageFetches(tuples, left, right, pebbler);

  const PageLayout left_r = RandomLayout(tuples.left_size(), 2, 99);
  const PageLayout right_r = RandomLayout(tuples.right_size(), 2, 98);
  const PageSchedule random =
      SchedulePageFetches(tuples, left_r, right_r, pebbler);

  // The clustered layout yields a smaller page join graph and fewer
  // fetches.
  EXPECT_LT(sorted.page_graph.num_edges(), random.page_graph.num_edges());
  EXPECT_LT(sorted.page_fetches, random.page_fetches);
}

TEST(PageScheduleTest, PageGraphOfWorstCaseFamilyStaysHard) {
  // With page capacity 1 the page graph IS the tuple graph: the paging
  // model strictly generalizes the tuple model.
  const BipartiteGraph g = WorstCaseFamily(6);
  const PageLayout left = SequentialLayout(g.left_size(), 1);
  const PageLayout right = SequentialLayout(g.right_size(), 1);
  const BipartiteGraph pages = BuildPageJoinGraph(g, left, right);
  EXPECT_TRUE(pages.SameEdgeSet(g));
}

}  // namespace
}  // namespace pebblejoin
