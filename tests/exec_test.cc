#include "exec/join_executors.h"

#include <algorithm>

#include "graph/generators.h"
#include "gtest/gtest.h"
#include "join/join_graph_builder.h"
#include "join/workload.h"
#include "pebble/scheme_verifier.h"

#include "graph_test_util.h"

namespace pebblejoin {
namespace {

// All executors must emit each joining pair exactly once.
void ExpectCompleteResults(const KeyRelation& left, const KeyRelation& right,
                           const ExecutionTrace& trace) {
  const BipartiteGraph expected = BuildEquiJoinGraph(left, right);
  ASSERT_EQ(static_cast<int>(trace.results.size()), expected.num_edges());
  std::vector<std::pair<int, int>> sorted = trace.results;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
  for (const auto& [i, j] : sorted) {
    EXPECT_TRUE(HasEdge(expected, i, j)) << i << "," << j;
  }
}

// The trace must be a valid pebbling scheme of the join graph.
VerificationResult VerifyTrace(const KeyRelation& left,
                               const KeyRelation& right,
                               const ExecutionTrace& trace) {
  const Graph g = BuildEquiJoinGraph(left, right).ToGraph();
  return VerifyScheme(g, trace.scheme);
}

KeyRelation SampleLeft() { return KeyRelation("R", {3, 1, 2, 1, 5, 2}); }
KeyRelation SampleRight() { return KeyRelation("S", {2, 1, 1, 4, 2, 1}); }

TEST(SortMergeExecutorTest, EmitsAllResults) {
  const ExecutionTrace trace =
      SortMergeJoinExecute(SampleLeft(), SampleRight());
  ExpectCompleteResults(SampleLeft(), SampleRight(), trace);
}

TEST(SortMergeExecutorTest, TraceIsAPerfectScheme) {
  // The executable content of Theorems 3.2/4.1: the merge's boustrophedon
  // block order is the Lemma 3.2 perfect schedule.
  const ExecutionTrace trace =
      SortMergeJoinExecute(SampleLeft(), SampleRight());
  const VerificationResult verdict =
      VerifyTrace(SampleLeft(), SampleRight(), trace);
  ASSERT_TRUE(verdict.valid) << verdict.error;
  const Graph g = BuildEquiJoinGraph(SampleLeft(), SampleRight()).ToGraph();
  EXPECT_EQ(verdict.effective_cost, g.num_edges());  // π = m
}

TEST(SortMergeExecutorTest, PerfectOnRandomWorkloads) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    EquijoinWorkloadOptions options;
    options.num_keys = 20;
    options.max_left_dup = 4;
    options.max_right_dup = 4;
    options.seed = seed;
    const Realization<int64_t> w = GenerateEquijoinWorkload(options);
    const ExecutionTrace trace = SortMergeJoinExecute(w.left, w.right);
    const VerificationResult verdict = VerifyTrace(w.left, w.right, trace);
    ASSERT_TRUE(verdict.valid) << verdict.error;
    EXPECT_EQ(verdict.effective_cost,
              static_cast<int64_t>(trace.results.size()))
        << seed;
  }
}

TEST(SortMergeExecutorTest, EmptyJoin) {
  KeyRelation r("R", {1});
  KeyRelation s("S", {2});
  const ExecutionTrace trace = SortMergeJoinExecute(r, s);
  EXPECT_TRUE(trace.results.empty());
  EXPECT_TRUE(trace.scheme.configs.empty());
}

TEST(HashJoinExecutorTest, EmitsAllResultsValidScheme) {
  const ExecutionTrace trace = HashJoinExecute(SampleLeft(), SampleRight());
  ExpectCompleteResults(SampleLeft(), SampleRight(), trace);
  const VerificationResult verdict =
      VerifyTrace(SampleLeft(), SampleRight(), trace);
  ASSERT_TRUE(verdict.valid) << verdict.error;
}

TEST(HashJoinExecutorTest, AtLeastSortMergeCost) {
  // Hash probing is valid but generally not perfect: each probe-row switch
  // can be a jump. Sort-merge's trace is never beaten.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    EquijoinWorkloadOptions options;
    options.num_keys = 15;
    options.max_left_dup = 3;
    options.max_right_dup = 3;
    options.seed = seed;
    const Realization<int64_t> w = GenerateEquijoinWorkload(options);
    const VerificationResult hash =
        VerifyTrace(w.left, w.right, HashJoinExecute(w.left, w.right));
    const VerificationResult merge = VerifyTrace(
        w.left, w.right, SortMergeJoinExecute(w.left, w.right));
    ASSERT_TRUE(hash.valid && merge.valid);
    EXPECT_GE(hash.effective_cost, merge.effective_cost) << seed;
  }
}

TEST(BlockNestedLoopExecutorTest, EmitsAllResultsValidScheme) {
  for (int block_size : {1, 2, 4, 100}) {
    const ExecutionTrace trace =
        BlockNestedLoopExecute(SampleLeft(), SampleRight(), block_size);
    ExpectCompleteResults(SampleLeft(), SampleRight(), trace);
    const VerificationResult verdict =
        VerifyTrace(SampleLeft(), SampleRight(), trace);
    ASSERT_TRUE(verdict.valid) << verdict.error << " b=" << block_size;
  }
}

TEST(BlockNestedLoopExecutorTest, ComparisonCountIsQuadratic) {
  KeyRelation r("R", std::vector<int64_t>(10, 1));
  KeyRelation s("S", std::vector<int64_t>(10, 2));
  const ExecutionTrace trace = BlockNestedLoopExecute(r, s, 2);
  EXPECT_EQ(trace.comparisons, 100);  // full cross product examined
}

TEST(ExecutorComparisonTest, CostOrderingOnSkewedWorkload) {
  // Sort-merge dominates both alternatives in pebbling cost (hash vs BNL
  // is workload-dependent: BNL's block reuse can beat hash's per-probe
  // bucket hops).
  KeyRelation r("R", {1, 1, 1, 1, 2, 2, 3, 3, 3});
  KeyRelation s("S", {1, 1, 2, 2, 2, 3, 3, 9});
  const VerificationResult merge =
      VerifyTrace(r, s, SortMergeJoinExecute(r, s));
  const VerificationResult hash = VerifyTrace(r, s, HashJoinExecute(r, s));
  const VerificationResult bnl =
      VerifyTrace(r, s, BlockNestedLoopExecute(r, s, 3));
  ASSERT_TRUE(merge.valid && hash.valid && bnl.valid);
  EXPECT_LE(merge.effective_cost, hash.effective_cost);
  EXPECT_LE(merge.effective_cost, bnl.effective_cost);
  EXPECT_EQ(merge.effective_cost,
            BuildEquiJoinGraph(r, s).num_edges());  // perfect
}

}  // namespace
}  // namespace pebblejoin
