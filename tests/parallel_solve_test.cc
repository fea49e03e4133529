// Parallel per-component solving: the determinism contract (byte-identical
// output for every thread count), cancellation propagation across worker
// slices, deterministic stats merging, and worker-tagged traces. Runs under
// ThreadSanitizer in CI (ctest -L tsan).

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/analyzer.h"
#include "core/report.h"
#include "graph/bipartite_graph.h"
#include "graph/generators.h"
#include "obs/trace.h"
#include "pebble/scheme_verifier.h"
#include "solver/component_pebbler.h"
#include "solver/greedy_walk_pebbler.h"
#include "solver/ils_pebbler.h"
#include "util/budget.h"
#include "util/thread_pool.h"

#include "json_test_util.h"

namespace pebblejoin {
namespace {

// A join graph with many heterogeneous components: random connected blobs,
// an equijoin block, a star, a cycle, and a worst-case family member.
BipartiteGraph ManyComponentGraph() {
  BipartiteGraph g = RandomConnectedBipartite(4, 4, 10, /*seed=*/11);
  g = DisjointUnion(g, CompleteBipartite(3, 3));
  g = DisjointUnion(g, RandomConnectedBipartite(5, 3, 9, /*seed=*/12));
  g = DisjointUnion(g, StarGraph(6));
  g = DisjointUnion(g, WorstCaseFamily(3));
  g = DisjointUnion(g, EvenCycle(4));
  g = DisjointUnion(g, RandomConnectedBipartite(3, 5, 8, /*seed=*/13));
  g = DisjointUnion(g, PathGraph(7));
  return g;
}

// 1,024 small components, as in the library-components benchmark: enough
// that the fan-out cuts them into several components per pool task.
BipartiteGraph ThousandComponentGraph() {
  constexpr int kComponents = 1024;
  constexpr int kSide = 4;
  BipartiteGraph g(kComponents * kSide, kComponents * kSide);
  for (int c = 0; c < kComponents; ++c) {
    const BipartiteGraph part =
        RandomConnectedBipartite(kSide, kSide, 7 + c % 6, /*seed=*/c);
    for (const BipartiteGraph::Edge& e : part.edges()) {
      g.AddEdge(c * kSide + e.left, c * kSide + e.right);
    }
  }
  return g;
}

// The solver that answered each component, in component-index order.
std::vector<std::string> Winners(const PebbleSolution& solution) {
  std::vector<std::string> winners;
  for (const SolveOutcome& outcome : solution.outcomes) {
    winners.push_back(outcome.winner);
  }
  return winners;
}

JoinAnalysis AnalyzeWithThreads(const BipartiteGraph& g, int threads) {
  AnalyzerOptions options;
  options.solver = SolverChoice::kIls;
  options.threads = threads;
  const JoinAnalyzer analyzer(options);
  return analyzer.AnalyzeJoinGraph(g, PredicateClass::kGeneral);
}

TEST(ParallelDeterminismTest, IdenticalOutputAcrossThreadCounts) {
  const BipartiteGraph g = ManyComponentGraph();
  const JoinAnalysis base = AnalyzeWithThreads(g, 1);
  ASSERT_GE(base.solution.num_components, 8);
  const std::string base_json = NormalizeTimings(AnalysisJson(base));
  const std::string base_text = FormatAnalysis(base);

  for (int threads : {2, 8}) {
    const JoinAnalysis run = AnalyzeWithThreads(g, threads);
    // The scheme itself: same edge order, bit for bit.
    EXPECT_EQ(run.solution.edge_order, base.solution.edge_order)
        << "threads=" << threads;
    EXPECT_EQ(run.solution.hat_cost, base.solution.hat_cost);
    EXPECT_EQ(run.solution.effective_cost, base.solution.effective_cost);
    EXPECT_EQ(run.solution.jumps, base.solution.jumps);
    EXPECT_EQ(Winners(run.solution), Winners(base.solution));
    // Rendered surfaces: the human report and the JSON (timings zeroed)
    // must be byte-identical.
    EXPECT_EQ(FormatAnalysis(run), base_text) << "threads=" << threads;
    EXPECT_EQ(NormalizeTimings(AnalysisJson(run)), base_json)
        << "threads=" << threads;
  }
}

TEST(ParallelDeterminismTest, ThousandComponentsIdenticalAcrossThreadCounts) {
  // The default (auto) solver over many light components, which the
  // fan-out packs several to a task: the JSON and the raw poll count, which
  // NormalizeTimings zeroes, are the same at every thread count.
  const BipartiteGraph g = ThousandComponentGraph();
  AnalyzerOptions options;
  options.threads = 1;
  const JoinAnalysis base =
      JoinAnalyzer(options).AnalyzeJoinGraph(g, PredicateClass::kGeneral);
  ASSERT_EQ(base.solution.num_components, 1024);
  ASSERT_GT(base.stats.budget_polls, 0);
  const std::string base_json = NormalizeTimings(AnalysisJson(base));
  for (int threads : {4, 8}) {
    options.threads = threads;
    const JoinAnalysis run =
        JoinAnalyzer(options).AnalyzeJoinGraph(g, PredicateClass::kGeneral);
    EXPECT_EQ(NormalizeTimings(AnalysisJson(run)), base_json)
        << "threads=" << threads;
    EXPECT_EQ(run.stats.budget_polls, base.stats.budget_polls)
        << "threads=" << threads;
  }
}

TEST(ParallelDeterminismTest, FallbackLadderIdenticalAcrossThreadCounts) {
  // Same contract with the full degradation ladder as the per-component
  // primary (exact wins on the small components, heuristics on the rest).
  const BipartiteGraph g = ManyComponentGraph();
  AnalyzerOptions options;
  options.solver = SolverChoice::kFallback;
  options.threads = 1;
  const JoinAnalysis base =
      JoinAnalyzer(options).AnalyzeJoinGraph(g, PredicateClass::kGeneral);
  options.threads = 8;
  const JoinAnalysis wide =
      JoinAnalyzer(options).AnalyzeJoinGraph(g, PredicateClass::kGeneral);
  EXPECT_EQ(wide.solution.edge_order, base.solution.edge_order);
  EXPECT_EQ(Winners(wide.solution), Winners(base.solution));
  EXPECT_EQ(NormalizeTimings(AnalysisJson(wide)),
            NormalizeTimings(AnalysisJson(base)));
}

TEST(ParallelDeterminismTest, StatsMergeIdenticalAcrossThreadCounts) {
  // The merged per-component counters, not just the scheme: sequential and
  // parallel runs must aggregate the same SolveStats (satellite of the
  // determinism contract — one shared merge path).
  const Graph flat = ManyComponentGraph().ToGraph();
  const IlsPebbler ils;
  const GreedyWalkPebbler greedy;

  ThreadPool pool(4);
  SolveStats stats[2];
  for (int i = 0; i < 2; ++i) {
    ComponentPebbler::Options options;
    if (i == 1) {
      options.threads = 4;
      options.pool = &pool;
    }
    const ComponentPebbler driver(&ils, &greedy, options);
    BudgetContext ctx{SolveBudget{}};
    ctx.set_stats(&stats[i]);
    (void)driver.Solve(flat, &ctx);
  }
  EXPECT_EQ(stats[0].ls_passes, stats[1].ls_passes);
  EXPECT_EQ(stats[0].ls_moves_accepted, stats[1].ls_moves_accepted);
  EXPECT_EQ(stats[0].ils_iterations, stats[1].ils_iterations);
  EXPECT_EQ(stats[0].ils_kicks_accepted, stats[1].ils_kicks_accepted);
  EXPECT_EQ(stats[0].rungs_attempted, stats[1].rungs_attempted);
  EXPECT_EQ(stats[0].rungs_declined, stats[1].rungs_declined);
  EXPECT_EQ(stats[0].bnb_nodes_expanded, stats[1].bnb_nodes_expanded);
  EXPECT_EQ(stats[0].hk_solves, stats[1].hk_solves);
}

TEST(ParallelBudgetTest, ForcedExpiryMidFanOutStaysCoherent) {
  // Fault injection across the fan-out: the parent's forced-expiry point
  // lives on the ledger every slice shares, so whichever worker polls next
  // latches the deadline and every sibling slice adopts it. The request must still end
  // with a verified scheme, full provenance, and fully merged stats.
  const Graph flat = ManyComponentGraph().ToGraph();
  const IlsPebbler ils;
  const GreedyWalkPebbler greedy;
  ThreadPool pool(4);
  ComponentPebbler::Options options;
  options.threads = 4;
  options.pool = &pool;
  const ComponentPebbler driver(&ils, &greedy, options);

  FakeClock clock;
  SolveBudget budget;
  budget.deadline_ms = 1'000'000;  // present but never reached by the clock
  BudgetContext ctx(budget, &clock);
  SolveStats stats;
  ctx.set_stats(&stats);
  ctx.ForceExpireAfterPolls(64);

  const PebbleSolution solution = driver.Solve(flat, &ctx);

  // No lost cancellation: the forced expiry latched on the shared ledger,
  // with the deadline reason, and the parent reads it straight off.
  EXPECT_TRUE(ctx.stopped());
  EXPECT_EQ(ctx.stop_reason(), BudgetStop::kDeadlineExpired);
  EXPECT_GE(ctx.polls(), 64);

  // Coherent output: a valid scheme covering every edge, one provenance
  // entry per component, and each component answered by the primary or the
  // unbudgeted fallback — never nothing.
  const VerificationResult verdict = VerifyEdgeOrder(flat, solution.edge_order);
  ASSERT_TRUE(verdict.valid) << verdict.error;
  EXPECT_EQ(verdict.effective_cost, solution.effective_cost);
  ASSERT_EQ(static_cast<int>(solution.outcomes.size()),
            solution.num_components);
  int64_t attempts = 0;
  for (int c = 0; c < solution.num_components; ++c) {
    EXPECT_FALSE(solution.outcomes[c].attempts.empty()) << "component " << c;
    EXPECT_GE(solution.outcomes[c].effective_cost,
              solution.outcomes[c].lower_bound);
    const std::string& winner = solution.outcomes[c].winner;
    EXPECT_TRUE(winner == "ils" || winner == "greedy-walk") << winner;
    attempts += static_cast<int64_t>(solution.outcomes[c].attempts.size());
  }
  // No partially merged stats: the ladder counter equals the attempts the
  // outcomes report, so every per-component sink was folded exactly once.
  EXPECT_EQ(stats.rungs_attempted, attempts);
}

TEST(ParallelBudgetTest, AlreadyExpiredDeadlineCancelsEveryWorker) {
  // A deadline of zero: every slice latches on its first poll, every
  // component falls through to the unbudgeted fallback, and the scheme is
  // still valid — budgets shape quality, never success.
  const Graph flat = ManyComponentGraph().ToGraph();
  const IlsPebbler ils;
  const GreedyWalkPebbler greedy;
  ThreadPool pool(8);
  ComponentPebbler::Options options;
  options.threads = 8;
  options.pool = &pool;
  const ComponentPebbler driver(&ils, &greedy, options);

  FakeClock clock;
  SolveBudget budget;
  budget.deadline_ms = 0;
  BudgetContext ctx(budget, &clock);

  const PebbleSolution solution = driver.Solve(flat, &ctx);
  EXPECT_TRUE(ctx.stopped());
  EXPECT_EQ(ctx.stop_reason(), BudgetStop::kDeadlineExpired);
  EXPECT_TRUE(VerifyEdgeOrder(flat, solution.edge_order).valid);
  for (const SolveOutcome& outcome : solution.outcomes) {
    EXPECT_EQ(outcome.winner, "greedy-walk");
  }
}

TEST(ParallelTraceTest, WorkerTagsOnComponentSpans) {
  const BipartiteGraph g = ManyComponentGraph();
  AnalyzerOptions options;
  options.solver = SolverChoice::kIls;
  options.threads = 4;
  TraceSession trace;
  options.trace = &trace;
  const JoinAnalyzer analyzer(options);
  (void)analyzer.AnalyzeJoinGraph(g, PredicateClass::kGeneral);

  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"component\""), std::string::npos);
  // Every merged worker event carries the worker tag; under threads=4 at
  // least the component spans have it.
  EXPECT_NE(json.find("\"worker\""), std::string::npos);
}

}  // namespace
}  // namespace pebblejoin
