// SolveEngine: the long-lived-session contract. One engine serving many
// requests — sequential and concurrent — must produce exactly what a fresh
// engine per request produces (no state bleeding between requests), honor
// per-request overrides of the engine defaults, fill the staged pipeline
// timings, and publish metrics only into its own (or an injected)
// registry, never the process-global default.

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/report.h"
#include "engine/solve_engine.h"
#include "graph/bipartite_graph.h"
#include "graph/generators.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

#include "json_test_util.h"

namespace pebblejoin {
namespace {

std::vector<BipartiteGraph> TestWorkload() {
  std::vector<BipartiteGraph> graphs;
  graphs.push_back(WorstCaseFamily(5));
  graphs.push_back(CompleteBipartite(3, 4));
  graphs.push_back(RandomConnectedBipartite(6, 6, 14, /*seed=*/3));
  graphs.push_back(DisjointUnion(StarGraph(5), EvenCycle(4)));
  graphs.push_back(RandomBipartiteWithEdges(5, 7, 11, /*seed=*/9));
  return graphs;
}

std::string SolveToJson(SolveEngine* engine, const BipartiteGraph& g,
                        PredicateClass predicate = PredicateClass::kGeneral) {
  SolveRequest request;
  request.graph = &g;
  request.predicate = predicate;
  return NormalizeTimings(AnalysisJson(engine->Solve(request).analysis));
}

TEST(SolveEngineTest, SequentialReuseMatchesFreshInstances) {
  // One engine across many requests == a fresh engine per request, byte
  // for byte (wall clocks normalized). This is the no-state-bleed
  // contract: nothing a request leaves behind may change the next result.
  const std::vector<BipartiteGraph> graphs = TestWorkload();
  SolveEngine shared;
  for (int round = 0; round < 2; ++round) {
    for (const BipartiteGraph& g : graphs) {
      SolveEngine fresh;
      EXPECT_EQ(SolveToJson(&shared, g), SolveToJson(&fresh, g))
          << "round " << round;
    }
  }
}

TEST(SolveEngineTest, StatsNeverBleedAcrossRequests) {
  // Per-request counters restart from zero: request N's stats are a
  // function of request N alone, not of the session history.
  SolveEngine engine;
  const BipartiteGraph g = RandomConnectedBipartite(6, 6, 14, /*seed=*/3);
  SolveRequest request;
  request.graph = &g;
  const SolveStats first = engine.Solve(request).analysis.stats;
  const SolveStats second = engine.Solve(request).analysis.stats;
  EXPECT_EQ(first.ls_passes, second.ls_passes);
  EXPECT_EQ(first.rungs_attempted, second.rungs_attempted);
  EXPECT_EQ(first.budget_polls, second.budget_polls);
}

TEST(SolveEngineTest, ConcurrentRequestsMatchFreshInstances) {
  // Many threads hammering one engine: each result must equal its
  // fresh-engine baseline. Runs under tsan in CI.
  const std::vector<BipartiteGraph> graphs = TestWorkload();
  std::vector<std::string> baselines;
  for (const BipartiteGraph& g : graphs) {
    SolveEngine fresh;
    baselines.push_back(SolveToJson(&fresh, g));
  }

  SolveEngine shared;
  constexpr int kRounds = 3;
  std::vector<std::string> results(graphs.size() * kRounds);
  std::vector<std::thread> threads;
  threads.reserve(results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    threads.emplace_back([&, i] {
      results[i] = SolveToJson(&shared, graphs[i % graphs.size()]);
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], baselines[i % graphs.size()]) << "request " << i;
  }
}

TEST(SolveEngineTest, PerRequestOverridesDoNotStick) {
  // A request that overrides the solver/budget gets the override; the next
  // request without one gets the engine default back.
  const BipartiteGraph g = WorstCaseFamily(6);
  SolveEngine engine;

  SolveRequest plain;
  plain.graph = &g;
  const std::string default_json =
      NormalizeTimings(AnalysisJson(engine.Solve(plain).analysis));

  SolveRequest greedy;
  greedy.graph = &g;
  greedy.solver = SolverChoice::kGreedyWalk;
  const JoinAnalysis greedy_run = engine.Solve(greedy).analysis;
  ASSERT_EQ(greedy_run.solution.outcomes.size(), 1u);
  EXPECT_EQ(greedy_run.solution.outcomes[0].winner, "greedy-walk");

  SolveRequest budgeted;
  budgeted.graph = &g;
  budgeted.solver = SolverChoice::kFallback;
  SolveBudget budget;
  budget.deadline_ms = 0;
  budgeted.budget = budget;
  const JoinAnalysis degraded = engine.Solve(budgeted).analysis;
  EXPECT_GE(degraded.stats.budget_time_to_stop_ms, 0);

  // The overrides were per-request: the plain request still resolves to
  // the engine default, byte for byte.
  EXPECT_EQ(NormalizeTimings(AnalysisJson(engine.Solve(plain).analysis)),
            default_json);
}

TEST(SolveEngineTest, StagedPipelineFillsStageTimings) {
  SolveRequest request;
  const BipartiteGraph g = WorstCaseFamily(20);
  request.graph = &g;
  request.solver = SolverChoice::kIls;
  SolveEngine engine;
  const SolveStats stats = engine.Solve(request).analysis.stats;
  // Individual stages can round to zero microseconds, but a 38-edge ILS
  // solve cannot: the pipeline as a whole must have measured real time.
  int64_t pipeline_us = 0;
  for (const ProbeSample& stage : stats.stages) pipeline_us += stage.wall_us;
  EXPECT_GT(pipeline_us, 0);
  EXPECT_GE(stats.stage(PipelineStage::kSolve).wall_us, 0);
  // solve_wall_us is the solve and verify stages together.
  EXPECT_EQ(stats.solve_wall_us,
            stats.stage(PipelineStage::kSolve).wall_us +
                stats.stage(PipelineStage::kVerify).wall_us);
}

// The journal text of one solve of `g` under a slow-request threshold.
std::string SlowCheckJournal(int64_t slow_request_ms, const BipartiteGraph& g) {
  std::ostringstream sink;
  Journal journal;
  journal.AttachStream(&sink);
  SolveEngine::Options options;
  options.defaults.journal = &journal;
  options.defaults.slow_request_ms = slow_request_ms;
  SolveEngine engine(options);
  SolveRequest request;
  request.graph = &g;
  engine.Solve(request);
  return sink.str();
}

TEST(SolveEngineTest, HugeSlowRequestThresholdNeverFires) {
  const BipartiteGraph g = WorstCaseFamily(8);
  // Every request reaches a zero threshold...
  EXPECT_NE(SlowCheckJournal(0, g).find("\"request.slow\""),
            std::string::npos);
  // ...and none reaches the largest one the flag accepts, which must not
  // overflow when compared against the microsecond wall clock.
  const std::string journal =
      SlowCheckJournal(std::numeric_limits<int64_t>::max(), g);
  EXPECT_EQ(journal.find("\"request.slow\""), std::string::npos) << journal;
  EXPECT_NE(journal.find("\"solve.end\""), std::string::npos) << journal;
}

TEST(SolveEngineTest, PoolIsCreatedLazilyAndReused) {
  SolveEngine engine;
  EXPECT_EQ(engine.pool(), nullptr);  // no parallel request yet
  const BipartiteGraph g = DisjointUnion(StarGraph(4), EvenCycle(4));
  SolveRequest request;
  request.graph = &g;
  request.threads = 4;
  engine.Solve(request);
  ThreadPool* pool = engine.pool();
  ASSERT_NE(pool, nullptr);
  // Later requests (even wider ones) reuse the same pool object.
  request.threads = 8;
  engine.Solve(request);
  EXPECT_EQ(engine.pool(), pool);
  EXPECT_EQ(engine.EnsurePool(16), pool);
}

TEST(SolveEngineTest, PublishesIntoOwnRegistryNotTheGlobalDefault) {
  const std::string before = MetricsRegistry::Default()->OpenMetricsText();
  SolveEngine engine;
  const BipartiteGraph g = WorstCaseFamily(5);
  SolveRequest request;
  request.graph = &g;
  engine.Solve(request);
  // The engine's own session registry aggregated the request...
  EXPECT_GT(engine.metrics()->FindOrCreateCounter("solve.rungs_attempted")
                .Get(),
            0);
  // ...and the process-global default saw nothing.
  EXPECT_EQ(MetricsRegistry::Default()->OpenMetricsText(), before);
}

TEST(SolveEngineTest, InjectedRegistryReceivesThePublish) {
  MetricsRegistry injected(/*enabled=*/true);
  SolveEngine::Options options;
  options.defaults.metrics = &injected;
  SolveEngine engine(options);
  const BipartiteGraph g = WorstCaseFamily(5);
  SolveRequest request;
  request.graph = &g;
  engine.Solve(request);
  engine.Solve(request);
  EXPECT_EQ(engine.metrics(), &injected);
  // Two requests folded in: the session counter aggregates across them.
  EXPECT_EQ(injected.FindOrCreateCounter("solve.rungs_attempted").Get(), 2);
}

TEST(SolveEngineTest, FacadeMatchesDirectEngineUse) {
  // JoinAnalyzer is a shell over the engine: same inputs, same bytes.
  const BipartiteGraph g = RandomConnectedBipartite(5, 5, 12, /*seed=*/21);
  const JoinAnalyzer analyzer;
  const std::string via_facade = NormalizeTimings(
      AnalysisJson(analyzer.AnalyzeJoinGraph(g, PredicateClass::kGeneral)));
  SolveEngine engine;
  EXPECT_EQ(SolveToJson(&engine, g), via_facade);
}

}  // namespace
}  // namespace pebblejoin
