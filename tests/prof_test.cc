// Hardware-counter layer (obs/prof.h), the scoped Probe (obs/probe.h) and
// folded-stack aggregation (obs/sampler.h). Everything here runs on hosts with no PMU access at
// all: real syscalls are exercised only through the graceful-degradation
// seams (fake readers, ForceUnavailableForTest), which is precisely the
// contract CI containers rely on.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/analyzer.h"
#include "graph/generators.h"
#include "obs/json.h"
#include "obs/probe.h"
#include "obs/prof.h"
#include "obs/sampler.h"
#include "obs/solve_stats.h"
#include "util/budget.h"

namespace pebblejoin {
namespace {

// Re-enables real counter opens when a test that forced unavailability
// exits (including via an assertion failure).
struct ForceGuard {
  explicit ForceGuard(const std::string& reason) {
    PerfCounterGroup::ForceUnavailableForTest(reason);
  }
  ~ForceGuard() { PerfCounterGroup::ForceUnavailableForTest(""); }
};

// --- multiplexing scaling --------------------------------------------------

TEST(ScaleValueTest, FullyScheduledCounterIsUnscaled) {
  EXPECT_EQ(PerfCounterGroup::ScaleValue(1000, 500, 500), 1000);
  // running > enabled never happens in practice; treat as unscaled.
  EXPECT_EQ(PerfCounterGroup::ScaleValue(1000, 500, 600), 1000);
}

TEST(ScaleValueTest, NeverScheduledCounterYieldsZero) {
  EXPECT_EQ(PerfCounterGroup::ScaleValue(1000, 500, 0), 0);
}

TEST(ScaleValueTest, HalfScheduledCounterDoubles) {
  EXPECT_EQ(PerfCounterGroup::ScaleValue(1000, 1000, 500), 2000);
  EXPECT_EQ(PerfCounterGroup::ScaleValue(300, 900, 300), 900);
}

// --- fake-reader groups and probe nesting ----------------------------------

TEST(PerfCounterGroupTest, FakeReaderGroupIsAvailable) {
  PerfCounterGroup group([] { return PerfCounts(); });
  EXPECT_TRUE(group.available());
  EXPECT_TRUE(group.unavailable_reason().empty());
}

TEST(PerfCounterGroupTest, ProbeAttributesDeltaToSink) {
  // The fake clock ticks 100 cycles / 10 misses per Read().
  PerfCounts now;
  PerfCounterGroup group([&now] {
    now.cycles += 100;
    now.cache_misses += 10;
    return now;
  });
  PerfCounts sink;
  {
    Probe probe = Probe::Counters(&group, &sink);
    // Construction read once; stopping reads once more: delta 100/10.
  }
  EXPECT_EQ(sink.cycles, 100);
  EXPECT_EQ(sink.cache_misses, 10);

  // A timed probe reports the same delta on its sample.
  const ProbeSample sample = Probe::Timed("stage", "test", nullptr, &group).Stop();
  EXPECT_EQ(sample.perf.cycles, 100);
  EXPECT_EQ(sample.perf.cache_misses, 10);
  EXPECT_GE(sample.wall_us, 0);
}

TEST(PerfCounterGroupTest, NestedProbesEachSeeTheirOwnSpan) {
  PerfCounts now;
  PerfCounterGroup group([&now] {
    now.cycles += 1;
    return now;
  });
  PerfCounts outer, inner;
  {
    Probe outer_probe = Probe::Counters(&group, &outer);  // read #1
    {
      Probe inner_probe = Probe::Counters(&group, &inner);  // read #2
    }  // read #3: inner delta = 1
  }  // read #4: outer delta = 3 (includes the inner probe's reads)
  EXPECT_EQ(inner.cycles, 1);
  EXPECT_EQ(outer.cycles, 3);
  // An outer probe's span contains its inner probes' by construction.
  EXPECT_GE(outer.cycles, inner.cycles);
}

TEST(PerfCounterGroupTest, NullGroupAndNullSinkAreNoOps) {
  PerfCounts sink;
  { Probe probe = Probe::Counters(nullptr, &sink); }
  EXPECT_EQ(sink.cycles, 0);
  int reads = 0;
  PerfCounterGroup group([&reads] {
    ++reads;
    PerfCounts c;
    c.cycles = 42;
    return c;
  });
  { Probe probe = Probe::Counters(&group, nullptr); }  // must not crash
  EXPECT_EQ(reads, 0);  // a sinkless counters probe never reads the group
  // A timed probe without a group counts nothing.
  EXPECT_EQ(Probe::Timed("stage", "test").Stop().perf.cycles, 0);
}

TEST(PerfCounterGroupTest, HotLoopProbeFlushesTwoFields) {
  PerfCounts now;
  PerfCounterGroup group([&now] {
    now.cycles += 7;
    now.cache_misses += 3;
    now.instructions += 1000;  // counted, but not rendered for hot loops
    return now;
  });
  SolveStats stats;
  // An early return from the loop still flushes: the probe stops on scope
  // exit.
  const auto hot_loop = [&group, &stats](bool early) {
    Probe probe = Probe::Counters(&group, &stats.bnb_perf);
    if (early) return;
  };
  hot_loop(/*early=*/true);
  EXPECT_EQ(stats.bnb_perf.cycles, 7);
  EXPECT_EQ(stats.bnb_perf.cache_misses, 3);
  hot_loop(/*early=*/false);
  stats.perf = "ok";
  JsonWriter json;
  stats.WriteJson(&json);
  EXPECT_NE(json.str().find("\"bnb_cycles\":14,\"bnb_cache_misses\":6,"),
            std::string::npos)
      << json.str();
}

TEST(PerfCounterGroupTest, HotLoopCountersNeedPerfAndAStatsSink) {
  // Without perf, or without a stats sink, the budget hands out no group
  // and the hot-loop probe is a no-op.
  SolveStats stats;
  BudgetContext no_perf{SolveBudget{}};
  no_perf.set_stats(&stats);
  EXPECT_EQ(no_perf.perf_group(), nullptr);
  BudgetContext no_stats{SolveBudget{}};
  no_stats.set_perf_enabled(true);
  EXPECT_EQ(no_stats.perf_group(), nullptr);
  { Probe probe = HotLoopCounters(&no_perf, &SolveStats::hk_perf); }
  { Probe probe = HotLoopCounters(nullptr, &SolveStats::hk_perf); }
  EXPECT_EQ(stats.hk_perf.cycles, 0);
  // With both, it is the calling thread's group.
  BudgetContext both{SolveBudget{}};
  both.set_stats(&stats);
  both.set_perf_enabled(true);
  EXPECT_EQ(both.perf_group(), PerfCounterGroup::ThisThread());
}

// --- wall clock --------------------------------------------------------------

TEST(ProbeTest, WallClockIsMeasuredOnceAtStop) {
  Probe probe = Probe::Timed("work", "test");
  volatile int busy = 0;
  for (int i = 0; i < 10000; ++i) busy = i;
  (void)busy;
  const int64_t first = probe.Stop().wall_us;
  EXPECT_GE(first, 0);
  for (int i = 0; i < 100000; ++i) busy = i;
  EXPECT_EQ(probe.Stop().wall_us, first);  // later calls change nothing
}

TEST(ProbeTest, UntracedUncountedProbeHasNoSideEffects) {
  // No session, no group: Stop() only yields the wall clock, and an
  // untimed probe not even that.
  const ProbeSample timed = Probe::Timed("work", "test").Stop();
  EXPECT_GE(timed.wall_us, 0);
  EXPECT_EQ(timed.perf.cycles, 0);
  EXPECT_EQ(Probe::Span("work", "test", nullptr).Stop().wall_us, 0);
}

// --- the denied-container fallback path ------------------------------------

TEST(PerfCounterGroupTest, ForcedUnavailableGroupReportsReasonAndZeros) {
  ForceGuard guard("forced-by-test");
  PerfCounterGroup group;
  EXPECT_FALSE(group.available());
  EXPECT_EQ(group.unavailable_reason(), "forced-by-test");
  const PerfCounts counts = group.Read();
  EXPECT_EQ(counts.cycles, 0);
  EXPECT_EQ(counts.instructions, 0);
  PerfCounts sink;
  { Probe probe = Probe::Counters(&group, &sink); }  // no-op, not a crash
  EXPECT_EQ(sink.cycles, 0);
}

TEST(PerfCounterGroupTest, SolveDegradesToUnavailableStatusNotFailure) {
  // End to end: a perf-enabled solve on a host that denies
  // perf_event_open must complete normally and record why the counters
  // are zero. The analyzer runs in a fresh thread so its thread-local
  // group is opened under the force (groups opened by earlier tests are
  // deliberately unaffected).
  ForceGuard guard("forced-by-test");
  JoinAnalysis analysis;
  std::thread worker([&analysis] {
    AnalyzerOptions options;
    options.perf = true;
    const JoinAnalyzer analyzer(options);
    analysis = analyzer.AnalyzeJoinGraph(WorstCaseFamily(6),
                                         PredicateClass::kGeneral);
  });
  worker.join();
  EXPECT_EQ(analysis.stats.perf, "unavailable:forced-by-test");
  EXPECT_EQ(analysis.stats.perf_total().cycles, 0);
  EXPECT_EQ(analysis.stats.stage(PipelineStage::kSolve).perf.cycles, 0);
  // The solve itself is untouched by the degradation.
  EXPECT_FALSE(analysis.solution.edge_order.empty());
}

TEST(PerfCounterGroupTest, PerfOffRequestsKeepTheOffStatus) {
  const JoinAnalyzer analyzer;  // default options: perf off
  const JoinAnalysis analysis =
      analyzer.AnalyzeJoinGraph(WorstCaseFamily(6), PredicateClass::kGeneral);
  EXPECT_EQ(analysis.stats.perf, "off");
  EXPECT_EQ(analysis.stats.perf_total().cycles, 0);
}

// --- folded-stack aggregation goldens --------------------------------------

TEST(StackAggregatorTest, FoldsRootFirstFramesWithCounts) {
  StackAggregator agg;
  agg.AddSample({"main", "Solve", "BranchAndBound"});
  agg.AddSample({"main", "Solve", "BranchAndBound"});
  agg.AddSample({"main", "Solve", "HeldKarp"});
  EXPECT_EQ(agg.total_samples(), 3);
  EXPECT_EQ(agg.Folded(),
            "main;Solve;BranchAndBound 2\n"
            "main;Solve;HeldKarp 1\n");
}

TEST(StackAggregatorTest, OutputIsSortedRegardlessOfArrivalOrder) {
  StackAggregator a, b;
  a.AddSample({"z"});
  a.AddSample({"a"});
  b.AddSample({"a"});
  b.AddSample({"z"});
  EXPECT_EQ(a.Folded(), b.Folded());
  EXPECT_EQ(a.Folded(), "a 1\nz 1\n");
}

TEST(StackAggregatorTest, SanitizesFormatSeparatorsInFrames) {
  StackAggregator agg;
  agg.AddSample({"operator ()", "a;b"});
  // ' ' and ';' are the format's two separators; both become '_'.
  EXPECT_EQ(agg.Folded(), "operator_();a_b 1\n");
}

TEST(StackAggregatorTest, EmptyFramesFoldToPlaceholder) {
  StackAggregator agg;
  agg.AddSample({});
  agg.AddSample({""});
  EXPECT_EQ(agg.Folded(), "? 2\n");
}

TEST(StackAggregatorTest, AddSamplesWeightsAndIgnoresNonPositiveCounts) {
  StackAggregator agg;
  agg.AddSamples({"hot"}, 40);
  agg.AddSamples({"hot"}, 2);
  agg.AddSamples({"cold"}, 0);
  agg.AddSamples({"cold"}, -5);
  EXPECT_EQ(agg.total_samples(), 42);
  EXPECT_EQ(agg.Folded(), "hot 42\n");
}

// --- profiler lifecycle (no timer assertions: CI schedulers jitter) --------

TEST(SamplingProfilerTest, StopWithoutStartIsSafe) {
  SamplingProfiler profiler;
  profiler.Stop();
  EXPECT_EQ(profiler.sample_count(), 0);
  EXPECT_EQ(profiler.Folded(), "");
}

TEST(SamplingProfilerTest, SecondActiveProfilerIsRefused) {
  if (!SamplingProfiler::Supported()) {
    GTEST_SKIP() << "sampling profiler unsupported on this build";
  }
  SamplingProfiler first;
  ASSERT_TRUE(first.Start()) << first.reason();
  SamplingProfiler second;
  EXPECT_FALSE(second.Start());
  EXPECT_FALSE(second.reason().empty());
  first.Stop();
  // With the first retired, the slot frees up.
  SamplingProfiler third;
  EXPECT_TRUE(third.Start()) << third.reason();
  third.Stop();
}

TEST(SamplingProfilerTest, WriteFoldedAlwaysEmitsTheSampleComment) {
  SamplingProfiler profiler;  // never started: zero samples
  const std::string path =
      testing::TempDir() + "/prof_test_folded.txt";
  ASSERT_TRUE(profiler.WriteFolded(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[128] = {0};
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
  std::fclose(f);
  EXPECT_STREQ(line, "# samples 0 dropped 0\n");
}

}  // namespace
}  // namespace pebblejoin
