// E1 — Equijoins are perfect and solved in linear time (Theorems 3.2, 4.1).
//
// Regenerates the quantitative content of Section 3.1: for equijoin
// workloads of growing output size m, the sort-merge pebbler always achieves
// π = m (ratio exactly 1), and its running time grows linearly in m. The
// "us_per_edge" column staying flat is the linear-time claim of Theorem 4.1;
// the classify/partition/solve columns (SolveStats stage wall clocks) show
// which layer would break it.
//
// Each row reports the median and p10/p90 of kRepeats timed samples. A
// sample runs back-to-back analyses until it spans at least kMinSampleUs,
// so the small rows are not timer noise; every column is per analysis.

#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/analyzer.h"
#include "join/workload.h"
#include "obs/bench_report.h"
#include "obs/metrics.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace pebblejoin {
namespace {

// Timed samples per row; the row reports their median and p10/p90.
constexpr int kRepeats = 9;
// Shortest timed sample, in microseconds.
constexpr int64_t kMinSampleUs = 100000;

void RunSweep(BenchReport* report) {
  std::printf(
      "E1: equijoin pebbling (Theorem 3.2: pi = m; Theorem 4.1: linear "
      "time)\n\n");
  TablePrinter table({"keys", "|R|", "|S|", "m", "pi_hat", "pi", "pi/m",
                      "perfect", "time_us", "p10_us", "p90_us",
                      "us_per_edge", "classify_us", "partition_us",
                      "solve_us"});

  const JoinAnalyzer analyzer;
  for (int keys : {1600, 6400, 25600, 102400}) {
    EquijoinWorkloadOptions options;
    options.num_keys = keys;
    options.min_left_dup = 1;
    options.max_left_dup = 3;
    options.min_right_dup = 1;
    options.max_right_dup = 3;
    options.key_match_rate = 0.9;
    options.seed = 1000 + keys;
    const Realization<int64_t> w = GenerateEquijoinWorkload(options);

    // One untimed analysis warms the engine and sizes the samples.
    Stopwatch warmup;
    const JoinAnalysis a = analyzer.AnalyzeEquiJoin(w.left, w.right);
    const int64_t once_us = warmup.ElapsedMicros();
    const int64_t per_sample =
        once_us >= kMinSampleUs ? 1 : kMinSampleUs / (once_us + 1) + 1;

    std::vector<int64_t> time_us, classify_us, partition_us, solve_us;
    for (int r = 0; r < kRepeats; ++r) {
      int64_t classify = 0, partition = 0, solve = 0;
      Stopwatch timer;
      for (int64_t i = 0; i < per_sample; ++i) {
        const SolveStats stats =
            analyzer.AnalyzeEquiJoin(w.left, w.right).stats;
        classify += stats.stage(PipelineStage::kClassify).wall_us;
        partition += stats.stage(PipelineStage::kPartition).wall_us;
        solve += stats.stage(PipelineStage::kSolve).wall_us;
      }
      time_us.push_back(timer.ElapsedMicros() / per_sample);
      classify_us.push_back(classify / per_sample);
      partition_us.push_back(partition / per_sample);
      solve_us.push_back(solve / per_sample);
    }
    const int64_t median_us = PercentileOfSamples(time_us, 0.50);
    const auto median = [](const std::vector<int64_t>& samples) {
      return FormatInt(PercentileOfSamples(samples, 0.50));
    };

    table.AddRow({FormatInt(keys), FormatInt(w.left.size()),
                  FormatInt(w.right.size()), FormatInt(a.output_size),
                  FormatInt(a.solution.hat_cost),
                  FormatInt(a.solution.effective_cost),
                  FormatDouble(a.cost_ratio, 4),
                  a.perfect ? "yes" : "NO", FormatInt(median_us),
                  FormatInt(PercentileOfSamples(time_us, 0.10)),
                  FormatInt(PercentileOfSamples(time_us, 0.90)),
                  FormatDouble(static_cast<double>(median_us) /
                                   static_cast<double>(a.output_size),
                               4),
                  median(classify_us), median(partition_us),
                  median(solve_us)});
  }
  std::fputs(table.Render().c_str(), stdout);
  report->AddTable("scaling_sweep", table);
  std::printf(
      "\nExpected shape: pi/m = 1.0000 on every row (equijoins pebble\n"
      "perfectly); us_per_edge roughly constant (linear-time solver).\n");
}

void RunSkewSweep(BenchReport* report) {
  std::printf(
      "\nE1b: skew — one heavy key (K_{d,d} block) among light keys\n\n");
  TablePrinter table({"heavy_dup", "m", "pi", "pi/m", "perfect"});
  const JoinAnalyzer analyzer;
  for (int dup : {2, 8, 32, 128}) {
    EquijoinWorkloadOptions options;
    options.num_keys = 64;
    options.min_left_dup = options.max_left_dup = 1;
    options.min_right_dup = options.max_right_dup = 1;
    options.seed = 7;
    Realization<int64_t> w = GenerateEquijoinWorkload(options);
    // Heavy key: dup copies on both sides.
    for (int i = 0; i < dup; ++i) {
      w.left.Add(-1);
      w.right.Add(-1);
    }
    const JoinAnalysis a = analyzer.AnalyzeEquiJoin(w.left, w.right);
    table.AddRow({FormatInt(dup), FormatInt(a.output_size),
                  FormatInt(a.solution.effective_cost),
                  FormatDouble(a.cost_ratio, 4),
                  a.perfect ? "yes" : "NO"});
  }
  std::fputs(table.Render().c_str(), stdout);
  report->AddTable("skew_sweep", table);
  std::printf(
      "\nSkew does not change the verdict: complete-bipartite blocks of any\n"
      "shape are pebbled perfectly (Lemma 3.2).\n");
}

}  // namespace
}  // namespace pebblejoin

int main(int argc, char** argv) {
  pebblejoin::BenchReport report("equijoin", argc, argv);
  pebblejoin::RunSweep(&report);
  pebblejoin::RunSkewSweep(&report);
  return report.Finish() ? 0 : 1;
}
