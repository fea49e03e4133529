// E18 — Parallel per-component solving: components x threads sweep.
//
// Lemma 2.2 makes pi additive over connected components, which turns a
// multi-component join graph into an embarrassingly parallel workload.
// This experiment fixes a per-component instance size, sweeps the number
// of components and the ComponentPebbler thread count, and records wall
// clock, speedup over the sequential drive, and — the determinism
// contract — that every thread count produces the identical cost.
//
// It times the fan-out the engine runs: components spread over a borrowed,
// long-lived ThreadPool built once per thread count outside the timer.
// Each cell reports the median and p10/p90 of kRepeats solves, with the
// thread counts of a row timed in turn.
//
// Speedup is bounded by the physical core count: on a single-core host
// every row reports ~1.0x and the sweep degenerates to an overhead
// measurement (the honest result); on a k-core host the 64-component rows
// approach min(k, threads)x.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/bipartite_graph.h"
#include "graph/generators.h"
#include "pebble/scheme_verifier.h"
#include "obs/bench_report.h"
#include "obs/metrics.h"
#include "solver/component_pebbler.h"
#include "solver/greedy_walk_pebbler.h"
#include "solver/ils_pebbler.h"
#include "util/budget.h"
#include "util/stopwatch.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace pebblejoin {
namespace {

// Timed solves per cell; the cell reports their median and p10/p90.
constexpr int kRepeats = 21;

// A join graph with `components` random connected blobs of ~24 edges each:
// heavy enough that ILS dominates the wall clock, small enough that the
// whole sweep stays interactive.
Graph MakeWorkload(int components) {
  BipartiteGraph g = RandomConnectedBipartite(6, 6, 24, /*seed=*/1);
  for (int c = 1; c < components; ++c) {
    g = DisjointUnion(
        g, RandomConnectedBipartite(6, 6, 24, /*seed=*/1 + c));
  }
  return g.ToGraph();
}

void RunThreadSweep(BenchReport* report) {
  std::printf(
      "E18: parallel per-component solving (Lemma 2.2 as a parallelism\n"
      "license) — hardware threads on this host: %u\n\n",
      std::thread::hardware_concurrency());
  TablePrinter table({"components", "m", "threads", "pi", "time_ms", "p10_ms",
                      "p90_ms", "speedup", "identical", "valid"});

  const IlsPebbler ils;
  const GreedyWalkPebbler greedy;
  const std::vector<int> thread_counts = {1, 2, 4, 8};
  // One pool per thread count, built outside the timer and reused by every
  // solve, as the engine's long-lived pool is.
  std::vector<std::unique_ptr<ThreadPool>> pools;
  std::vector<ComponentPebbler> drivers;
  for (int threads : thread_counts) {
    ComponentPebbler::Options options;
    options.threads = threads;
    if (threads > 1) {
      pools.push_back(std::make_unique<ThreadPool>(threads));
      options.pool = pools.back().get();
    }
    drivers.emplace_back(&ils, &greedy, options);
  }

  for (int components : {8, 16, 64}) {
    const Graph g = MakeWorkload(components);
    // Repeats interleave the thread counts, so a burst of load on a shared
    // host lands on every column of a row alike.
    std::vector<std::vector<int64_t>> samples_us(thread_counts.size());
    std::vector<PebbleSolution> solutions(thread_counts.size());
    for (int r = 0; r < kRepeats; ++r) {
      for (size_t t = 0; t < thread_counts.size(); ++t) {
        BudgetContext ctx{SolveBudget{}};
        Stopwatch timer;
        solutions[t] = drivers[t].Solve(g, &ctx);
        samples_us[t].push_back(timer.ElapsedMicros());
      }
    }
    const int64_t baseline_us = PercentileOfSamples(samples_us[0], 0.50);
    for (size_t t = 0; t < thread_counts.size(); ++t) {
      const PebbleSolution& solution = solutions[t];
      const int64_t median_us = PercentileOfSamples(samples_us[t], 0.50);
      const bool valid = VerifyEdgeOrder(g, solution.edge_order).valid;
      const auto ms = [](int64_t us) { return FormatDouble(us / 1000.0, 2); };
      table.AddRow(
          {FormatInt(components), FormatInt(g.num_edges()),
           FormatInt(thread_counts[t]), FormatInt(solution.effective_cost),
           ms(median_us), ms(PercentileOfSamples(samples_us[t], 0.10)),
           ms(PercentileOfSamples(samples_us[t], 0.90)),
           FormatDouble(median_us > 0
                            ? static_cast<double>(baseline_us) / median_us
                            : 0.0,
                        2),
           solution.effective_cost == solutions[0].effective_cost ? "yes"
                                                                  : "NO",
           valid ? "yes" : "NO"});
    }
  }
  std::fputs(table.Render().c_str(), stdout);
  report->AddTable("thread_sweep", table);
  std::printf(
      "\nExpected shape: identical = yes and valid = yes on every row (the\n"
      "determinism contract); speedup ~= min(threads, cores, components)\n"
      "on the 64-component rows, and ~1.0 on a single-core host.\n");
}

}  // namespace
}  // namespace pebblejoin

int main(int argc, char** argv) {
  pebblejoin::BenchReport report("parallel", argc, argv);
  pebblejoin::RunThreadSweep(&report);
  return report.Finish() ? 0 : 1;
}
