// E3 — The universal upper bound (Theorem 3.1, Lemma 3.1).
//
// Over random connected bipartite graphs of varying density, every solver's
// cost ratio π/m stays at or under the Theorem 3.1 bound
// (m + ⌊(m−1)/4⌋)/m ≤ 1.25, with the DFS-tree construction guaranteeing it
// and local search typically far below. The time columns show the DFS-tree
// solver scaling near-linearly in the line-graph size (Lemma 3.1's
// linear-time claim, measured rather than proved here).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "graph/generators.h"
#include "graph/line_graph.h"
#include "pebble/bounds.h"
#include "pebble/cost_model.h"
#include "solver/dfs_tree_pebbler.h"
#include "solver/greedy_walk_pebbler.h"
#include "solver/local_search_pebbler.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace pebblejoin {
namespace {

int64_t EffectiveCost(const Graph& g, const std::vector<int>& order) {
  return static_cast<int64_t>(order.size()) + JumpsOfEdgeOrder(g, order);
}

struct SolverStats {
  double sum_ratio = 0;
  double max_ratio = 0;
  int violations = 0;  // cases above the Theorem 3.1 bound
  double total_us = 0;
};

void RunDensitySweep() {
  std::printf(
      "E3: random connected bipartite graphs — all solvers vs the\n"
      "Theorem 3.1 bound pi <= m + floor((m-1)/4)\n\n");
  TablePrinter table({"density", "m_avg", "greedy_avg", "greedy_max",
                      "dfs_avg", "dfs_max", "dfs_viol", "local_avg",
                      "local_max"});

  const GreedyWalkPebbler greedy;
  const DfsTreePebbler dfs;
  const LocalSearchPebbler local;
  const int kTrials = 30;

  for (double density : {0.15, 0.3, 0.5, 0.7, 0.9}) {
    SolverStats greedy_stats, dfs_stats, local_stats;
    int64_t total_m = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      const int left = 8;
      const int right = 8;
      const int max_m = left * right;
      const int m = std::max(left + right - 1,
                             static_cast<int>(density * max_m));
      const Graph g = RandomConnectedBipartite(left, right, m,
                                               1000 * trial + 17)
                          .ToGraph();
      total_m += g.num_edges();
      const int64_t bound = DfsUpperBoundForConnected(g.num_edges());

      auto run = [&](const Pebbler& solver, SolverStats* stats) {
        Stopwatch timer;
        const auto order = solver.PebbleConnected(g);
        stats->total_us += timer.ElapsedMicros();
        const int64_t cost = EffectiveCost(g, *order);
        const double ratio =
            static_cast<double>(cost) / static_cast<double>(g.num_edges());
        stats->sum_ratio += ratio;
        stats->max_ratio = std::max(stats->max_ratio, ratio);
        if (cost > bound) ++stats->violations;
      };
      run(greedy, &greedy_stats);
      run(dfs, &dfs_stats);
      run(local, &local_stats);
    }
    table.AddRow(
        {FormatDouble(density, 2), FormatInt(total_m / kTrials),
         FormatDouble(greedy_stats.sum_ratio / kTrials, 4),
         FormatDouble(greedy_stats.max_ratio, 4),
         FormatDouble(dfs_stats.sum_ratio / kTrials, 4),
         FormatDouble(dfs_stats.max_ratio, 4),
         FormatInt(dfs_stats.violations),
         FormatDouble(local_stats.sum_ratio / kTrials, 4),
         FormatDouble(local_stats.max_ratio, 4)});
  }
  std::fputs(table.Render().c_str(), stdout);
  std::printf(
      "\nExpected shape: dfs_max <= 1.25 with dfs_viol = 0 everywhere\n"
      "(Theorem 3.1 is a guarantee); local search <= dfs; dense graphs\n"
      "trend toward ratio 1 (their line graphs are nearly Hamiltonian).\n");
}

void RunScaling() {
  std::printf("\nE3b: DFS-tree solver time scaling (Lemma 3.1)\n\n");
  TablePrinter table({"m", "L(G)_edges", "time_us", "us_per_line_edge"});
  const DfsTreePebbler dfs;
  for (int scale : {200, 400, 800, 1600, 3200, 6400}) {
    const int side = scale / 8;
    const Graph g =
        RandomConnectedBipartite(side, side, scale, 99 + scale).ToGraph();
    const int64_t line_edges = LineGraphEdgeCount(g);
    Stopwatch timer;
    const auto order = dfs.PebbleConnected(g);
    const double micros = timer.ElapsedMicros();
    table.AddRow({FormatInt(g.num_edges()), FormatInt(line_edges),
                  FormatDouble(micros, 1),
                  FormatDouble(micros / static_cast<double>(line_edges),
                               4)});
  }
  std::fputs(table.Render().c_str(), stdout);
}

}  // namespace
}  // namespace pebblejoin

int main() {
  pebblejoin::RunDensitySweep();
  pebblejoin::RunScaling();
  return 0;
}
