// E9 — The pebbling ↔ TSP bridge (Section 2.2, Propositions 2.1, 2.2) and
// the TSP-(1,2) heuristic ladder the approximation discussion relies on.
//
// Part (a): over an exhaustive sweep of random small connected graphs,
// counts how often π(G) = m coincides with L(G) having a Hamiltonian path
// (Proposition 2.1 — must be always), and validates the exact identity
// optimal-L(G)-tour-cost = π(G) − 1 (Proposition 2.2 — must be always).
//
// Part (b): the quality ladder NN → greedy path cover → +2-opt/Or-opt →
// exact, mirroring the gap between the trivial 2-approximation and the
// 7/6-style algorithms the paper cites ([12]).

#include <cstdio>

#include "graph/generators.h"
#include "graph/hamiltonian.h"
#include "graph/line_graph.h"
#include "obs/bench_report.h"
#include "solver/exact_pebbler.h"
#include "tsp/held_karp.h"
#include "tsp/local_search.h"
#include "tsp/nearest_neighbor.h"
#include "tsp/path_cover.h"
#include "util/table.h"

namespace pebblejoin {
namespace {

void RunBridge(BenchReport* report) {
  std::printf(
      "E9a: Propositions 2.1 / 2.2 over random small connected graphs\n\n");
  TablePrinter table({"m", "trials", "prop2.1_holds", "prop2.2_holds",
                      "perfect_count"});
  const ExactPebbler exact;
  for (int m : {7, 9, 11, 13}) {
    const int kTrials = 25;
    int p21 = 0;
    int p22 = 0;
    int perfect = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      const Graph g =
          RandomConnectedBipartite(4, 4, m, 10'000 + 31 * m + trial)
              .ToGraph();
      const Graph line = BuildLineGraph(g);
      const int64_t pi = *exact.OptimalEffectiveCost(g);
      if ((pi == m) == HasHamiltonianPath(line)) ++p21;
      if (pi == m) ++perfect;
      const Tsp12Instance line_instance(line);
      BudgetContext unlimited{SolveBudget{}};
      const auto tour = HeldKarpSolve(line_instance, unlimited);
      if (tour.has_value() && tour->cost == pi - 1) ++p22;
    }
    table.AddRow({FormatInt(m), FormatInt(kTrials),
                  FormatInt(p21) + "/" + FormatInt(kTrials),
                  FormatInt(p22) + "/" + FormatInt(kTrials),
                  FormatInt(perfect)});
  }
  std::fputs(table.Render().c_str(), stdout);
  report->AddTable("bridge", table);
  std::printf(
      "\nExpected shape: both proposition columns at trials/trials.\n");
}

void RunLadder(BenchReport* report) {
  std::printf(
      "\nE9b: TSP-(1,2) heuristic ladder on random line graphs "
      "(mean jumps; lower is better)\n\n");
  TablePrinter table({"nodes", "nn", "nn_multi", "path_cover", "plus_2opt",
                      "exact"});
  for (int m : {10, 13, 16, 19}) {
    const int kTrials = 15;
    double nn = 0, nn_multi = 0, cover = 0, improved = 0, best = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      const Graph g =
          RandomConnectedBipartite(5, 5, m, 555 + 7 * m + trial).ToGraph();
      const Tsp12Instance inst(BuildLineGraph(g));
      nn += static_cast<double>(
          TourJumps(inst, NearestNeighborTour(inst, 0)));
      nn_multi += static_cast<double>(
          TourJumps(inst, BestNearestNeighborTour(inst, 8, trial)));
      Tour cover_tour = BestGreedyPathCoverTour(inst, 4, trial);
      cover += static_cast<double>(TourJumps(inst, cover_tour));
      BudgetContext unlimited{SolveBudget{}};
      LocalSearchImprove(inst, &cover_tour, unlimited);
      improved += static_cast<double>(TourJumps(inst, cover_tour));
      best += static_cast<double>(HeldKarpSolve(inst, unlimited)->jumps);
    }
    table.AddRow({FormatInt(m), FormatDouble(nn / kTrials, 3),
                  FormatDouble(nn_multi / kTrials, 3),
                  FormatDouble(cover / kTrials, 3),
                  FormatDouble(improved / kTrials, 3),
                  FormatDouble(best / kTrials, 3)});
  }
  std::fputs(table.Render().c_str(), stdout);
  report->AddTable("heuristic_ladder", table);
  std::printf(
      "\nExpected shape: restarts improve NN, 2-opt/Or-opt improves the\n"
      "path cover, and plus_2opt lands close to exact.\n");
}

}  // namespace
}  // namespace pebblejoin

int main(int argc, char** argv) {
  pebblejoin::BenchReport report("tsp_bridge", argc, argv);
  pebblejoin::RunBridge(&report);
  pebblejoin::RunLadder(&report);
  return report.Finish() ? 0 : 1;
}
