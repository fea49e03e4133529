// E10 (ablation) — how much each design choice buys.
//
// Three ablations called out in DESIGN.md:
//   (a) branch-and-bound lower bounds: component bound and deficiency bound
//       (the B⁺/B⁻ argument of Theorem 3.3) on vs off, measured in nodes
//       expanded to prove optimality;
//   (b) local-search seeding: greedy walk vs DFS-tree vs matching cover as
//       the starting tour;
//   (c) local-search move set: 2-opt only vs 2-opt + Or-opt.

#include <cstdio>

#include "graph/generators.h"
#include "graph/line_graph.h"
#include "pebble/cost_model.h"
#include "solver/dfs_tree_pebbler.h"
#include "solver/greedy_walk_pebbler.h"
#include "tsp/branch_and_bound.h"
#include "tsp/local_search.h"
#include "tsp/matching_path_cover.h"
#include "tsp/tour.h"
#include "util/table.h"

namespace pebblejoin {
namespace {

void RunBoundAblation() {
  std::printf(
      "E10a: branch-and-bound pruning power (nodes expanded, lower is "
      "better)\n\n");
  TablePrinter table({"n", "m", "both_bounds", "component_only",
                      "deficiency_only", "no_bounds", "optimal_jumps"});
  // The G_n family forces ⌈n/2⌉ − 1 jumps (Theorem 3.3), so the incumbent
  // can never be trivially optimal and the search actually runs.
  for (int n : {6, 7, 8, 9}) {
    const Graph g = WorstCaseFamily(n).ToGraph();
    const int m = g.num_edges();
    const Tsp12Instance line(BuildLineGraph(g));

    BudgetContext unlimited{SolveBudget{}};
    auto run = [&](bool component, bool deficiency) {
      BranchAndBoundOptions options;
      options.use_component_bound = component;
      options.use_deficiency_bound = deficiency;
      options.node_budget = 100'000'000;  // cap: 'no_bounds' exceeds this
      return BranchAndBoundSolve(line, options, unlimited);
    };
    const BranchAndBoundResult both = run(true, true);
    const BranchAndBoundResult component_only = run(true, false);
    const BranchAndBoundResult deficiency_only = run(false, true);
    const BranchAndBoundResult neither = run(false, false);

    table.AddRow({FormatInt(n), FormatInt(m),
                  FormatInt(both.nodes_expanded),
                  FormatInt(component_only.nodes_expanded),
                  FormatInt(deficiency_only.nodes_expanded),
                  neither.proven_optimal
                      ? FormatInt(neither.nodes_expanded)
                      : (FormatInt(neither.nodes_expanded) + " (budget)"),
                  FormatInt(both.best.jumps)});
  }
  std::fputs(table.Render().c_str(), stdout);
  std::printf(
      "\nExpected shape: both bounds together expand the fewest nodes;\n"
      "removing either inflates the search, removing both most of all.\n"
      "All four columns prove the same optimum.\n");
}

void RunSeedAblation() {
  std::printf("\nE10b: local-search seed quality (final jumps after "
              "2-opt/Or-opt)\n\n");
  TablePrinter table({"m", "seed=greedy", "seed=dfs", "seed=matching",
                      "seed_jumps_g", "seed_jumps_d", "seed_jumps_m"});
  const GreedyWalkPebbler greedy;
  const DfsTreePebbler dfs;
  for (int m : {16, 24, 32, 48}) {
    const Graph g =
        RandomConnectedBipartite(m / 3, m / 3, m, 23 + m).ToGraph();
    const Tsp12Instance line(BuildLineGraph(g));
    BudgetContext unlimited{SolveBudget{}};

    Tour greedy_tour = *greedy.PebbleConnected(g);
    Tour dfs_tour = *dfs.PebbleConnected(g);
    Tour matching_tour = MatchingPathCoverTour(line, 1);
    const int64_t jg = TourJumps(line, greedy_tour);
    const int64_t jd = TourJumps(line, dfs_tour);
    const int64_t jm = TourJumps(line, matching_tour);
    LocalSearchImprove(line, &greedy_tour, unlimited);
    LocalSearchImprove(line, &dfs_tour, unlimited);
    LocalSearchImprove(line, &matching_tour, unlimited);

    table.AddRow({FormatInt(m), FormatInt(TourJumps(line, greedy_tour)),
                  FormatInt(TourJumps(line, dfs_tour)),
                  FormatInt(TourJumps(line, matching_tour)), FormatInt(jg),
                  FormatInt(jd), FormatInt(jm)});
  }
  std::fputs(table.Render().c_str(), stdout);
  std::printf(
      "\nExpected shape: final columns nearly identical (local search\n"
      "washes out the seed), while raw seed jumps differ.\n");
}

void RunMoveSetAblation() {
  std::printf("\nE10c: local-search move set (jumps removed from a greedy "
              "seed)\n\n");
  TablePrinter table({"m", "seed_jumps", "2opt_only", "2opt+oropt"});
  const GreedyWalkPebbler greedy;
  for (int m : {20, 30, 40}) {
    int64_t seed_total = 0;
    int64_t two_total = 0;
    int64_t both_total = 0;
    const int kTrials = 10;
    for (int trial = 0; trial < kTrials; ++trial) {
      const Graph g =
          RandomConnectedBipartite(m / 3, m / 3, m, 1000 * m + trial)
              .ToGraph();
      const Tsp12Instance line(BuildLineGraph(g));
      const Tour seed = *greedy.PebbleConnected(g);
      seed_total += TourJumps(line, seed);

      Tour two = seed;
      BudgetContext unlimited{SolveBudget{}};
      TwoOptImprove(line, &two, unlimited);
      two_total += TourJumps(line, two);

      Tour both = seed;
      LocalSearchImprove(line, &both, unlimited);
      both_total += TourJumps(line, both);
    }
    table.AddRow({FormatInt(m), FormatDouble(1.0 * seed_total / kTrials, 2),
                  FormatDouble(1.0 * two_total / kTrials, 2),
                  FormatDouble(1.0 * both_total / kTrials, 2)});
  }
  std::fputs(table.Render().c_str(), stdout);
}

}  // namespace
}  // namespace pebblejoin

int main() {
  pebblejoin::RunBoundAblation();
  pebblejoin::RunSeedAblation();
  pebblejoin::RunMoveSetAblation();
  return 0;
}
