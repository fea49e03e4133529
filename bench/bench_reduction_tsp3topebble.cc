// E6 — The incidence-graph L-reduction TSP-3(1,2) → PEBBLE (Theorem 4.4).
//
// For random degree-≤3 instances G: builds the incidence bipartite graph B,
// solves both sides exactly, and reports the observed α = π(B)/OPT(G)
// (claim: ≤ 3), plus the observed β over lifted pebblings (claim: ≤ 1).
// Also shows the structural identity behind the reduction: L(B) is G with
// every degree-i vertex expanded into K_i.

#include <algorithm>
#include <cstdio>
#include <limits>

#include "graph/csr_graph.h"
#include "graph/generators.h"
#include "graph/line_graph.h"
#include "pebble/cost_model.h"
#include "reductions/l_reduction.h"
#include "reductions/tsp3_to_pebble.h"
#include "solver/exact_pebbler.h"
#include "tsp/held_karp.h"
#include "util/random.h"
#include "util/table.h"

namespace pebblejoin {
namespace {

void Run() {
  std::printf(
      "E6: L-reduction TSP-3(1,2) -> PEBBLE via incidence graphs\n"
      "(Theorem 4.4: alpha = 3, beta = 1)\n\n");
  TablePrinter table({"seed", "|V(G)|", "|E(G)|", "|E(B)|", "OPT(G)",
                      "pi(B)-1", "alpha_obs", "beta_max", "p1", "p2"});

  ExactPebbler::Options exact_options;
  exact_options.max_edges = 26;
  exact_options.bnb_node_budget = 500'000'000;
  const ExactPebbler exact(exact_options);
  Rng rng(7);

  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const int n = 6 + static_cast<int>(seed % 3);
    const Tsp12Instance g(RandomConnectedBoundedDegree(n, 3, 3, seed));
    const Tsp3ToPebbleReduction reduction(g);

    BudgetContext unlimited{SolveBudget{}};
    LReductionSample sample;
    sample.opt_x = HeldKarpSolve(g, unlimited)->cost;
    const auto pebble_opt =
        exact.OptimalEffectiveCost(reduction.pebble_graph());
    if (!pebble_opt.has_value()) {
      table.AddRow({FormatInt(static_cast<int64_t>(seed)),
                    FormatInt(g.num_nodes()),
                    FormatInt(g.good().num_edges()),
                    FormatInt(reduction.b().num_edges()), "-", "-", "-", "-",
                    "-", "-"});
      continue;
    }
    // The L-reduction compares TSP costs; by Proposition 2.2 the tour
    // cost over L(B) is the pebbling cost minus one.
    sample.opt_fx = *pebble_opt - 1;

    double beta_max = 0;
    bool p2_all = true;
    for (int trial = 0; trial < 12; ++trial) {
      const Tour g_tour = rng.Permutation(g.num_nodes());
      const std::vector<int> s = reduction.LiftTourToEdgeOrder(g_tour);
      const Graph& pb = reduction.pebble_graph();
      sample.cost_s =
          static_cast<int64_t>(s.size()) + JumpsOfEdgeOrder(pb, s) - 1;
      sample.cost_gs = TourCost(g, reduction.MapEdgeOrderBack(s));
      const double beta = ObservedBeta(sample);
      if (beta != std::numeric_limits<double>::infinity()) {
        beta_max = std::max(beta_max, beta);
      }
      p2_all = p2_all && SatisfiesProperty2(sample, 1.0);
    }

    table.AddRow(
        {FormatInt(static_cast<int64_t>(seed)), FormatInt(g.num_nodes()),
         FormatInt(g.good().num_edges()),
         FormatInt(reduction.b().num_edges()), FormatInt(sample.opt_x),
         FormatInt(sample.opt_fx), FormatDouble(ObservedAlpha(sample), 3),
         FormatDouble(beta_max, 3),
         SatisfiesProperty1(sample, 3.0) ? "ok" : "VIOLATED",
         p2_all ? "ok" : "VIOLATED"});
  }
  std::fputs(table.Render().c_str(), stdout);
  std::printf(
      "\nExpected shape: alpha_obs <= 3 and beta_max <= 1 on every row,\n"
      "with both Definition 4.2 properties reported 'ok'.\n");
}

void RunStructure() {
  std::printf(
      "\nE6b: L(B) structure — vertex v of degree i becomes a K_i clique\n\n");
  TablePrinter table(
      {"graph", "|V(G)|", "|E(G)|", "|V(L(B))|", "|E(L(B))|", "formula"});
  for (int n : {5, 7, 9}) {
    const Graph g = CycleGraph(n);
    const Tsp3ToPebbleReduction reduction(Tsp12Instance{g});
    const Graph line = BuildLineGraph(reduction.pebble_graph());
    // Each degree-2 vertex contributes one K_2 edge; each edge of G pairs
    // its two incidences: |E(L(B))| = Σ C(deg,2) + |E(G)|.
    int64_t expected = g.num_edges();
    for (int v = 0; v < g.num_vertices(); ++v) {
      const int64_t d = g.csr().Degree(v);
      expected += d * (d - 1) / 2;
    }
    table.AddRow({"C_" + FormatInt(n), FormatInt(g.num_vertices()),
                  FormatInt(g.num_edges()), FormatInt(line.num_vertices()),
                  FormatInt(line.num_edges()), FormatInt(expected)});
  }
  std::fputs(table.Render().c_str(), stdout);
}

}  // namespace
}  // namespace pebblejoin

int main() {
  pebblejoin::Run();
  pebblejoin::RunStructure();
  return 0;
}
