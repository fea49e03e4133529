#include <algorithm>

#include "graph/components.h"
#include "graph/generators.h"
#include "graph/graph_properties.h"
#include "graph/line_graph.h"
#include "graph/hamiltonian.h"
#include "gtest/gtest.h"
#include "pebble/cost_model.h"
#include "pebble/scheme_verifier.h"
#include "reductions/diamond_gadget.h"
#include "reductions/l_reduction.h"
#include "reductions/tsp3_to_pebble.h"
#include "reductions/tsp4_to_tsp3.h"
#include "solver/exact_pebbler.h"
#include "tsp/branch_and_bound.h"
#include "tsp/held_karp.h"
#include "util/random.h"

#include "graph_test_util.h"

namespace pebblejoin {
namespace {

// Exact minimum jumps of a TSP-(1,2) instance (Held–Karp or B&B).
int64_t ExactJumps(const Tsp12Instance& instance) {
  BudgetContext unlimited{SolveBudget{}};
  if (instance.num_nodes() <= kMaxHeldKarpNodes) {
    return HeldKarpSolve(instance, unlimited)->jumps;
  }
  const BranchAndBoundResult r =
      BranchAndBoundSolve(instance, BranchAndBoundOptions{}, unlimited);
  EXPECT_TRUE(r.proven_optimal);
  return r.best.jumps;
}

int64_t ExactCost(const Tsp12Instance& instance) {
  return instance.num_nodes() - 1 + ExactJumps(instance);
}

// --- Diamond gadget -------------------------------------------------------

TEST(DiamondGadgetTest, DegreeBounds) {
  const DiamondGadget& d = DiamondGadget::Instance();
  for (int v = 0; v < DiamondGadget::kNumNodes; ++v) {
    if (DiamondGadget::IsCorner(v)) {
      EXPECT_EQ(Degree(d.graph(), v), 2) << v;  // +1 external edge => 3
    } else {
      EXPECT_LE(Degree(d.graph(), v), 3) << v;
    }
  }
}

TEST(DiamondGadgetTest, AllCornerPairsHamiltonianConnected) {
  const DiamondGadget& d = DiamondGadget::Instance();
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      if (a == b) continue;
      const std::vector<int>& path = d.CornerPath(a, b);
      ASSERT_EQ(path.size(), static_cast<size_t>(DiamondGadget::kNumNodes));
      EXPECT_EQ(path.front(), a);
      EXPECT_EQ(path.back(), b);
      std::vector<bool> seen(DiamondGadget::kNumNodes, false);
      for (int v : path) {
        EXPECT_FALSE(seen[v]);
        seen[v] = true;
      }
      for (size_t i = 1; i < path.size(); ++i) {
        EXPECT_TRUE(HasEdge(d.graph(), path[i - 1], path[i]))
            << a << "->" << b;
      }
    }
  }
}

TEST(DiamondGadgetTest, NoTwoCornerPathsCoverAllNodes) {
  // Property (c): exhaustively check every split of the corners into two
  // pairs and every vertex bipartition.
  const Graph& g = DiamondGadget::Instance().graph();
  const int n = DiamondGadget::kNumNodes;
  const int pairings[3][4] = {{0, 1, 2, 3}, {0, 2, 1, 3}, {0, 3, 1, 2}};
  for (const auto& p : pairings) {
    for (int mask = 0; mask < (1 << n); ++mask) {
      if (!(mask & (1 << p[0])) || !(mask & (1 << p[1]))) continue;
      if ((mask & (1 << p[2])) || (mask & (1 << p[3]))) continue;
      std::vector<int> a_nodes, b_nodes;
      for (int v = 0; v < n; ++v) {
        ((mask >> v) & 1) ? a_nodes.push_back(v) : b_nodes.push_back(v);
      }
      if (a_nodes.size() < 2 || b_nodes.size() < 2) continue;
      auto has_corner_path = [&](const std::vector<int>& nodes, int s,
                                 int e) {
        std::vector<int> local(n, -1);
        for (size_t i = 0; i < nodes.size(); ++i) {
          local[nodes[i]] = static_cast<int>(i);
        }
        Graph sub(static_cast<int>(nodes.size()));
        for (int eid = 0; eid < g.num_edges(); ++eid) {
          const Graph::Edge& edge = g.edge(eid);
          if (local[edge.u] != -1 && local[edge.v] != -1) {
            sub.AddEdge(local[edge.u], local[edge.v]);
          }
        }
        return FindHamiltonianPathBetween(sub, local[s], local[e])
            .has_value();
      };
      EXPECT_FALSE(has_corner_path(a_nodes, p[0], p[1]) &&
                   has_corner_path(b_nodes, p[2], p[3]))
          << "two perfect segments cover the gadget";
    }
  }
}

TEST(DiamondGadgetTest, Connected) {
  EXPECT_TRUE(IsConnectedIgnoringIsolated(DiamondGadget::Instance().graph()));
}

// --- TSP-4(1,2) -> TSP-3(1,2) ----------------------------------------------

TEST(Tsp4ToTsp3Test, OutputHasMaxGoodDegreeThree) {
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    const Tsp12Instance g(RandomConnectedBoundedDegree(8, 4, 5, seed));
    const Tsp4ToTsp3Reduction reduction(g);
    EXPECT_LE(reduction.h().MaxGoodDegree(), 3) << seed;
  }
}

TEST(Tsp4ToTsp3Test, SizeBlowupBounded) {
  // |V(H)| <= 9·|V(G)| with the 9-node gadget (paper: 11).
  const Tsp12Instance g(RandomConnectedBoundedDegree(10, 4, 8, 3));
  const Tsp4ToTsp3Reduction reduction(g);
  EXPECT_LE(reduction.h().num_nodes(), 9 * g.num_nodes());
}

TEST(Tsp4ToTsp3Test, KeepsLowDegreeNodes) {
  const Tsp12Instance g(CycleGraph(6));  // all degrees 2
  const Tsp4ToTsp3Reduction reduction(g);
  EXPECT_EQ(reduction.h().num_nodes(), 6);
  for (int v = 0; v < 6; ++v) EXPECT_FALSE(reduction.IsDiamond(v));
}

TEST(Tsp4ToTsp3Test, LiftedTourValidAndNoExtraJumps) {
  Rng rng(99);
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    const Tsp12Instance g(RandomConnectedBoundedDegree(9, 4, 6, seed));
    const Tsp4ToTsp3Reduction reduction(g);
    // Random tour and the exact tour both lift with no extra jumps.
    BudgetContext unlimited{SolveBudget{}};
    Tour random_tour = rng.Permutation(g.num_nodes());
    for (const Tour& tour :
         {random_tour, HeldKarpSolve(g, unlimited)->tour}) {
      const Tour lifted = reduction.LiftTour(tour);
      EXPECT_TRUE(IsValidTour(reduction.h(), lifted));
      EXPECT_LE(TourJumps(reduction.h(), lifted), TourJumps(g, tour))
          << seed;
    }
  }
}

TEST(Tsp4ToTsp3Test, Property1HoldsWithAlpha9) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const Tsp12Instance g(RandomConnectedBoundedDegree(6, 4, 5, seed));
    const Tsp4ToTsp3Reduction reduction(g);
    LReductionSample sample;
    sample.opt_x = ExactCost(g);
    sample.opt_fx = ExactCost(reduction.h());
    EXPECT_TRUE(SatisfiesProperty1(sample, 9.0))
        << seed << " " << DebugString(sample);
  }
}

TEST(Tsp4ToTsp3Test, MapTourBackValid) {
  Rng rng(5);
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const Tsp12Instance g(RandomConnectedBoundedDegree(7, 4, 5, seed));
    const Tsp4ToTsp3Reduction reduction(g);
    for (int trial = 0; trial < 5; ++trial) {
      const Tour h_tour = rng.Permutation(reduction.h().num_nodes());
      const Tour g_tour = reduction.MapTourBack(h_tour);
      EXPECT_TRUE(IsValidTour(g, g_tour));
    }
  }
}

TEST(Tsp4ToTsp3Test, Property2HoldsOnLiftedAndPerturbedTours) {
  // β = 1 check: cost(g(s)) − OPT(G) <= cost(s) − OPT(H), evaluated on
  // solutions s obtained by lifting tours of G (the solutions the
  // reduction argument manipulates).
  Rng rng(13);
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Tsp12Instance g(RandomConnectedBoundedDegree(6, 4, 4, seed));
    const Tsp4ToTsp3Reduction reduction(g);
    LReductionSample sample;
    sample.opt_x = ExactCost(g);
    sample.opt_fx = ExactCost(reduction.h());
    for (int trial = 0; trial < 8; ++trial) {
      const Tour s = reduction.LiftTour(rng.Permutation(g.num_nodes()));
      sample.cost_s = TourCost(reduction.h(), s);
      sample.cost_gs = TourCost(g, reduction.MapTourBack(s));
      EXPECT_TRUE(SatisfiesProperty2(sample, 1.0))
          << seed << " " << DebugString(sample);
    }
  }
}

TEST(Tsp4ToTsp3Test, NiceTourPreservesValidity) {
  Rng rng(31);
  const Tsp12Instance g(RandomConnectedBoundedDegree(6, 4, 5, 17));
  const Tsp4ToTsp3Reduction reduction(g);
  for (int trial = 0; trial < 10; ++trial) {
    const Tour h_tour = rng.Permutation(reduction.h().num_nodes());
    const Tour nice = reduction.NormalizeToNiceTour(h_tour);
    EXPECT_TRUE(IsValidTour(reduction.h(), nice));
    // Every diamond is contiguous in the nice tour.
    for (int u = 0; u < g.num_nodes(); ++u) {
      if (!reduction.IsDiamond(u)) continue;
      int first = -1;
      int last = -1;
      for (int i = 0; i < static_cast<int>(nice.size()); ++i) {
        if (reduction.OwnerOf(nice[i]) == u) {
          if (first == -1) first = i;
          last = i;
        }
      }
      EXPECT_EQ(last - first + 1, DiamondGadget::kNumNodes);
    }
  }
}

TEST(Tsp4ToTsp3DeathTest, RejectsDegreeFiveInputs) {
  const Tsp12Instance g(StarGraph(5).ToGraph());  // center degree 5
  EXPECT_DEATH(Tsp4ToTsp3Reduction{g}, "TSP-4");
}

TEST(Tsp4ToTsp3Test, Property2HoldsOnArbitraryTours) {
  // Definition 4.2 quantifies over EVERY feasible solution of f(x); this
  // samples uniformly random tours of H, not just lifted ones, exercising
  // the niceness surgery on maximally scrambled inputs.
  Rng rng(77);
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const Tsp12Instance g(RandomConnectedBoundedDegree(5, 4, 4, seed));
    const Tsp4ToTsp3Reduction reduction(g);
    LReductionSample sample;
    sample.opt_x = ExactCost(g);
    sample.opt_fx = ExactCost(reduction.h());
    for (int trial = 0; trial < 15; ++trial) {
      const Tour h_tour = rng.Permutation(reduction.h().num_nodes());
      sample.cost_s = TourCost(reduction.h(), h_tour);
      sample.cost_gs = TourCost(g, reduction.MapTourBack(h_tour));
      EXPECT_TRUE(SatisfiesProperty2(sample, 1.0))
          << seed << " " << DebugString(sample);
    }
  }
}

// --- TSP-3(1,2) -> PEBBLE ---------------------------------------------------

TEST(Tsp3ToPebbleTest, IncidenceStructure) {
  const Tsp12Instance g(CycleGraph(5));
  const Tsp3ToPebbleReduction reduction(g);
  EXPECT_EQ(reduction.b().left_size(), 5);
  EXPECT_EQ(reduction.b().right_size(), 5);
  EXPECT_EQ(reduction.b().num_edges(), 10);
  for (int b_edge = 0; b_edge < 10; ++b_edge) {
    const int v = reduction.IncidenceVertex(b_edge);
    const int e = reduction.IncidenceEdge(b_edge);
    const Graph::Edge& ge = g.good().edge(e);
    EXPECT_TRUE(v == ge.u || v == ge.v);
  }
}

TEST(Tsp3ToPebbleTest, LiftedPebblingIsValid) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const Tsp12Instance g(RandomConnectedBoundedDegree(8, 3, 4, seed));
    const Tsp3ToPebbleReduction reduction(g);
    BudgetContext unlimited{SolveBudget{}};
    const Tour tour = HeldKarpSolve(g, unlimited)->tour;
    const std::vector<int> order = reduction.LiftTourToEdgeOrder(tour);
    EXPECT_TRUE(VerifyEdgeOrder(reduction.pebble_graph(), order).valid)
        << seed;
  }
}

TEST(Tsp3ToPebbleTest, Property1HoldsWithAlpha3) {
  const ExactPebbler exact;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const Tsp12Instance g(RandomConnectedBoundedDegree(7, 3, 3, seed));
    const Tsp3ToPebbleReduction reduction(g);
    const auto pebble_opt =
        exact.OptimalEffectiveCost(reduction.pebble_graph());
    ASSERT_TRUE(pebble_opt.has_value());
    LReductionSample sample;
    sample.opt_x = ExactCost(g);
    // π(B) − 1 is the L(B)-tour cost (Proposition 2.2); that is the cost
    // the L-reduction compares (π(B) itself can hit 3.2·OPT on cycles).
    sample.opt_fx = *pebble_opt - 1;
    EXPECT_TRUE(SatisfiesProperty1(sample, 3.0))
        << seed << " " << DebugString(sample);
  }
}

TEST(Tsp3ToPebbleTest, LiftedCostTracksTourCost) {
  // The lift's effective pebbling cost is at most 2m/... concretely: at
  // most cost(T) + m + 1 where m = |E(G)| (each vertex block adds its
  // incidences with clique steps; each good step crosses for free).
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const Tsp12Instance g(RandomConnectedBoundedDegree(8, 3, 4, seed));
    const Tsp3ToPebbleReduction reduction(g);
    BudgetContext unlimited{SolveBudget{}};
    const auto hk = HeldKarpSolve(g, unlimited);
    const std::vector<int> order = reduction.LiftTourToEdgeOrder(hk->tour);
    const Graph& pebble_graph = reduction.pebble_graph();
    const int64_t effective = static_cast<int64_t>(order.size()) +
                              JumpsOfEdgeOrder(pebble_graph, order);
    EXPECT_LE(effective, 3 * hk->cost + 3) << seed;
  }
}

TEST(Tsp3ToPebbleTest, MapEdgeOrderBackValidAndProperty2) {
  Rng rng(8);
  const ExactPebbler exact;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const Tsp12Instance g(RandomConnectedBoundedDegree(6, 3, 3, seed));
    const Tsp3ToPebbleReduction reduction(g);
    const auto pebble_opt =
        exact.OptimalEffectiveCost(reduction.pebble_graph());
    ASSERT_TRUE(pebble_opt.has_value());
    LReductionSample sample;
    sample.opt_x = ExactCost(g);
    sample.opt_fx = *pebble_opt - 1;
    for (int trial = 0; trial < 6; ++trial) {
      // Feasible pebblings: lifted tours (the reduction's own solutions).
      const Tour g_tour = rng.Permutation(g.num_nodes());
      const std::vector<int> s = reduction.LiftTourToEdgeOrder(g_tour);
      const Graph& pb = reduction.pebble_graph();
      sample.cost_s =
          static_cast<int64_t>(s.size()) + JumpsOfEdgeOrder(pb, s) - 1;
      const Tour mapped = reduction.MapEdgeOrderBack(s);
      EXPECT_TRUE(IsValidTour(g, mapped));
      sample.cost_gs = TourCost(g, mapped);
      EXPECT_TRUE(SatisfiesProperty2(sample, 1.0))
          << seed << " " << DebugString(sample);
    }
  }
}

TEST(Tsp3ToPebbleTest, Property2HoldsOnArbitraryEdgeOrders) {
  // Same quantification check for the second reduction: uniformly random
  // pebblings of B (arbitrary edge permutations).
  Rng rng(78);
  const ExactPebbler exact;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const Tsp12Instance g(RandomConnectedBoundedDegree(6, 3, 3, seed));
    const Tsp3ToPebbleReduction reduction(g);
    const auto pebble_opt =
        exact.OptimalEffectiveCost(reduction.pebble_graph());
    ASSERT_TRUE(pebble_opt.has_value());
    LReductionSample sample;
    sample.opt_x = ExactCost(g);
    sample.opt_fx = *pebble_opt - 1;
    for (int trial = 0; trial < 15; ++trial) {
      const std::vector<int> order =
          rng.Permutation(reduction.b().num_edges());
      sample.cost_s =
          static_cast<int64_t>(order.size()) +
          JumpsOfEdgeOrder(reduction.pebble_graph(), order) - 1;
      sample.cost_gs = TourCost(g, reduction.MapEdgeOrderBack(order));
      EXPECT_TRUE(SatisfiesProperty2(sample, 1.0))
          << seed << " " << DebugString(sample);
    }
  }
}

// --- Propositions 2.1 / 2.2 (the pebbling <-> TSP bridge) -------------------

TEST(PebbleTspBridgeTest, PerfectPebblingIffLineGraphHamPath) {
  // Proposition 2.1, exhaustively validated on random small graphs.
  const ExactPebbler exact;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    const BipartiteGraph bg = RandomConnectedBipartite(3, 4, 8, seed);
    const Graph g = bg.ToGraph();
    const Graph line = BuildLineGraph(g);
    const auto cost = exact.OptimalEffectiveCost(g);
    ASSERT_TRUE(cost.has_value());
    EXPECT_EQ(*cost == g.num_edges(), HasHamiltonianPath(line)) << seed;
  }
}

TEST(PebbleTspBridgeTest, OptimalTourCostIsPiMinusOne) {
  // Proposition 2.2.
  const ExactPebbler exact;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    const Graph g = RandomConnectedBipartite(4, 4, 9, seed).ToGraph();
    const Graph line = BuildLineGraph(g);
    const Tsp12Instance line_instance(line);
    const auto cost = exact.OptimalEffectiveCost(g);
    ASSERT_TRUE(cost.has_value());
    EXPECT_EQ(ExactCost(line_instance), *cost - 1) << seed;
  }
}

}  // namespace
}  // namespace pebblejoin
