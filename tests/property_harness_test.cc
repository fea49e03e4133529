// Seeded randomized property harness over the solver stack.
//
// Each suite draws hundreds of random join graphs and checks the paper's
// invariants on every one:
//
//   - the independent SchemeVerifier accepts every solver's scheme, and the
//     effective cost lands in [m, 2m-1] on connected graphs (Lemma 2.3 +
//     Corollary 2.1), with the dfs-tree solver additionally inside the
//     Theorem 3.1 bound m + floor((m-1)/4);
//   - equijoin-shaped graphs solve perfectly, pi = m (Theorem 3.2);
//   - pi is additive over disjoint unions (Lemma 2.2), both across separate
//     solves and inside one ComponentPebbler drive;
//   - the exact solver's optimum is a true floor under every heuristic and
//     hits the Theorem 3.3 closed form on the worst-case family.
//
// Every check runs under a SCOPED_TRACE carrying the seed, so a failure
// prints the exact instance to replay.

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/bipartite_graph.h"
#include "graph/generators.h"
#include "pebble/bounds.h"
#include "pebble/cost_model.h"
#include "pebble/scheme_verifier.h"
#include "solver/component_pebbler.h"
#include "solver/dfs_tree_pebbler.h"
#include "solver/exact_pebbler.h"
#include "solver/greedy_walk_pebbler.h"
#include "solver/ils_pebbler.h"
#include "solver/local_search_pebbler.h"
#include "solver/sort_merge_pebbler.h"

namespace pebblejoin {
namespace {

// A random connected bipartite instance with 2..5 vertices per side and a
// feasible edge count, all derived from `seed`.
Graph RandomConnectedInstance(uint64_t seed, int* out_m = nullptr) {
  std::mt19937_64 rng(seed);
  const int left = 2 + static_cast<int>(rng() % 4);
  const int right = 2 + static_cast<int>(rng() % 4);
  const int min_m = left + right - 1;
  const int max_m = left * right;
  const int m = min_m + static_cast<int>(rng() % (max_m - min_m + 1));
  if (out_m != nullptr) *out_m = m;
  return RandomConnectedBipartite(left, right, m, rng()).ToGraph();
}

TEST(PropertyHarnessTest, VerifierAcceptsEverySolverOnConnectedGraphs) {
  const GreedyWalkPebbler greedy;
  const DfsTreePebbler dfs_tree;
  const LocalSearchPebbler local_search;
  const IlsPebbler ils;
  const Pebbler* solvers[] = {&greedy, &dfs_tree, &local_search, &ils};

  constexpr int kSeeds = 125;  // x4 solvers = 500 solves
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE(std::string("seed=") + std::to_string(seed));
    int m = 0;
    const Graph g = RandomConnectedInstance(seed, &m);

    for (const Pebbler* solver : solvers) {
      SCOPED_TRACE("solver=" + solver->name());
      const auto order = solver->PebbleConnected(g);
      ASSERT_TRUE(order.has_value());
      const VerificationResult verdict = VerifyEdgeOrder(g, *order);
      ASSERT_TRUE(verdict.valid) << verdict.error;

      // Lemma 2.3 floor and the universal connected ceiling 2m - 1
      // (Corollary 2.1: any connected order jumps at most m - 1 times).
      EXPECT_GE(verdict.effective_cost, m);
      EXPECT_LE(verdict.effective_cost, 2 * m - 1);
      // Connected graph: beta_0 = 1, so pi_hat = pi + 1, and the verifier's
      // costs agree with the O(m) order-based accounting.
      EXPECT_EQ(verdict.hat_cost, verdict.effective_cost + 1);
      EXPECT_EQ(HatCostOfEdgeOrder(g, *order), verdict.hat_cost);

      if (solver->name() == "dfs-tree") {
        // Theorem 3.1: the dfs-tree construction proves its own bound.
        EXPECT_LE(verdict.effective_cost, DfsUpperBoundForConnected(m));
      }
    }
  }
}

TEST(PropertyHarnessTest, EquijoinShapesSolvePerfectly) {
  // Theorem 3.2: every graph whose components are complete bipartite has
  // pi = m, and the sort-merge pebbler achieves it.
  const SortMergePebbler sort_merge;
  const GreedyWalkPebbler greedy;
  const ComponentPebbler driver(&sort_merge, &greedy);

  constexpr int kSeeds = 150;
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE(std::string("seed=") + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const int blocks = 1 + static_cast<int>(rng() % 4);
    BipartiteGraph g = CompleteBipartite(1 + rng() % 4, 1 + rng() % 4);
    for (int b = 1; b < blocks; ++b) {
      g = DisjointUnion(g, CompleteBipartite(1 + rng() % 4, 1 + rng() % 4));
    }
    const Graph flat = g.ToGraph();

    const PebbleSolution solution = driver.Solve(flat);
    EXPECT_EQ(solution.effective_cost, flat.num_edges());
    EXPECT_EQ(solution.effective_cost, EquijoinOptimalEffectiveCost(flat));
    for (const SolveOutcome& outcome : solution.outcomes) {
      EXPECT_EQ(outcome.winner, "sort-merge");
    }
  }
}

TEST(PropertyHarnessTest, EffectiveCostIsAdditiveOverDisjointUnions) {
  // Lemma 2.2 as a harness invariant: with a deterministic solver, solving
  // A and B separately costs exactly what solving their disjoint union
  // costs, and the per-component outcomes sum to the drive's total.
  const IlsPebbler ils;
  const GreedyWalkPebbler greedy;
  const ComponentPebbler driver(&ils, &greedy);

  constexpr int kSeeds = 120;
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE(std::string("seed=") + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const BipartiteGraph a =
        RandomConnectedBipartite(3, 3, 5 + rng() % 5, rng());
    const BipartiteGraph b =
        RandomConnectedBipartite(4, 2, 5 + rng() % 4, rng());
    const Graph flat_a = a.ToGraph();
    const Graph flat_b = b.ToGraph();
    const Graph flat_union = DisjointUnion(a, b).ToGraph();

    const PebbleSolution sol_a = driver.Solve(flat_a);
    const PebbleSolution sol_b = driver.Solve(flat_b);
    const PebbleSolution sol_union = driver.Solve(flat_union);

    EXPECT_EQ(sol_union.effective_cost,
              sol_a.effective_cost + sol_b.effective_cost);

    int64_t outcome_sum = 0;
    for (const SolveOutcome& outcome : sol_union.outcomes) {
      outcome_sum += outcome.effective_cost;
    }
    EXPECT_EQ(outcome_sum, sol_union.effective_cost);
  }
}

TEST(PropertyHarnessTest, ExactOptimumFloorsEveryHeuristic) {
  const ExactPebbler exact;
  const GreedyWalkPebbler greedy;
  const DfsTreePebbler dfs_tree;
  const LocalSearchPebbler local_search;
  const IlsPebbler ils;
  const Pebbler* heuristics[] = {&greedy, &dfs_tree, &local_search, &ils};

  constexpr int kSeeds = 120;
  for (uint64_t seed = 1000; seed < 1000 + kSeeds; ++seed) {
    SCOPED_TRACE(std::string("seed=") + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const int left = 2 + static_cast<int>(rng() % 2);
    const int right = 2 + static_cast<int>(rng() % 2);
    const int min_m = left + right - 1;
    const int max_m = std::min(9, left * right);
    const int m = min_m + static_cast<int>(rng() % (max_m - min_m + 1));
    const Graph g = RandomConnectedBipartite(left, right, m, rng()).ToGraph();

    const auto exact_order = exact.PebbleConnected(g);
    ASSERT_TRUE(exact_order.has_value());
    const VerificationResult optimal = VerifyEdgeOrder(g, *exact_order);
    ASSERT_TRUE(optimal.valid) << optimal.error;
    EXPECT_GE(optimal.effective_cost, m);
    EXPECT_LE(optimal.effective_cost, DfsUpperBoundForConnected(m));

    for (const Pebbler* heuristic : heuristics) {
      SCOPED_TRACE("solver=" + heuristic->name());
      const auto order = heuristic->PebbleConnected(g);
      ASSERT_TRUE(order.has_value());
      EXPECT_GE(VerifyEdgeOrder(g, *order).effective_cost,
                optimal.effective_cost);
    }
  }
}

TEST(PropertyHarnessTest, WorstCaseFamilyHitsTheorem33ClosedForm) {
  const ExactPebbler exact;
  for (int n : {3, 4}) {
    SCOPED_TRACE(std::string("n=") + std::to_string(n));
    const Graph g = WorstCaseFamily(n).ToGraph();
    const auto order = exact.PebbleConnected(g);
    ASSERT_TRUE(order.has_value());
    EXPECT_EQ(VerifyEdgeOrder(g, *order).effective_cost,
              WorstCaseFamilyOptimalCost(n));
  }
}

}  // namespace
}  // namespace pebblejoin
