// Parameterized property suites: the library's core invariants swept over
// the cross product of solvers × graph families × sizes × seeds.

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>

#include "graph/generators.h"
#include "graph/hamiltonian.h"
#include "join/interval.h"
#include "join/join_graph_builder.h"
#include "graph/line_graph.h"
#include "gtest/gtest.h"
#include "pebble/bounds.h"
#include "pebble/cost_model.h"
#include "pebble/scheme_verifier.h"
#include "solver/component_pebbler.h"
#include "solver/dfs_tree_pebbler.h"
#include "solver/exact_pebbler.h"
#include "solver/greedy_walk_pebbler.h"
#include "solver/local_search_pebbler.h"
#include "solver/sort_merge_pebbler.h"
#include "tsp/held_karp.h"

namespace pebblejoin {
namespace {

// --- Graph families -----------------------------------------------------

enum class Family {
  kCompleteBipartite,
  kPath,
  kStar,
  kEvenCycle,
  kWorstCase,
  kRandomConnected,
  kRandomDisconnected,
  kIntervalJoin,
};

const char* FamilyName(Family family) {
  switch (family) {
    case Family::kCompleteBipartite: return "complete";
    case Family::kPath: return "path";
    case Family::kStar: return "star";
    case Family::kEvenCycle: return "cycle";
    case Family::kWorstCase: return "worstcase";
    case Family::kRandomConnected: return "randconn";
    case Family::kRandomDisconnected: return "randdisc";
    case Family::kIntervalJoin: return "interval";
  }
  return "?";
}

BipartiteGraph MakeFamily(Family family, int scale, uint64_t seed) {
  switch (family) {
    case Family::kCompleteBipartite:
      return CompleteBipartite(scale, scale + 1);
    case Family::kPath:
      return PathGraph(3 * scale);
    case Family::kStar:
      return StarGraph(3 * scale);
    case Family::kEvenCycle:
      return EvenCycle(scale + 1);
    case Family::kWorstCase:
      return WorstCaseFamily(scale + 2);
    case Family::kRandomConnected:
      return RandomConnectedBipartite(scale + 2, scale + 2, 3 * scale + 4,
                                      seed);
    case Family::kRandomDisconnected:
      return DisjointUnion(
          RandomConnectedBipartite(scale + 1, scale + 1, 2 * scale + 1,
                                   seed),
          RandomBipartite(scale + 1, scale + 2, 0.4, seed + 1));
    case Family::kIntervalJoin: {
      IntervalWorkloadOptions options;
      options.num_left = 6 * scale;
      options.num_right = 6 * scale;
      options.space = 10.0 * scale;
      options.seed = seed;
      const IntervalRealization w = GenerateIntervalWorkload(options);
      return BuildIntervalOverlapJoinGraph(w.left, w.right);
    }
  }
  return BipartiteGraph(0, 0);
}

// --- Solvers --------------------------------------------------------------

enum class Solver { kGreedy, kDfsTree, kLocalSearch, kSortMergeOrGreedy };

const char* SolverName(Solver solver) {
  switch (solver) {
    case Solver::kGreedy: return "greedy";
    case Solver::kDfsTree: return "dfstree";
    case Solver::kLocalSearch: return "localsearch";
    case Solver::kSortMergeOrGreedy: return "sortmerge";
  }
  return "?";
}

// --- Suite 1: every solver produces a valid, bound-respecting scheme on
// --- every family at every scale.

using SolverFamilyParam = std::tuple<Solver, Family, int>;

class SolverFamilyPropertyTest
    : public testing::TestWithParam<SolverFamilyParam> {};

TEST_P(SolverFamilyPropertyTest, SchemeValidAndWithinBounds) {
  const auto [solver_kind, family, scale] = GetParam();
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const Graph g = MakeFamily(family, scale, 100 * seed).ToGraph();
    if (g.num_edges() == 0) continue;

    const GreedyWalkPebbler greedy;
    const DfsTreePebbler dfs;
    const LocalSearchPebbler local;
    const SortMergePebbler sort_merge;
    const Pebbler* primary = nullptr;
    switch (solver_kind) {
      case Solver::kGreedy: primary = &greedy; break;
      case Solver::kDfsTree: primary = &dfs; break;
      case Solver::kLocalSearch: primary = &local; break;
      case Solver::kSortMergeOrGreedy: primary = &sort_merge; break;
    }
    const ComponentPebbler driver(primary, &greedy);
    const PebbleSolution solution = driver.Solve(g);

    // Validity (re-verified independently of the driver's own check).
    const VerificationResult verdict = VerifyScheme(g, solution.scheme);
    ASSERT_TRUE(verdict.valid) << verdict.error;

    // Lemma 2.3 window.
    const PebblingBounds bounds = ComputeBounds(g);
    EXPECT_GE(solution.effective_cost, bounds.lower);
    EXPECT_LE(solution.effective_cost, bounds.upper_general);

    // Theorem 3.1 guarantee for the DFS-tree solver (and anything at least
    // as good).
    if (solver_kind == Solver::kDfsTree ||
        solver_kind == Solver::kLocalSearch) {
      EXPECT_LE(solution.effective_cost, bounds.upper_dfs_bound)
          << FamilyName(family) << " scale=" << scale << " seed=" << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSolversAllFamilies, SolverFamilyPropertyTest,
    testing::Combine(
        testing::Values(Solver::kGreedy, Solver::kDfsTree,
                        Solver::kLocalSearch, Solver::kSortMergeOrGreedy),
        testing::Values(Family::kCompleteBipartite, Family::kPath,
                        Family::kStar, Family::kEvenCycle,
                        Family::kWorstCase, Family::kRandomConnected,
                        Family::kRandomDisconnected, Family::kIntervalJoin),
        testing::Values(1, 2, 4, 7)),
    [](const testing::TestParamInfo<SolverFamilyParam>& info) {
      return std::string(SolverName(std::get<0>(info.param))) + "_" +
             FamilyName(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

// --- Suite 2: named families with closed-form optima — the exact solver
// --- must reproduce them at every size in range.

struct ClosedFormCase {
  const char* name;
  Family family;
  int scale;
  // Expected optimal effective cost as a function of the built graph.
  int64_t (*expected)(const Graph&);
};

int64_t PerfectCost(const Graph& g) { return g.num_edges(); }
int64_t WorstCaseCost(const Graph& g) {
  return WorstCaseFamilyOptimalCost(g.num_edges() / 2);
}

class ClosedFormPropertyTest
    : public testing::TestWithParam<ClosedFormCase> {};

TEST_P(ClosedFormPropertyTest, ExactSolverMatchesClosedForm) {
  const ClosedFormCase& param = GetParam();
  const Graph g = MakeFamily(param.family, param.scale, 7).ToGraph();
  const ExactPebbler exact;
  const GreedyWalkPebbler greedy;
  const ComponentPebbler driver(&exact, &greedy);
  const PebbleSolution solution = driver.Solve(g);
  EXPECT_EQ(solution.effective_cost, param.expected(g));
}

INSTANTIATE_TEST_SUITE_P(
    NamedFamilies, ClosedFormPropertyTest,
    testing::Values(
        ClosedFormCase{"complete1", Family::kCompleteBipartite, 1,
                       &PerfectCost},
        ClosedFormCase{"complete3", Family::kCompleteBipartite, 3,
                       &PerfectCost},
        ClosedFormCase{"path2", Family::kPath, 2, &PerfectCost},
        ClosedFormCase{"path5", Family::kPath, 5, &PerfectCost},
        ClosedFormCase{"star2", Family::kStar, 2, &PerfectCost},
        ClosedFormCase{"star5", Family::kStar, 5, &PerfectCost},
        ClosedFormCase{"cycle3", Family::kEvenCycle, 3, &PerfectCost},
        ClosedFormCase{"cycle7", Family::kEvenCycle, 7, &PerfectCost},
        ClosedFormCase{"worst1", Family::kWorstCase, 1, &WorstCaseCost},
        ClosedFormCase{"worst4", Family::kWorstCase, 4, &WorstCaseCost},
        ClosedFormCase{"worst6", Family::kWorstCase, 6, &WorstCaseCost}),
    [](const testing::TestParamInfo<ClosedFormCase>& info) {
      return std::string(info.param.name);
    });

// --- Suite 3: the Section 2.2 bridge, swept over edge counts and seeds.

using BridgeParam = std::tuple<int, uint64_t>;  // (edges, seed)

class BridgePropertyTest : public testing::TestWithParam<BridgeParam> {};

TEST_P(BridgePropertyTest, Propositions21And22) {
  const auto [m, seed] = GetParam();
  const Graph g = RandomConnectedBipartite(4, 4, m, 1000 + seed).ToGraph();
  const ExactPebbler exact;
  const auto pi = exact.OptimalEffectiveCost(g);
  ASSERT_TRUE(pi.has_value());

  const Graph line = BuildLineGraph(g);
  // Proposition 2.1: perfect pebbling iff L(G) has a Hamiltonian path.
  EXPECT_EQ(*pi == g.num_edges(), HasHamiltonianPath(line));
  // Proposition 2.2: optimal L(G) tour cost == π(G) − 1.
  BudgetContext unlimited{SolveBudget{}};
  const auto tour = HeldKarpSolve(Tsp12Instance(line), unlimited);
  ASSERT_TRUE(tour.has_value());
  EXPECT_EQ(tour->cost, *pi - 1);
}

INSTANTIATE_TEST_SUITE_P(
    EdgeCountBySeed, BridgePropertyTest,
    testing::Combine(testing::Values(7, 9, 11, 13, 15),
                     testing::Values<uint64_t>(1, 2, 3)),
    [](const testing::TestParamInfo<BridgeParam>& info) {
      return std::string("m") + std::to_string(std::get<0>(info.param)) +
             "_seed" + std::to_string(std::get<1>(info.param));
    });

// --- Suite 4: additivity (Lemma 2.2) across family pairs.

using AdditivityParam = std::tuple<Family, Family>;

class AdditivityPropertyTest
    : public testing::TestWithParam<AdditivityParam> {};

TEST_P(AdditivityPropertyTest, EffectiveCostAddsOverDisjointUnion) {
  const auto [fa, fb] = GetParam();
  const BipartiteGraph a = MakeFamily(fa, 1, 11);
  const BipartiteGraph b = MakeFamily(fb, 1, 22);
  const ExactPebbler exact;
  const GreedyWalkPebbler greedy;
  const ComponentPebbler driver(&exact, &greedy);
  const PebbleSolution pa = driver.Solve(a.ToGraph());
  const PebbleSolution pb = driver.Solve(b.ToGraph());
  const PebbleSolution joint = driver.Solve(DisjointUnion(a, b).ToGraph());
  EXPECT_EQ(joint.effective_cost, pa.effective_cost + pb.effective_cost);
}

INSTANTIATE_TEST_SUITE_P(
    FamilyPairs, AdditivityPropertyTest,
    testing::Combine(testing::Values(Family::kCompleteBipartite,
                                     Family::kWorstCase, Family::kStar),
                     testing::Values(Family::kPath, Family::kEvenCycle,
                                     Family::kWorstCase)),
    [](const testing::TestParamInfo<AdditivityParam>& info) {
      return std::string(FamilyName(std::get<0>(info.param))) + "_plus_" +
             FamilyName(std::get<1>(info.param));
    });

}  // namespace
}  // namespace pebblejoin
