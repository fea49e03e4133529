#include <algorithm>
#include <array>

#include "graph/generators.h"
#include "gtest/gtest.h"
#include "tsp/branch_and_bound.h"
#include "tsp/held_karp.h"
#include "tsp/local_search.h"
#include "tsp/nearest_neighbor.h"
#include "tsp/path_cover.h"
#include "tsp/tour.h"
#include "tsp/tsp12.h"
#include "util/random.h"

namespace pebblejoin {
namespace {

// Minimal jumps by brute force over all tours.
int64_t BruteForceJumps(const Tsp12Instance& instance) {
  const int n = instance.num_nodes();
  std::vector<int> perm(n);
  for (int i = 0; i < n; ++i) perm[i] = i;
  int64_t best = n;  // upper bound: every step a jump
  do {
    best = std::min(best, TourJumps(instance, perm));
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

TEST(Tsp12InstanceTest, GoodEdgesAndDegree) {
  const Tsp12Instance inst(PathGraph(3).ToGraph());
  EXPECT_EQ(inst.num_nodes(), 4);
  EXPECT_TRUE(inst.IsGood(inst.good().edge(0).u, inst.good().edge(0).v));
  EXPECT_EQ(inst.MaxGoodDegree(), 2);
}

TEST(TourTest, ValidityChecks) {
  const Tsp12Instance inst(CompleteGraph(3));
  EXPECT_TRUE(IsValidTour(inst, {0, 1, 2}));
  EXPECT_FALSE(IsValidTour(inst, {0, 1}));
  EXPECT_FALSE(IsValidTour(inst, {0, 1, 1}));
  EXPECT_FALSE(IsValidTour(inst, {0, 1, 3}));
}

TEST(TourTest, CostAndJumps) {
  // Path 0-1-2-3 as good graph; tour 0,1,2,3 has no jumps.
  Graph good(4);
  good.AddEdge(0, 1);
  good.AddEdge(1, 2);
  good.AddEdge(2, 3);
  const Tsp12Instance inst(good);
  EXPECT_EQ(TourJumps(inst, {0, 1, 2, 3}), 0);
  EXPECT_EQ(TourCost(inst, {0, 1, 2, 3}), 3);
  // 1-0 good, 0-2 bad, 2-3 good: one jump.
  EXPECT_EQ(TourJumps(inst, {1, 0, 2, 3}), 1);
  EXPECT_EQ(TourCost(inst, {1, 0, 2, 3}), 4);
  EXPECT_EQ(TourJumps(inst, {2, 0, 3, 1}), 3);
}

TEST(TourTest, EmptyAndSingleton) {
  const Tsp12Instance empty{Graph(0)};
  EXPECT_EQ(TourCost(empty, {}), 0);
  const Tsp12Instance one{Graph(1)};
  EXPECT_EQ(TourCost(one, {0}), 0);
}

TEST(TourTest, RunsSplitAtJumps) {
  Graph good(4);
  good.AddEdge(0, 1);
  good.AddEdge(2, 3);
  const Tsp12Instance inst(good);
  const auto runs = TourRuns(inst, {0, 1, 2, 3});
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(runs[1], (std::vector<int>{2, 3}));
}

TEST(NearestNeighborTest, ProducesValidTours) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const Tsp12Instance inst(RandomGraph(12, 0.3, seed));
    const Tour tour = NearestNeighborTour(inst, 0);
    EXPECT_TRUE(IsValidTour(inst, tour));
  }
}

TEST(NearestNeighborTest, ZeroJumpsOnAPath) {
  Graph good(5);
  for (int i = 0; i + 1 < 5; ++i) good.AddEdge(i, i + 1);
  const Tsp12Instance inst(good);
  EXPECT_EQ(TourJumps(inst, NearestNeighborTour(inst, 0)), 0);
}

TEST(NearestNeighborTest, RestartsNeverWorse) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const Tsp12Instance inst(RandomGraph(14, 0.25, seed));
    const Tour single = NearestNeighborTour(inst, 0);
    const Tour multi = BestNearestNeighborTour(inst, 5, seed);
    EXPECT_LE(TourCost(inst, multi), TourCost(inst, single));
  }
}

TEST(PathCoverTest, ProducesValidTours) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const Tsp12Instance inst(RandomGraph(15, 0.2, seed));
    const Tour tour = GreedyPathCoverTour(inst, seed);
    EXPECT_TRUE(IsValidTour(inst, tour));
  }
}

TEST(PathCoverTest, PerfectOnHamiltonianPathGraph) {
  Graph good(6);
  for (int i = 0; i + 1 < 6; ++i) good.AddEdge(i, i + 1);
  const Tsp12Instance inst(good);
  EXPECT_EQ(TourJumps(inst, GreedyPathCoverTour(inst, 3)), 0);
}

TEST(PathCoverTest, IsolatedNodesBecomeJumps) {
  const Tsp12Instance inst(Graph(4));  // no good edges at all
  const Tour tour = GreedyPathCoverTour(inst, 1);
  EXPECT_TRUE(IsValidTour(inst, tour));
  EXPECT_EQ(TourJumps(inst, tour), 3);
}

// Reference copy of GreedyPathCoverTour as it stood before the emitted
// set moved from std::vector<bool> to util/bitset.h — same rng draws,
// same greedy choices. The differential test below pins the migration to
// be a pure representation change.
Tour ReferencePathCoverTour(const Tsp12Instance& instance, uint64_t seed) {
  const int n = instance.num_nodes();
  const Graph& good = instance.good();
  Rng rng(seed);
  std::vector<int> edge_order = rng.Permutation(good.num_edges());

  std::vector<int> path_degree(n, 0);
  std::vector<std::array<int, 2>> chosen(n, {-1, -1});
  std::vector<int> parent(n);
  for (int i = 0; i < n; ++i) parent[i] = i;
  auto find = [&parent](int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };

  for (int e : edge_order) {
    const Graph::Edge& edge = good.edge(e);
    if (path_degree[edge.u] >= 2 || path_degree[edge.v] >= 2) continue;
    const int ru = find(edge.u);
    const int rv = find(edge.v);
    if (ru == rv) continue;  // would close a cycle
    parent[ru] = rv;
    chosen[edge.u][path_degree[edge.u]++] = edge.v;
    chosen[edge.v][path_degree[edge.v]++] = edge.u;
  }

  Tour tour;
  tour.reserve(n);
  std::vector<bool> emitted(n, false);
  for (int start = 0; start < n; ++start) {
    if (emitted[start] || path_degree[start] == 2) continue;
    int prev = -1;
    int cur = start;
    while (cur != -1) {
      emitted[cur] = true;
      tour.push_back(cur);
      int next = -1;
      for (int cand : chosen[cur]) {
        if (cand != -1 && cand != prev) next = cand;
      }
      prev = cur;
      cur = (next != -1 && !emitted[next]) ? next : -1;
    }
  }
  return tour;
}

TEST(PathCoverTest, BitsetMigrationIsByteIdentical) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    for (double density : {0.05, 0.2, 0.5}) {
      const Tsp12Instance inst(
          RandomGraph(20 + static_cast<int>(seed % 7), density, seed));
      EXPECT_EQ(GreedyPathCoverTour(inst, seed),
                ReferencePathCoverTour(inst, seed))
          << "seed=" << seed << " density=" << density;
    }
  }
}

TEST(LocalSearchTest, NeverInvalidatesAndNeverWorsens) {
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    const Tsp12Instance inst(RandomGraph(14, 0.25, seed));
    Tour tour = NearestNeighborTour(inst, 0);
    const int64_t before = TourCost(inst, tour);
    BudgetContext unlimited{SolveBudget{}};
    TwoOptImprove(inst, &tour, unlimited);
    EXPECT_TRUE(IsValidTour(inst, tour));
    OrOptImprove(inst, &tour, unlimited);
    EXPECT_TRUE(IsValidTour(inst, tour));
    EXPECT_LE(TourCost(inst, tour), before);
  }
}

TEST(LocalSearchTest, ImprovementCountMatchesCostDelta) {
  for (uint64_t seed = 20; seed <= 30; ++seed) {
    const Tsp12Instance inst(RandomGraph(12, 0.3, seed));
    Tour tour = GreedyPathCoverTour(inst, seed);
    const int64_t before = TourCost(inst, tour);
    BudgetContext unlimited{SolveBudget{}};
    const int64_t removed = LocalSearchImprove(inst, &tour, unlimited);
    EXPECT_EQ(before - TourCost(inst, tour), removed);
  }
}

TEST(LocalSearchTest, FixesAnObviousTwoOptMove) {
  // Good path 0-1-2-3-4-5 with tour 0,1,3,2,4,5: reversing [2..3] fixes it.
  Graph good(6);
  for (int i = 0; i + 1 < 6; ++i) good.AddEdge(i, i + 1);
  const Tsp12Instance inst(good);
  Tour tour{0, 1, 3, 2, 4, 5};
  BudgetContext unlimited{SolveBudget{}};
  TwoOptImprove(inst, &tour, unlimited);
  EXPECT_EQ(TourJumps(inst, tour), 0);
}

TEST(HeldKarpTest, MatchesBruteForceOnSmallInstances) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const Tsp12Instance inst(RandomGraph(7, 0.3, seed));
    BudgetContext unlimited{SolveBudget{}};
    const auto result = HeldKarpSolve(inst, unlimited);
    ASSERT_TRUE(result.has_value());
    EXPECT_TRUE(IsValidTour(inst, result->tour));
    EXPECT_EQ(TourJumps(inst, result->tour), result->jumps);
    EXPECT_EQ(result->jumps, BruteForceJumps(inst)) << seed;
  }
}

TEST(HeldKarpTest, KnownOptima) {
  BudgetContext unlimited{SolveBudget{}};
  // Complete good graph: zero jumps.
  EXPECT_EQ(
      HeldKarpSolve(Tsp12Instance(CompleteGraph(8)), unlimited)->jumps, 0);
  // Empty good graph on n nodes: n−1 jumps.
  EXPECT_EQ(HeldKarpSolve(Tsp12Instance(Graph(6)), unlimited)->jumps, 5);
  // Cycle: zero jumps.
  EXPECT_EQ(HeldKarpSolve(Tsp12Instance(CycleGraph(9)), unlimited)->jumps, 0);
}

TEST(HeldKarpTest, RefusesOversizedInstances) {
  BudgetContext unlimited{SolveBudget{}};
  EXPECT_FALSE(
      HeldKarpSolve(Tsp12Instance(Graph(kMaxHeldKarpNodes + 1)), unlimited)
          .has_value());
}

TEST(HeldKarpTest, TrivialSizes) {
  BudgetContext unlimited{SolveBudget{}};
  EXPECT_EQ(HeldKarpSolve(Tsp12Instance(Graph(0)), unlimited)->cost, 0);
  EXPECT_EQ(HeldKarpSolve(Tsp12Instance(Graph(1)), unlimited)->cost, 0);
}

TEST(BranchAndBoundTest, MatchesHeldKarp) {
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    const Tsp12Instance inst(RandomGraph(11, 0.25, seed));
    BudgetContext unlimited{SolveBudget{}};
    const auto hk = HeldKarpSolve(inst, unlimited);
    const BranchAndBoundResult bnb =
        BranchAndBoundSolve(inst, BranchAndBoundOptions{}, unlimited);
    ASSERT_TRUE(hk.has_value());
    EXPECT_TRUE(bnb.proven_optimal);
    EXPECT_TRUE(IsValidTour(inst, bnb.best.tour));
    EXPECT_EQ(bnb.best.jumps, hk->jumps) << seed;
  }
}

TEST(BranchAndBoundTest, SolvesBeyondHeldKarpLimit) {
  // A structured 26-node instance: two disjoint 13-cycles need one jump.
  Graph good(26);
  for (int i = 0; i < 13; ++i) good.AddEdge(i, (i + 1) % 13);
  for (int i = 0; i < 13; ++i) good.AddEdge(13 + i, 13 + (i + 1) % 13);
  const Tsp12Instance inst(good);
  BudgetContext unlimited{SolveBudget{}};
  const BranchAndBoundResult r =
      BranchAndBoundSolve(inst, BranchAndBoundOptions{}, unlimited);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_TRUE(IsValidTour(inst, r.best.tour));
  EXPECT_EQ(r.best.jumps, 1);
}

}  // namespace
}  // namespace pebblejoin
