#include "solver/component_pebbler.h"

#include <utility>
#include <vector>

#include "graph/components.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "pebble/scheme_verifier.h"
#include "solver/exact_pebbler.h"
#include "solver/fallback_pebbler.h"
#include "solver/greedy_walk_pebbler.h"
#include "solver/local_search_pebbler.h"
#include "solver/sort_merge_pebbler.h"
#include "util/budget.h"
#include "util/ordered_window.h"
#include "util/thread_pool.h"

namespace pebblejoin {
namespace {

TEST(ComponentPebblerTest, SolvesDisconnectedGraphs) {
  const GreedyWalkPebbler greedy;
  const ComponentPebbler driver(&greedy, nullptr);
  const BipartiteGraph u =
      DisjointUnion(CompleteBipartite(2, 3), PathGraph(4));
  const Graph g = u.ToGraph();
  const PebbleSolution solution = driver.Solve(g);
  EXPECT_EQ(solution.num_components, 2);
  EXPECT_TRUE(VerifyScheme(g, solution.scheme).valid);
  EXPECT_EQ(solution.effective_cost, solution.hat_cost - 2);
}

TEST(ComponentPebblerTest, FallbackKicksInPerComponent) {
  const SortMergePebbler sort_merge;
  const GreedyWalkPebbler greedy;
  const ComponentPebbler driver(&sort_merge, &greedy);
  // One complete-bipartite component, one path (sort-merge refuses it).
  const BipartiteGraph u =
      DisjointUnion(CompleteBipartite(2, 2), PathGraph(3));
  const PebbleSolution solution = driver.Solve(u.ToGraph());
  ASSERT_EQ(solution.outcomes.size(), 2u);
  EXPECT_EQ(solution.outcomes[0].winner, "sort-merge");
  EXPECT_EQ(solution.outcomes[1].winner, "greedy-walk");
}

TEST(ComponentPebblerDeathTest, NoFallbackAborts) {
  const SortMergePebbler sort_merge;
  const ComponentPebbler driver(&sort_merge, nullptr);
  EXPECT_DEATH(driver.Solve(PathGraph(3).ToGraph()), "no fallback");
}

TEST(ComponentPebblerTest, EmptyGraph) {
  const GreedyWalkPebbler greedy;
  const ComponentPebbler driver(&greedy, nullptr);
  const PebbleSolution solution = driver.Solve(Graph(5));
  EXPECT_EQ(solution.num_components, 0);
  EXPECT_TRUE(solution.edge_order.empty());
  EXPECT_EQ(solution.hat_cost, 0);
}

TEST(ComponentPebblerTest, AdditivityWithExactSolver) {
  // Lemma 2.2: π(G ⊎ H) = π(G) + π(H). Verified with the exact solver on
  // random unions.
  const ExactPebbler exact;
  const GreedyWalkPebbler greedy;
  const ComponentPebbler driver(&exact, &greedy);
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const BipartiteGraph a = RandomConnectedBipartite(3, 3, 6, seed);
    const BipartiteGraph b = RandomConnectedBipartite(3, 4, 8, seed + 100);
    const auto pa = exact.OptimalEffectiveCost(a.ToGraph());
    const auto pb = exact.OptimalEffectiveCost(b.ToGraph());
    ASSERT_TRUE(pa.has_value() && pb.has_value());
    const PebbleSolution joint = driver.Solve(DisjointUnion(a, b).ToGraph());
    EXPECT_EQ(joint.effective_cost, *pa + *pb) << seed;
  }
}

TEST(ComponentPebblerTest, MatchingCosts) {
  // Lemma 2.4: a matching with m edges has π̂ = 2m and π = m.
  const GreedyWalkPebbler greedy;
  const ComponentPebbler driver(&greedy, nullptr);
  for (int m = 1; m <= 6; ++m) {
    const PebbleSolution s = driver.Solve(MatchingGraph(m).ToGraph());
    EXPECT_EQ(s.hat_cost, 2 * m);
    EXPECT_EQ(s.effective_cost, m);
  }
}

TEST(ComponentPebblerTest, MixedSuccessRecordsPerComponentOutcomes) {
  const SortMergePebbler sort_merge;
  const GreedyWalkPebbler greedy;
  const ComponentPebbler driver(&sort_merge, &greedy);
  // sort-merge handles the complete-bipartite component, refuses the path
  // and the star-with-pendant; provenance must tell the components apart.
  const BipartiteGraph u = DisjointUnion(
      DisjointUnion(CompleteBipartite(2, 2), PathGraph(3)), WorstCaseFamily(3));
  const Graph g = u.ToGraph();
  const PebbleSolution solution = driver.Solve(g);
  EXPECT_TRUE(VerifyScheme(g, solution.scheme).valid);
  ASSERT_EQ(solution.outcomes.size(), 3u);
  EXPECT_EQ(solution.outcomes[0].winner, "sort-merge");
  EXPECT_EQ(solution.outcomes[0].status, RungStatus::kCompleted);
  ASSERT_EQ(solution.outcomes[0].attempts.size(), 1u);
  // The refused components carry both attempts: the typed refusal and the
  // fallback's success.
  for (int c : {1, 2}) {
    EXPECT_EQ(solution.outcomes[c].winner, "greedy-walk") << c;
    ASSERT_EQ(solution.outcomes[c].attempts.size(), 2u) << c;
    EXPECT_EQ(solution.outcomes[c].attempts[0].solver, "sort-merge");
    EXPECT_EQ(solution.outcomes[c].attempts[0].status,
              RungStatus::kUnsupported);
    EXPECT_EQ(solution.outcomes[c].attempts[1].solver, "greedy-walk");
  }
}

TEST(ComponentPebblerTest, ExpiredDeadlineStillSolvesEveryComponent) {
  const LocalSearchPebbler local;
  const GreedyWalkPebbler greedy;
  const ComponentPebbler driver(&local, &greedy);
  const BipartiteGraph u =
      DisjointUnion(WorstCaseFamily(4), CompleteBipartite(3, 3));
  const Graph g = u.ToGraph();
  FakeClock clock;
  SolveBudget budget;
  budget.deadline_ms = 0;
  BudgetContext ctx(budget, &clock);
  // The fallback runs unbudgeted, so the whole request still terminates
  // with a verified scheme.
  const PebbleSolution solution = driver.Solve(g, &ctx);
  EXPECT_TRUE(VerifyScheme(g, solution.scheme).valid);
  ASSERT_EQ(solution.outcomes.size(), 2u);
  for (const SolveOutcome& outcome : solution.outcomes) {
    EXPECT_EQ(outcome.winner, "greedy-walk");
    EXPECT_EQ(outcome.attempts.front().status, RungStatus::kDeadlineExpired);
  }
}

TEST(ComponentPebblerTest, FallbackLadderAsPrimaryReportsWinningRung) {
  const FallbackPebbler ladder;
  const GreedyWalkPebbler greedy;
  const ComponentPebbler driver(&ladder, &greedy);
  const BipartiteGraph u =
      DisjointUnion(CompleteBipartite(2, 2), PathGraph(3));
  const PebbleSolution solution = driver.Solve(u.ToGraph());
  ASSERT_EQ(solution.outcomes.size(), 2u);
  // Both components are tiny, so the exact rung wins and the winner names
  // the rung, not the ladder wrapper.
  EXPECT_EQ(solution.outcomes[0].winner, "exact");
  EXPECT_EQ(solution.outcomes[1].winner, "exact");
  for (const SolveOutcome& outcome : solution.outcomes) {
    EXPECT_TRUE(outcome.optimal);
  }
}

TEST(ComponentPebblerTest, BorrowedPoolMatchesSequentialByteForByte) {
  // The engine's pool-reuse mode: fanning components across a borrowed
  // ThreadPool must yield the exact solution (order, scheme, costs,
  // provenance) of the sequential path.
  const LocalSearchPebbler local;
  const GreedyWalkPebbler greedy;
  const BipartiteGraph u = DisjointUnion(
      DisjointUnion(WorstCaseFamily(4), CompleteBipartite(3, 3)),
      DisjointUnion(PathGraph(5), StarGraph(4)));
  const Graph g = u.ToGraph();

  const ComponentPebbler sequential(&local, &greedy);
  const PebbleSolution base = sequential.Solve(g);

  ThreadPool shared(3);
  ComponentPebbler::Options borrowed;
  borrowed.threads = 3;
  borrowed.pool = &shared;
  const ComponentPebbler with_borrowed(&local, &greedy, borrowed);

  const PebbleSolution got = with_borrowed.Solve(g);
  EXPECT_EQ(got.edge_order, base.edge_order);
  EXPECT_EQ(got.hat_cost, base.hat_cost);
  EXPECT_EQ(got.effective_cost, base.effective_cost);
  ASSERT_EQ(got.outcomes.size(), base.outcomes.size());
  for (size_t c = 0; c < got.outcomes.size(); ++c) {
    EXPECT_EQ(got.outcomes[c].winner, base.outcomes[c].winner);
    EXPECT_EQ(got.outcomes[c].attempts.size(),
              base.outcomes[c].attempts.size());
  }
  // The borrowed pool survives the solves — it is not owned.
  EXPECT_EQ(shared.num_threads(), 3);
}

TEST(ComponentPebblerDeathTest, FanOutWithoutPoolAborts) {
  // The driver never builds a pool of its own: threads > 1 needs one lent.
  const GreedyWalkPebbler greedy;
  ComponentPebbler::Options options;
  options.threads = 2;
  EXPECT_DEATH(ComponentPebbler(&greedy, nullptr, options),
               "needs a borrowed pool");
}

TEST(ComponentPebblerTest, BorrowedPoolIsDroppedOnPoolWorkers) {
  // A Solve issued from inside a pool worker must not fan out into the
  // same pool (the worker would wait on itself). It degrades to the
  // sequential path — and still produces identical bytes.
  const GreedyWalkPebbler greedy;
  const BipartiteGraph u =
      DisjointUnion(CompleteBipartite(2, 3), PathGraph(4));
  const Graph g = u.ToGraph();
  const ComponentPebbler sequential(&greedy, nullptr);
  const PebbleSolution base = sequential.Solve(g);

  ThreadPool pool(2);
  ComponentPebbler::Options borrowed;
  borrowed.threads = 2;
  borrowed.pool = &pool;
  const ComponentPebbler nested(&greedy, nullptr, borrowed);
  OrderedWindow<PebbleSolution> window(&pool);
  window.Submit([&] { return nested.Solve(g); });
  const PebbleSolution from_worker = window.Take();
  EXPECT_EQ(from_worker.edge_order, base.edge_order);
  EXPECT_EQ(from_worker.effective_cost, base.effective_cost);
}

// --- The fan-out's task cut ---------------------------------------------

// A decomposition with the given component sizes, in edges; the cut reads
// nothing else.
ComponentDecomposition SizedComponents(const std::vector<int>& sizes) {
  ComponentDecomposition decomp;
  decomp.num_components = static_cast<int>(sizes.size());
  int next_edge = 0;
  for (int size : sizes) {
    std::vector<int> edges(static_cast<size_t>(size));
    for (int& e : edges) e = next_edge++;
    decomp.edges_of.push_back(std::move(edges));
  }
  return decomp;
}

TEST(CutFanoutTasksTest, RangesAreContiguousInOrderAndCoverEveryComponent) {
  const std::vector<int> sizes = {3, 1, 7, 2, 2, 40, 1, 1, 5, 9, 2, 6, 1};
  for (int workers : {1, 2, 3, 4, 8, 64}) {
    const std::vector<int> bounds =
        CutFanoutTasks(SizedComponents(sizes), workers);
    ASSERT_GE(bounds.size(), 2u) << "workers=" << workers;
    EXPECT_EQ(bounds.front(), 0);
    EXPECT_EQ(bounds.back(), static_cast<int>(sizes.size()));
    for (size_t t = 0; t + 1 < bounds.size(); ++t) {
      EXPECT_LT(bounds[t], bounds[t + 1]) << "workers=" << workers;
    }
  }
}

TEST(CutFanoutTasksTest, HeavyComponentFormsItsOwnTask) {
  // m = 106 on 4 workers: tasks close at ⌈106 / 16⌉ = 7 edges, and the
  // 100-edge component at index 3 does not share its task.
  const std::vector<int> bounds =
      CutFanoutTasks(SizedComponents({1, 1, 1, 100, 1, 1, 1}), 4);
  EXPECT_EQ(bounds, (std::vector<int>{0, 3, 4, 7}));
}

TEST(CutFanoutTasksTest, EqualComponentsGiveFourTasksPerWorker) {
  const ComponentDecomposition decomp =
      SizedComponents(std::vector<int>(1024, 14));
  EXPECT_EQ(CutFanoutTasks(decomp, 4).size() - 1, 16u);
  EXPECT_EQ(CutFanoutTasks(decomp, 1).size() - 1, 4u);
  // More tasks wanted than components: one component per task.
  EXPECT_EQ(CutFanoutTasks(SizedComponents({2, 2, 2}), 8),
            (std::vector<int>{0, 1, 2, 3}));
}

TEST(CutFanoutTasksTest, NoComponentsNoTasks) {
  EXPECT_EQ(CutFanoutTasks(ComponentDecomposition{}, 4),
            (std::vector<int>{0}));
}

TEST(ComponentPebblerTest, StagedSeamsComposeToSolve) {
  // The pipeline seams — FindComponents, SolveDecomposed, VerifyAndCost —
  // composed by hand must equal the one-call Solve.
  const GreedyWalkPebbler greedy;
  const ComponentPebbler driver(&greedy, nullptr);
  const BipartiteGraph u =
      DisjointUnion(WorstCaseFamily(3), CompleteBipartite(2, 2));
  const Graph g = u.ToGraph();

  const ComponentDecomposition decomp = FindComponents(g);
  PebbleSolution staged = driver.SolveDecomposed(g, decomp, nullptr);
  // SolveDecomposed leaves verification to the verify stage.
  EXPECT_EQ(staged.hat_cost, 0);
  EXPECT_TRUE(staged.scheme.configs.empty());
  ComponentPebbler::VerifyAndCost(g, &staged);

  const PebbleSolution direct = driver.Solve(g);
  EXPECT_EQ(staged.edge_order, direct.edge_order);
  EXPECT_EQ(staged.hat_cost, direct.hat_cost);
  EXPECT_EQ(staged.effective_cost, direct.effective_cost);
  EXPECT_EQ(staged.jumps, direct.jumps);
  EXPECT_EQ(staged.num_components, direct.num_components);
  EXPECT_TRUE(VerifyScheme(g, staged.scheme).valid);
}

TEST(ComponentPebblerTest, EdgeOrderCoversOriginalIds) {
  const LocalSearchPebbler local;
  const GreedyWalkPebbler greedy;
  const ComponentPebbler driver(&local, &greedy);
  const BipartiteGraph u = DisjointUnion(
      DisjointUnion(PathGraph(3), StarGraph(4)), CompleteBipartite(2, 2));
  const Graph g = u.ToGraph();
  const PebbleSolution solution = driver.Solve(g);
  std::vector<bool> seen(g.num_edges(), false);
  for (int e : solution.edge_order) {
    ASSERT_GE(e, 0);
    ASSERT_LT(e, g.num_edges());
    EXPECT_FALSE(seen[e]);
    seen[e] = true;
  }
  EXPECT_EQ(static_cast<int>(solution.edge_order.size()), g.num_edges());
}

}  // namespace
}  // namespace pebblejoin
