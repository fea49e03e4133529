// Fault-injection tests for cooperative cancellation and the degradation
// ladder: every solver must terminate promptly under an already-expired
// deadline, budget-cut incumbents must always verify, and the
// FallbackPebbler must emit a verifier-accepted scheme no matter which
// ceilings bind.

#include "solver/fallback_pebbler.h"

#include <vector>

#include "graph/generators.h"
#include "gtest/gtest.h"
#include "pebble/cost_model.h"
#include "pebble/pebbling_scheme.h"
#include "pebble/scheme_verifier.h"
#include "solver/dfs_tree_pebbler.h"
#include "solver/exact_pebbler.h"
#include "solver/greedy_walk_pebbler.h"
#include "solver/ils_pebbler.h"
#include "solver/local_search_pebbler.h"
#include "solver/sort_merge_pebbler.h"
#include "util/budget.h"

namespace pebblejoin {
namespace {

bool OrderIsValid(const Graph& g, const std::vector<int>& order) {
  if (static_cast<int>(order.size()) != g.num_edges()) return false;
  return VerifyScheme(g, SchemeFromEdgeOrder(g, order)).valid;
}

// Every solver, polled with an already-expired deadline, must return on its
// first poll: either a typed refusal (nullopt) or a valid order.
TEST(ExpiredDeadlineTest, EverySolverReturnsPromptly) {
  const ExactPebbler exact;
  const IlsPebbler ils;
  const LocalSearchPebbler local_search;
  const DfsTreePebbler dfs_tree;
  const GreedyWalkPebbler greedy;
  const SortMergePebbler sort_merge;
  const FallbackPebbler fallback;
  const std::vector<const Pebbler*> solvers = {
      &exact, &ils, &local_search, &dfs_tree,
      &greedy, &sort_merge, &fallback};

  const Graph g = WorstCaseFamily(8).ToGraph();
  for (const Pebbler* solver : solvers) {
    FakeClock clock;
    SolveBudget budget;
    budget.deadline_ms = 0;  // expired before the solve starts
    BudgetContext ctx(budget, &clock);
    const auto order = solver->PebbleConnected(g, &ctx);
    if (order.has_value()) {
      EXPECT_TRUE(OrderIsValid(g, *order)) << solver->name();
    } else {
      EXPECT_EQ(ctx.stop_reason(), BudgetStop::kDeadlineExpired)
          << solver->name();
    }
  }
}

TEST(ExpiredDeadlineTest, LadderStillEmitsValidScheme) {
  const FallbackPebbler fallback;
  const Graph g = WorstCaseFamily(8).ToGraph();
  FakeClock clock;
  SolveBudget budget;
  budget.deadline_ms = 0;
  BudgetContext ctx(budget, &clock);
  SolveOutcome outcome;
  const auto order = fallback.PebbleWithOutcome(g, &ctx, &outcome);
  ASSERT_TRUE(order.has_value());
  EXPECT_TRUE(OrderIsValid(g, *order));
  // The budgeted rungs were all cut by the deadline; the unbudgeted
  // dfs-tree terminator answered.
  EXPECT_EQ(outcome.winner, "dfs-tree");
  EXPECT_TRUE(outcome.degraded());
  EXPECT_EQ(outcome.degradation, RungStatus::kDeadlineExpired);
  ASSERT_GE(outcome.attempts.size(), 2u);
  EXPECT_EQ(outcome.attempts.front().solver, "exact");
  EXPECT_EQ(outcome.attempts.front().status, RungStatus::kDeadlineExpired);
  EXPECT_EQ(outcome.attempts.back().status, RungStatus::kCompleted);
  // Theorem 3.1: the terminator still honors m + floor((m-1)/4).
  const int64_t m = g.num_edges();
  EXPECT_LE(outcome.effective_cost, m + (m - 1) / 4);
  EXPECT_GE(outcome.effective_cost, outcome.lower_bound);
}

TEST(ExpiredDeadlineTest, MemoryCapDescendsToGreedySafetyNet) {
  // Deadline cuts the budgeted rungs AND the memory ceiling is too small to
  // materialize L(G) for the terminator: only the greedy walk remains.
  const FallbackPebbler fallback;
  const Graph g = StarGraph(40).ToGraph();  // L(G) = K_40, 780 line edges
  FakeClock clock;
  SolveBudget budget;
  budget.deadline_ms = 0;
  budget.memory_limit_bytes = 1024;  // 64 line-graph edges at most
  BudgetContext ctx(budget, &clock);
  SolveOutcome outcome;
  const auto order = fallback.PebbleWithOutcome(g, &ctx, &outcome);
  ASSERT_TRUE(order.has_value());
  EXPECT_TRUE(OrderIsValid(g, *order));
  EXPECT_EQ(outcome.winner, "greedy-walk");
  EXPECT_TRUE(outcome.degraded());
  // Provenance names both cuts: the deadline on the way down, then the
  // memory cap on the terminator.
  bool saw_memory_cap = false;
  for (const RungAttempt& attempt : outcome.attempts) {
    if (attempt.status == RungStatus::kMemoryCapped) saw_memory_cap = true;
  }
  EXPECT_TRUE(saw_memory_cap);
  // Greedy walk guarantee: at most 2m.
  EXPECT_LE(outcome.effective_cost, 2 * g.num_edges());
}

TEST(NodeBudgetTest, ExactDeclinesAndLadderRecovers) {
  // This random instance has m = 26 > kMaxHeldKarpNodes, so exact dispatches
  // to branch and bound — and unlike the worst-case family (whose deficiency
  // bound closes the gap at the root), proving it needs hundreds of search
  // nodes, so the 10-node budget genuinely exhausts mid-search.
  FallbackPebbler::Options options;
  options.exact.bnb_node_budget = 10;
  const FallbackPebbler fallback(options);
  const Graph g = RandomConnectedBipartite(7, 7, 26, 9).ToGraph();
  BudgetContext ctx{SolveBudget{}};
  SolveOutcome outcome;
  const auto order = fallback.PebbleWithOutcome(g, &ctx, &outcome);
  ASSERT_TRUE(order.has_value());
  EXPECT_TRUE(OrderIsValid(g, *order));
  ASSERT_FALSE(outcome.attempts.empty());
  EXPECT_EQ(outcome.attempts.front().solver, "exact");
  EXPECT_EQ(outcome.attempts.front().status, RungStatus::kBudgetExhausted);
  EXPECT_EQ(outcome.degradation, RungStatus::kBudgetExhausted);
  EXPECT_EQ(outcome.winner, "ils");  // next rung down answered
  EXPECT_FALSE(outcome.optimal);
}

TEST(NodeBudgetTest, SharedBudgetStopsBranchAndBound) {
  const ExactPebbler exact;
  const Graph g = RandomConnectedBipartite(7, 7, 26, 9).ToGraph();
  SolveBudget budget;
  budget.node_budget = 5;
  BudgetContext ctx(budget);
  SolveOutcome outcome;
  const auto order = exact.PebbleWithOutcome(g, &ctx, &outcome);
  // An exact solver never returns an unproven incumbent.
  EXPECT_FALSE(order.has_value());
  EXPECT_EQ(ctx.stop_reason(), BudgetStop::kNodeBudgetExhausted);
  EXPECT_EQ(outcome.status, RungStatus::kBudgetExhausted);
}

TEST(MemoryCapTest, DfsTreeDeclinesWithTypedStatus) {
  const DfsTreePebbler dfs;
  const Graph g = StarGraph(40).ToGraph();
  SolveBudget budget;
  budget.memory_limit_bytes = 1024;
  BudgetContext ctx(budget);
  SolveOutcome outcome;
  const auto order = dfs.PebbleWithOutcome(g, &ctx, &outcome);
  EXPECT_FALSE(order.has_value());
  EXPECT_EQ(outcome.status, RungStatus::kMemoryCapped);
  EXPECT_FALSE(ctx.stopped());  // a decline is not a request-wide stop
}

TEST(MemoryCapTest, HeldKarpRefusesOversizedTable) {
  // 22 edges need a 2^22 * 22 byte table; a 1 MiB ceiling refuses it and
  // the exact solver falls through to branch and bound, which still proves
  // optimality on this small instance.
  const ExactPebbler exact;
  const Graph g = PathGraph(22).ToGraph();
  SolveBudget budget;
  budget.memory_limit_bytes = int64_t{1} << 20;
  BudgetContext ctx(budget);
  const auto order = exact.PebbleConnected(g, &ctx);
  ASSERT_TRUE(order.has_value());
  EXPECT_TRUE(OrderIsValid(g, *order));
  // A path is pebbled end to end with zero jumps.
  EXPECT_EQ(JumpsOfEdgeOrder(g, *order), 0);
}

// Forced expiry at every poll index: whatever the cut point, a solver
// either refuses or returns a verifier-valid order — never a partial one.
TEST(ForcedExpiryTest, IncumbentsAreNeverInvalid) {
  const IlsPebbler ils;
  const LocalSearchPebbler local_search;
  const GreedyWalkPebbler greedy;
  const std::vector<const Pebbler*> solvers = {&ils, &local_search, &greedy};
  const Graph g = WorstCaseFamily(6).ToGraph();
  for (const Pebbler* solver : solvers) {
    for (int64_t cut : {1, 2, 3, 5, 8, 13, 21, 50, 200, 1000}) {
      BudgetContext ctx{SolveBudget{}};
      ctx.ForceExpireAfterPolls(cut);
      const auto order = solver->PebbleConnected(g, &ctx);
      if (order.has_value()) {
        EXPECT_TRUE(OrderIsValid(g, *order))
            << solver->name() << " cut at poll " << cut;
      }
    }
  }
}

TEST(ForcedExpiryTest, LadderSurvivesEveryCutPoint) {
  const FallbackPebbler fallback;
  const Graph g = WorstCaseFamily(6).ToGraph();
  for (int64_t cut : {1, 2, 3, 5, 8, 13, 21, 50, 200, 1000}) {
    BudgetContext ctx{SolveBudget{}};
    ctx.ForceExpireAfterPolls(cut);
    SolveOutcome outcome;
    const auto order = fallback.PebbleWithOutcome(g, &ctx, &outcome);
    ASSERT_TRUE(order.has_value()) << "cut at poll " << cut;
    EXPECT_TRUE(OrderIsValid(g, *order)) << "cut at poll " << cut;
    EXPECT_FALSE(outcome.winner.empty());
  }
}

TEST(FallbackTest, UnbudgetedSmallInstanceIsOptimal) {
  const FallbackPebbler fallback;
  const Graph g = WorstCaseFamily(4).ToGraph();  // m = 8, exact territory
  SolveOutcome outcome;
  const auto order = fallback.PebbleWithOutcome(g, nullptr, &outcome);
  ASSERT_TRUE(order.has_value());
  EXPECT_TRUE(OrderIsValid(g, *order));
  EXPECT_EQ(outcome.winner, "exact");
  EXPECT_TRUE(outcome.optimal);
  EXPECT_FALSE(outcome.degraded());
  ASSERT_EQ(outcome.attempts.size(), 1u);
  EXPECT_EQ(outcome.attempts[0].status, RungStatus::kOptimal);
  // Theorem 3.3: pi(G_n) = 2.5 n - 1.
  EXPECT_EQ(outcome.effective_cost, 9);
}

TEST(FallbackTest, OversizedInstanceFallsToHeuristics) {
  FallbackPebbler::Options options;
  options.exact.max_edges = 10;
  const FallbackPebbler fallback(options);
  const Graph g = WorstCaseFamily(10).ToGraph();  // m = 20 > max_edges
  SolveOutcome outcome;
  const auto order = fallback.PebbleWithOutcome(g, nullptr, &outcome);
  ASSERT_TRUE(order.has_value());
  EXPECT_TRUE(OrderIsValid(g, *order));
  EXPECT_EQ(outcome.attempts.front().status, RungStatus::kUnsupported);
  EXPECT_EQ(outcome.winner, "ils");
  // Declining on size is the normal regime for heuristics, not degradation.
  EXPECT_FALSE(outcome.degraded());
}

TEST(FallbackTest, SummaryNamesRungsAndWinner) {
  const FallbackPebbler fallback;
  const Graph g = WorstCaseFamily(8).ToGraph();
  FakeClock clock;
  SolveBudget budget;
  budget.deadline_ms = 0;
  BudgetContext ctx(budget, &clock);
  SolveOutcome outcome;
  ASSERT_TRUE(fallback.PebbleWithOutcome(g, &ctx, &outcome).has_value());
  const std::string summary = outcome.Summary();
  EXPECT_NE(summary.find("exact:deadline-expired"), std::string::npos)
      << summary;
  EXPECT_NE(summary.find("winner dfs-tree"), std::string::npos) << summary;
  EXPECT_NE(summary.find("degraded: deadline-expired"), std::string::npos)
      << summary;
}

}  // namespace
}  // namespace pebblejoin
