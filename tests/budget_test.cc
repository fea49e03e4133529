#include "util/budget.h"

#include "graph/features.h"
#include "gtest/gtest.h"
#include "obs/log.h"
#include "obs/solve_stats.h"
#include "obs/trace.h"

namespace pebblejoin {
namespace {

TEST(SolveBudgetTest, DefaultsAreUnlimited) {
  const SolveBudget budget;
  EXPECT_FALSE(budget.has_deadline());
  EXPECT_FALSE(budget.has_node_budget());
  EXPECT_FALSE(budget.has_memory_limit());
}

TEST(BudgetContextTest, UnlimitedNeverStops) {
  BudgetContext ctx{SolveBudget{}};
  for (int i = 0; i < 3 * BudgetContext::kPollStride; ++i) {
    EXPECT_FALSE(ctx.Expired());
  }
  EXPECT_TRUE(ctx.ChargeNodes(1'000'000'000));
  EXPECT_TRUE(ctx.FitsMemory(int64_t{1} << 50));
  EXPECT_FALSE(ctx.stopped());
}

TEST(BudgetContextTest, FirstPollCatchesAlreadyExpiredDeadline) {
  FakeClock clock;
  SolveBudget budget;
  budget.deadline_ms = 0;
  BudgetContext ctx(budget, clock.AsFunction());
  // The contract every solver's prompt-return guarantee rests on: an
  // already-expired deadline is noticed on the very first poll.
  EXPECT_TRUE(ctx.Expired());
  EXPECT_EQ(ctx.stop_reason(), BudgetStop::kDeadlineExpired);
}

TEST(BudgetContextTest, DeadlineExpiryIsSticky) {
  FakeClock clock;
  SolveBudget budget;
  budget.deadline_ms = 10;
  BudgetContext ctx(budget, clock.AsFunction());
  EXPECT_FALSE(ctx.Expired());
  clock.AdvanceMs(100);
  EXPECT_TRUE(ctx.ExpiredNow());
  // Stays expired without further clock movement.
  EXPECT_TRUE(ctx.Expired());
  EXPECT_TRUE(ctx.ExpiredNow());
  EXPECT_TRUE(ctx.stopped());
}

TEST(BudgetContextTest, AmortizedPollReadsClockEveryStride) {
  FakeClock clock;
  SolveBudget budget;
  budget.deadline_ms = 10;
  BudgetContext ctx(budget, clock.AsFunction());
  ASSERT_FALSE(ctx.Expired());  // first poll reads the clock
  clock.AdvanceMs(100);         // deadline now long gone
  // The next kPollStride - 1 polls are amortized away without a clock read.
  for (int i = 0; i < BudgetContext::kPollStride - 1; ++i) {
    EXPECT_FALSE(ctx.Expired()) << "poll " << i;
  }
  // The stride-th poll reads the clock and notices.
  EXPECT_TRUE(ctx.Expired());
}

TEST(BudgetContextTest, ExpiredNowBypassesAmortization) {
  FakeClock clock;
  SolveBudget budget;
  budget.deadline_ms = 10;
  BudgetContext ctx(budget, clock.AsFunction());
  ASSERT_FALSE(ctx.Expired());
  clock.AdvanceMs(11);
  EXPECT_TRUE(ctx.ExpiredNow());
}

TEST(BudgetContextTest, ElapsedMsFollowsClock) {
  FakeClock clock;
  BudgetContext ctx(SolveBudget{}, clock.AsFunction());
  EXPECT_EQ(ctx.ElapsedMs(), 0);
  clock.AdvanceMs(42);
  EXPECT_EQ(ctx.ElapsedMs(), 42);
}

TEST(BudgetContextTest, NodeBudgetExhausts) {
  SolveBudget budget;
  budget.node_budget = 10;
  BudgetContext ctx(budget);
  EXPECT_TRUE(ctx.ChargeNodes(4));
  EXPECT_TRUE(ctx.ChargeNodes(6));  // exactly at the budget: still fine
  EXPECT_FALSE(ctx.ChargeNodes(1));
  EXPECT_EQ(ctx.stop_reason(), BudgetStop::kNodeBudgetExhausted);
  EXPECT_EQ(ctx.nodes_charged(), 11);
  // A latched stop also answers deadline polls, so mixed loops unwind.
  EXPECT_TRUE(ctx.Expired());
}

TEST(BudgetContextTest, MemoryCeiling) {
  SolveBudget budget;
  budget.memory_limit_bytes = 1024;
  BudgetContext ctx(budget);
  EXPECT_TRUE(ctx.FitsMemory(1024));
  EXPECT_FALSE(ctx.FitsMemory(1025));
  EXPECT_EQ(ctx.MemoryLimitOr(777), 1024);
  BudgetContext unlimited{SolveBudget{}};
  EXPECT_EQ(unlimited.MemoryLimitOr(777), 777);
}

TEST(BudgetContextTest, DeclineNotesReadAndClear) {
  BudgetContext ctx{SolveBudget{}};
  EXPECT_EQ(ctx.TakeDecline(), SolveDecline::kNone);
  ctx.NoteMemoryDecline();
  EXPECT_EQ(ctx.TakeDecline(), SolveDecline::kMemoryCapped);
  EXPECT_EQ(ctx.TakeDecline(), SolveDecline::kNone);  // cleared
  ctx.NoteDecline(SolveDecline::kLocalBudgetExhausted);
  EXPECT_EQ(ctx.TakeDecline(), SolveDecline::kLocalBudgetExhausted);
  // Declines never latch a stop: they are per-solver, not per-request.
  EXPECT_FALSE(ctx.stopped());
}

TEST(BudgetContextTest, ForceExpireAfterPolls) {
  BudgetContext ctx{SolveBudget{}};  // no deadline at all
  ctx.ForceExpireAfterPolls(3);
  EXPECT_FALSE(ctx.Expired());
  EXPECT_FALSE(ctx.Expired());
  EXPECT_TRUE(ctx.Expired());  // third poll
  EXPECT_EQ(ctx.stop_reason(), BudgetStop::kDeadlineExpired);
}

TEST(BudgetContextTest, ChildKeepsEverythingButTheBudget) {
  // One way to run a sub-solve under other limits: the child carries every
  // sink, the perf flag, the features and the clock; only the budget (and
  // the accounting that belongs to it) is new.
  FakeClock clock;
  SolveBudget parent_budget;
  parent_budget.node_budget = 5;
  BudgetContext parent(parent_budget, clock.AsFunction());
  SolveStats stats;
  TraceSession trace;
  EventLog log(/*capacity=*/8, [] { return int64_t{0}; });
  const GraphFeatures features;
  parent.set_stats(&stats);
  parent.set_trace(&trace);
  parent.set_log(&log);
  parent.set_perf_enabled(true);
  parent.set_features(&features);
  ASSERT_TRUE(parent.ChargeNodes(3));
  clock.AdvanceMs(40);

  SolveBudget capped;
  capped.deadline_ms = 10;
  BudgetContext child = parent.Child(capped);
  EXPECT_EQ(child.stats(), &stats);
  EXPECT_EQ(child.trace(), &trace);
  EXPECT_EQ(child.log(), &log);
  EXPECT_TRUE(child.perf_enabled());
  EXPECT_EQ(child.features(), &features);
  EXPECT_EQ(child.budget().deadline_ms, 10);
  EXPECT_FALSE(child.budget().has_node_budget());
  EXPECT_EQ(child.nodes_charged(), 0);
  EXPECT_EQ(child.polls(), 0);

  // The deadline runs on the parent's injected clock, counted from the
  // moment the child was made.
  EXPECT_FALSE(child.ExpiredNow());
  clock.AdvanceMs(9);
  EXPECT_FALSE(child.ExpiredNow());
  clock.AdvanceMs(1);
  EXPECT_TRUE(child.ExpiredNow());
  EXPECT_EQ(child.stop_reason(), BudgetStop::kDeadlineExpired);
  // The child's stop stays its own.
  EXPECT_FALSE(parent.stopped());
}

TEST(BudgetStopTest, Names) {
  EXPECT_STREQ(BudgetStopName(BudgetStop::kNone), "none");
  EXPECT_STREQ(BudgetStopName(BudgetStop::kDeadlineExpired),
               "deadline-expired");
  EXPECT_STREQ(BudgetStopName(BudgetStop::kNodeBudgetExhausted),
               "node-budget-exhausted");
}

}  // namespace
}  // namespace pebblejoin
