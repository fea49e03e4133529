#include "util/budget.h"

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

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
  BudgetContext ctx(budget, &clock);
  // The contract every solver's prompt-return guarantee rests on: an
  // already-expired deadline is noticed on the very first poll.
  EXPECT_TRUE(ctx.Expired());
  EXPECT_EQ(ctx.stop_reason(), BudgetStop::kDeadlineExpired);
}

TEST(BudgetContextTest, DeadlineExpiryIsSticky) {
  FakeClock clock;
  SolveBudget budget;
  budget.deadline_ms = 10;
  BudgetContext ctx(budget, &clock);
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
  BudgetContext ctx(budget, &clock);
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
  BudgetContext ctx(budget, &clock);
  ASSERT_FALSE(ctx.Expired());
  clock.AdvanceMs(11);
  EXPECT_TRUE(ctx.ExpiredNow());
}

TEST(BudgetContextTest, ElapsedMsFollowsClock) {
  FakeClock clock;
  BudgetContext ctx(SolveBudget{}, &clock);
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
  BudgetContext parent(parent_budget, &clock);
  SolveStats stats;
  TraceSession trace;
  EventLog log(/*journal=*/nullptr, /*capacity=*/8);
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

  // Child and WorkerSlice both keep the injected clock: a slice counts
  // from its root's start, a child from the moment it was made, and a
  // slice of the child from the child's.
  BudgetContext parent_slice = parent.WorkerSlice();
  BudgetContext child_slice = child.WorkerSlice();
  EXPECT_EQ(parent_slice.ElapsedMs(), 40);
  EXPECT_EQ(child.ElapsedMs(), 0);
  EXPECT_EQ(child_slice.ElapsedMs(), 0);

  // The deadline runs on the parent's injected clock, counted from the
  // moment the child was made.
  EXPECT_FALSE(child.ExpiredNow());
  clock.AdvanceMs(9);
  EXPECT_FALSE(child.ExpiredNow());
  EXPECT_EQ(parent_slice.ElapsedMs(), 49);
  EXPECT_EQ(child_slice.ElapsedMs(), 9);
  clock.AdvanceMs(1);
  EXPECT_TRUE(child.ExpiredNow());
  EXPECT_EQ(child.stop_reason(), BudgetStop::kDeadlineExpired);
  // The child keeps a ledger of its own: its stop, time-to-stop and nodes
  // stay off the parent's.
  EXPECT_FALSE(child.ChargeNodes(4));
  EXPECT_FALSE(parent.stopped());
  EXPECT_EQ(parent.stopped_elapsed_ms(), -1);
  EXPECT_EQ(parent.nodes_charged(), 3);
}

TEST(BudgetContextTest, FoldChildAddsPollsAndNodesButNotTheStop) {
  SolveBudget budget;
  budget.node_budget = 10;
  BudgetContext root(budget);
  ASSERT_TRUE(root.ChargeNodes(4));
  SolveBudget capped;
  capped.deadline_ms = 0;
  BudgetContext child = root.Child(capped);
  EXPECT_TRUE(child.Expired());  // the child's own deadline
  EXPECT_FALSE(child.ChargeNodes(3));
  root.FoldChild(child);
  EXPECT_FALSE(root.stopped());  // the child's deadline stays its own
  EXPECT_EQ(root.nodes_charged(), 7);
  EXPECT_EQ(root.polls(), 1);
  // Folded nodes count against the root's budget.
  BudgetContext greedy = root.Child(SolveBudget{});
  ASSERT_TRUE(greedy.ChargeNodes(4));
  root.FoldChild(greedy);
  EXPECT_EQ(root.stop_reason(), BudgetStop::kNodeBudgetExhausted);
}

// --- FakeClock -------------------------------------------------------------

TEST(FakeClockTest, AdvancesWhileFourThreadsRead) {
  // The serve tests advance a FakeClock from the test thread while server
  // threads read it: every reader sees a monotone clock, and no advance
  // is lost.
  FakeClock clock;
  constexpr int kReaders = 4;
  constexpr int kAdvances = 20000;
  std::atomic<bool> done{false};
  std::atomic<int> backwards{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&clock, &done, &backwards] {
      int64_t last = 0;
      for (int reads = 0; reads < 1000 || !done.load(); ++reads) {
        const int64_t now = clock.NowUs();
        if (now < last) backwards.fetch_add(1);
        last = now;
      }
    });
  }
  for (int i = 0; i < kAdvances; ++i) clock.AdvanceUs(1);
  done.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(backwards.load(), 0);
  EXPECT_EQ(clock.NowUs(), kAdvances);
  EXPECT_EQ(clock.NowMs(), kAdvances / 1000);
  clock.AdvanceMs(3);
  EXPECT_EQ(clock.NowUs(), kAdvances + 3000);
}

// --- Worker slices: one ledger per request ---------------------------------

TEST(WorkerSliceTest, KeepsBudgetClockAndFlagsButNotTheSinks) {
  FakeClock clock;
  SolveBudget budget;
  budget.deadline_ms = 10;
  budget.node_budget = 5;
  BudgetContext root(budget, &clock);
  SolveStats stats;
  const GraphFeatures features;
  root.set_stats(&stats);
  root.set_perf_enabled(true);
  root.set_features(&features);
  clock.AdvanceMs(4);

  BudgetContext slice = root.WorkerSlice();
  EXPECT_EQ(slice.stats(), nullptr);
  EXPECT_EQ(slice.trace(), nullptr);
  EXPECT_EQ(slice.log(), nullptr);
  EXPECT_TRUE(slice.perf_enabled());
  EXPECT_EQ(slice.features(), &features);
  // The root's start time and deadline, unrebased: one absolute deadline.
  EXPECT_EQ(slice.budget().deadline_ms, 10);
  EXPECT_EQ(slice.ElapsedMs(), 4);
  EXPECT_FALSE(slice.ExpiredNow());
  clock.AdvanceMs(6);
  EXPECT_TRUE(slice.ExpiredNow());
  EXPECT_EQ(root.stop_reason(), BudgetStop::kDeadlineExpired);
}

TEST(WorkerSliceTest, SiblingAdoptsALatchedStop) {
  BudgetContext root{SolveBudget{}};
  BudgetContext a = root.WorkerSlice();
  BudgetContext b = root.WorkerSlice();
  a.ForceExpireAfterPolls(1);
  ASSERT_TRUE(a.Expired());
  // b never polled past a deadline of its own, yet it answers the stop on
  // its next poll and on a node charge.
  EXPECT_TRUE(b.stopped());
  EXPECT_TRUE(b.Expired());
  EXPECT_TRUE(b.ExpiredNow());
  EXPECT_FALSE(b.ChargeNodes(1));
  EXPECT_EQ(b.stop_reason(), BudgetStop::kDeadlineExpired);
  EXPECT_TRUE(root.stopped());
  // Each slice counts the poll on which it met the stop, and no later one.
  EXPECT_TRUE(b.Expired());
  EXPECT_EQ(root.polls(), 2);
}

TEST(WorkerSliceTest, NodeCeilingIsSharedAcrossSlices) {
  SolveBudget budget;
  budget.node_budget = 10;
  BudgetContext root(budget);
  BudgetContext a = root.WorkerSlice();
  BudgetContext b = root.WorkerSlice();
  EXPECT_TRUE(a.ChargeNodes(6));
  EXPECT_TRUE(b.ChargeNodes(4));  // 10 in all: exactly at the budget
  EXPECT_FALSE(b.ChargeNodes(1));  // alone, b spent 5 of 10
  EXPECT_EQ(root.stop_reason(), BudgetStop::kNodeBudgetExhausted);
  EXPECT_EQ(root.nodes_charged(), 11);
  EXPECT_FALSE(a.ChargeNodes(1));
  EXPECT_TRUE(a.Expired());
}

TEST(WorkerSliceTest, RootForcedExpiryReachesASlice) {
  BudgetContext root{SolveBudget{}};
  root.ForceExpireAfterPolls(3);
  BudgetContext a = root.WorkerSlice();
  BudgetContext b = root.WorkerSlice();
  EXPECT_FALSE(a.Expired());
  EXPECT_FALSE(b.Expired());
  EXPECT_TRUE(a.Expired());  // the request's third poll, whoever makes it
  EXPECT_EQ(root.stop_reason(), BudgetStop::kDeadlineExpired);
  EXPECT_TRUE(b.Expired());
  EXPECT_EQ(root.polls(), 4);
}

TEST(WorkerSliceTest, TimeToStopIsTheFirstLatchNotTheJoin) {
  FakeClock clock;
  SolveBudget budget;
  budget.deadline_ms = 5;
  BudgetContext root(budget, &clock);
  BudgetContext slice = root.WorkerSlice();
  clock.AdvanceMs(5);
  ASSERT_TRUE(slice.ExpiredNow());
  clock.AdvanceMs(45);  // the rest of the fan-out and the join
  EXPECT_TRUE(root.ExpiredNow());
  EXPECT_EQ(root.stopped_elapsed_ms(), 5);
}

TEST(WorkerSliceTest, ConcurrentSlicesShareOneLedger) {
  // Eight threads poll and charge slices of one root; the ThreadSanitizer
  // job runs this. Every poll and every node lands on the ledger, and the
  // node ceiling latches one stop for all of them.
  constexpr int kThreads = 8;
  constexpr int kPollsEach = 10'000;
  SolveBudget budget;
  budget.node_budget = kThreads * kPollsEach / 2;
  BudgetContext root(budget);
  std::vector<int64_t> stopped_polls(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&root, &stopped_polls, t] {
      BudgetContext slice = root.WorkerSlice();
      for (int i = 0; i < kPollsEach; ++i) {
        if (slice.Expired()) {
          ++stopped_polls[t];
          continue;
        }
        slice.ChargeNodes(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(root.stop_reason(), BudgetStop::kNodeBudgetExhausted);
  EXPECT_GE(root.stopped_elapsed_ms(), 0);
  EXPECT_GT(root.nodes_charged(), budget.node_budget);
  EXPECT_LE(root.nodes_charged(), budget.node_budget + kThreads);
  // Every poll that let a slice go on is on the ledger, plus at most one
  // per slice: the poll on which it met a stop latched by a sibling.
  int64_t answered_stopped = 0;
  for (int64_t n : stopped_polls) answered_stopped += n;
  const int64_t went_on = int64_t{kThreads} * kPollsEach - answered_stopped;
  EXPECT_GE(root.polls(), went_on);
  EXPECT_LE(root.polls(), went_on + kThreads);
}

// --- Poll counting: each context counts its own, and each poll lands once --

TEST(LedgerTest, SlicePollsReachTheRootWhenTheSliceIsDestroyed) {
  BudgetContext root{SolveBudget{}};
  {
    BudgetContext slice = root.WorkerSlice();
    for (int i = 0; i < 5; ++i) ASSERT_FALSE(slice.Expired());
    EXPECT_EQ(slice.polls(), 5);
    // Still pending on the slice: the hot path wrote nothing shared.
    EXPECT_EQ(root.polls(), 0);
  }
  EXPECT_EQ(root.polls(), 5);
}

TEST(LedgerTest, MovedContextsCountEachPollOnce) {
  BudgetContext root{SolveBudget{}};
  BudgetContext other_root{SolveBudget{}};
  {
    BudgetContext a = root.WorkerSlice();
    for (int i = 0; i < 3; ++i) ASSERT_FALSE(a.Expired());
    // Moving hands the pending polls over; the moved-from context writes
    // none when it is destroyed.
    BudgetContext b = std::move(a);
    ASSERT_FALSE(b.Expired());
    EXPECT_EQ(b.polls(), 4);

    // Move-assigning over a context writes its own pending polls to its
    // own ledger first, then takes the source's.
    BudgetContext c = other_root.WorkerSlice();
    for (int i = 0; i < 2; ++i) ASSERT_FALSE(c.Expired());
    c = std::move(b);
    EXPECT_EQ(other_root.polls(), 2);
    EXPECT_EQ(c.polls(), 4);
    ASSERT_FALSE(c.Expired());
  }
  EXPECT_EQ(root.polls(), 5);
  EXPECT_EQ(other_root.polls(), 2);
}

TEST(LedgerTest, FoldChildIncludesTheChildsPendingPolls) {
  BudgetContext root{SolveBudget{}};
  BudgetContext slice = root.WorkerSlice();
  BudgetContext child = slice.Child(SolveBudget{});
  for (int i = 0; i < 3; ++i) ASSERT_FALSE(child.Expired());
  slice.FoldChild(child);
  EXPECT_EQ(slice.polls(), 3);
  ASSERT_FALSE(slice.Expired());
  EXPECT_EQ(slice.polls(), 4);
}

TEST(LedgerTest, ForcedExpiryNumbersTheRequestsPollsAcrossThreads) {
  // While a forced-expiry point is armed every poll goes to the ledger, so
  // exactly the request's n-th poll latches, whichever thread makes it:
  // n - 1 polls answer false, then each thread's next poll answers true.
  constexpr int kThreads = 4;
  constexpr int64_t kForcedAt = 5'000;
  BudgetContext root{SolveBudget{}};
  root.ForceExpireAfterPolls(kForcedAt);
  std::vector<int64_t> went_on(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&root, &went_on, t] {
      BudgetContext slice = root.WorkerSlice();
      while (!slice.Expired()) ++went_on[t];
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(root.stop_reason(), BudgetStop::kDeadlineExpired);
  int64_t total_went_on = 0;
  for (int64_t n : went_on) total_went_on += n;
  EXPECT_EQ(total_went_on, kForcedAt - 1);
  EXPECT_EQ(root.polls(), kForcedAt - 1 + kThreads);
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
