// Unified solve budgets and cooperative cancellation.
//
// The exact solvers are the executable face of Theorem 4.2's NP-completeness:
// Held–Karp is O(2^n · n²) time and O(2^n · n) bytes, and branch and bound
// can blow past any node budget. A production request must never hang, OOM,
// or abort, so every solver hot loop polls one shared BudgetContext that
// enforces three independent ceilings:
//
//   - a wall-clock deadline, checked with a cheap amortized poll
//     (one real clock read every kPollStride calls to Expired());
//   - a node budget shared across all search trees of one request;
//   - a memory ceiling that solvers consult *before* their dominant
//     allocation (the Held–Karp table, the materialized line graph).
//
// Cancellation is cooperative: solvers poll, notice, and return either a
// valid incumbent or std::nullopt — they are never interrupted mid-update,
// so incumbents are always verifier-valid. For deterministic fault-injection
// tests the context accepts a fake clock (see FakeClock) and a forced-expiry
// point (ForceExpireAfterPolls).

#ifndef PEBBLEJOIN_UTIL_BUDGET_H_
#define PEBBLEJOIN_UTIL_BUDGET_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

namespace pebblejoin {

// Telemetry sinks (src/obs/). BudgetContext only carries the pointers —
// solvers that record through them include the obs headers themselves, so
// util stays dependency-free.
struct SolveStats;
class TraceSession;
class EventLog;
struct GraphFeatures;
class PerfCounterGroup;

// Why a budgeted solve was stopped early. kNone means "still running" (or
// finished within every ceiling).
enum class BudgetStop {
  kNone,
  kDeadlineExpired,
  kNodeBudgetExhausted,
};

// Why a solver *declined* an instance without stopping the whole request:
// its dominant allocation missed the memory ceiling, or a solver-local
// budget (e.g. ExactPebbler's own branch-and-bound node budget) ran dry.
// Distinct from BudgetStop — declining is per-solver and recoverable by a
// weaker rung of the fallback ladder.
enum class SolveDecline {
  kNone,
  kMemoryCapped,
  kLocalBudgetExhausted,
};

// Printable name, e.g. "deadline-expired".
inline const char* BudgetStopName(BudgetStop stop) {
  switch (stop) {
    case BudgetStop::kNone:
      return "none";
    case BudgetStop::kDeadlineExpired:
      return "deadline-expired";
    case BudgetStop::kNodeBudgetExhausted:
      return "node-budget-exhausted";
  }
  return "unknown";
}

// Declarative limits for one solve request. Negative means unlimited.
struct SolveBudget {
  static constexpr int64_t kUnlimited = -1;

  int64_t deadline_ms = kUnlimited;      // wall clock for the whole request
  int64_t node_budget = kUnlimited;      // search-tree nodes across solvers
  int64_t memory_limit_bytes = kUnlimited;  // per-allocation ceiling

  bool has_deadline() const { return deadline_ms >= 0; }
  bool has_node_budget() const { return node_budget >= 0; }
  bool has_memory_limit() const { return memory_limit_bytes >= 0; }
};

// A deterministic fake clock for fault-injection tests. Time only moves when
// the test calls AdvanceMs.
class FakeClock {
 public:
  int64_t NowMs() const { return now_ms_; }
  void AdvanceMs(int64_t ms) { now_ms_ += ms; }

  // A callable suitable for BudgetContext's clock parameter. The returned
  // function references this object, which must outlive the context.
  std::function<int64_t()> AsFunction() {
    return [this]() { return now_ms_; };
  }

 private:
  int64_t now_ms_ = 0;
};

// Thread-safe state shared by all BudgetContext slices of one parallel
// request (see BudgetContext::MakeWorkerSlice). It carries the three pieces
// of budget accounting that must be *global* across workers for one slow
// component not to starve the rest:
//
//   - the latched stop reason, so a deadline noticed by one worker cancels
//     every other worker at its next poll;
//   - the node count, so the request-wide node budget is a single shared
//     ceiling rather than a per-worker one;
//   - the poll count and forced-expiry point, so ForceExpireAfterPolls
//     fault injection reaches whichever worker polls next, exactly like the
//     single-threaded contract.
//
// All members are atomics; latching is first-writer-wins.
class SharedBudgetState {
 public:
  // Latches the stop reason; later latches with a different reason lose.
  void LatchStop(BudgetStop reason) {
    int expected = 0;
    stop_.compare_exchange_strong(expected, static_cast<int>(reason),
                                  std::memory_order_acq_rel,
                                  std::memory_order_acquire);
  }
  bool stopped() const {
    return stop_.load(std::memory_order_acquire) !=
           static_cast<int>(BudgetStop::kNone);
  }
  BudgetStop stop() const {
    return static_cast<BudgetStop>(stop_.load(std::memory_order_acquire));
  }

  // Adds `n` to the cross-worker node total and returns the new total.
  int64_t AddNodes(int64_t n) {
    return nodes_.fetch_add(n, std::memory_order_relaxed) + n;
  }
  int64_t nodes() const { return nodes_.load(std::memory_order_relaxed); }

  // Counts one Expired() poll from any slice and returns the new total.
  int64_t AddPoll() {
    return polls_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  int64_t polls() const { return polls_.load(std::memory_order_relaxed); }

  // Forces a deadline expiry on the `n`-th cross-slice poll from now
  // (n >= 1), regardless of the clock — the shared analogue of
  // BudgetContext::ForceExpireAfterPolls.
  void ForceExpireAfterPolls(int64_t n) {
    forced_expire_at_poll_.store(polls_.load(std::memory_order_relaxed) + n,
                                 std::memory_order_relaxed);
  }
  bool ForcedExpiryAt(int64_t poll) const {
    const int64_t at = forced_expire_at_poll_.load(std::memory_order_relaxed);
    return at >= 0 && poll >= at;
  }

 private:
  std::atomic<int64_t> nodes_{0};
  std::atomic<int64_t> polls_{0};
  std::atomic<int64_t> forced_expire_at_poll_{-1};
  std::atomic<int> stop_{static_cast<int>(BudgetStop::kNone)};
};

// Mutable per-request state threaded through every solver's hot loop. Not
// thread-safe: one context per request thread. Parallel drivers carve one
// *slice* per worker with MakeWorkerSlice; the slices stay single-threaded
// while sharing stop/node/poll state through a SharedBudgetState.
class BudgetContext {
 public:
  // Deadline polls between real clock reads. The contract tests rely on
  // the first poll always reading the clock, so an already-expired deadline
  // is noticed on the very first Expired() call.
  static constexpr int64_t kPollStride = 256;

  explicit BudgetContext(const SolveBudget& budget)
      : BudgetContext(budget, nullptr) {}

  // `clock` returns milliseconds on an arbitrary but monotone scale; pass
  // FakeClock::AsFunction() in tests. nullptr uses the real steady clock.
  BudgetContext(const SolveBudget& budget, std::function<int64_t()> clock)
      : budget_(budget),
        clock_(std::move(clock)),
        start_ms_(NowMs()) {}

  const SolveBudget& budget() const { return budget_; }

  // --- Deadline -----------------------------------------------------------

  // Amortized deadline poll: reads the clock on the first call and then once
  // every kPollStride calls. Sticky: once expired, stays expired. A slice
  // additionally adopts a stop latched by any sibling slice (cancellation
  // propagation) and honors the shared forced-expiry point.
  bool Expired() {
    if (stop_ != BudgetStop::kNone) return true;
    ++polls_;
    if (shared_ != nullptr) {
      if (shared_->stopped()) {
        LatchStop(shared_->stop());
        return true;
      }
      if (shared_->ForcedExpiryAt(shared_->AddPoll())) {
        LatchStop(BudgetStop::kDeadlineExpired);
        return true;
      }
    }
    if (forced_expire_at_poll_ >= 0 && polls_ >= forced_expire_at_poll_) {
      LatchStop(BudgetStop::kDeadlineExpired);
      return true;
    }
    if (!budget_.has_deadline()) return false;
    if (--polls_until_check_ > 0) return false;
    polls_until_check_ = kPollStride;
    return ExpiredNow();
  }

  // Unamortized deadline check (always reads the clock).
  bool ExpiredNow() {
    if (stop_ != BudgetStop::kNone) return true;
    if (shared_ != nullptr && shared_->stopped()) {
      LatchStop(shared_->stop());
      return true;
    }
    if (!budget_.has_deadline()) return false;
    if (NowMs() - start_ms_ >= budget_.deadline_ms) {
      LatchStop(BudgetStop::kDeadlineExpired);
      return true;
    }
    return false;
  }

  // --- Node budget --------------------------------------------------------

  // Charges `n` search-tree nodes against the shared budget. Returns false
  // (and latches the stop reason) once the budget is exhausted. A slice
  // charges the cross-worker total, so the node budget is one ceiling for
  // the whole fan-out, not one per worker.
  bool ChargeNodes(int64_t n) {
    nodes_charged_ += n;
    if (shared_ != nullptr) {
      const int64_t total = shared_->AddNodes(n);
      if (stop_ != BudgetStop::kNone) return false;
      if (shared_->stopped()) {
        LatchStop(shared_->stop());
        return false;
      }
      if (budget_.has_node_budget() && total > budget_.node_budget) {
        LatchStop(BudgetStop::kNodeBudgetExhausted);
        return false;
      }
      return true;
    }
    if (stop_ != BudgetStop::kNone) return false;
    if (budget_.has_node_budget() && nodes_charged_ > budget_.node_budget) {
      LatchStop(BudgetStop::kNodeBudgetExhausted);
      return false;
    }
    return true;
  }

  int64_t nodes_charged() const { return nodes_charged_; }

  // --- Memory ceiling -----------------------------------------------------

  // Whether a single allocation of `bytes` fits under the ceiling. Purely
  // advisory — nothing is reserved; solvers call this immediately before
  // their dominant allocation.
  bool FitsMemory(int64_t bytes) const {
    return !budget_.has_memory_limit() || bytes <= budget_.memory_limit_bytes;
  }

  // Memory ceiling in bytes, or `fallback` when unlimited.
  int64_t MemoryLimitOr(int64_t fallback) const {
    return budget_.has_memory_limit() ? budget_.memory_limit_bytes : fallback;
  }

  // A solver that *declines* an instance — memory ceiling missed, or a
  // solver-local budget exhausted — records why here so the caller can tell
  // those apart from "unsupported shape". Not sticky across solvers:
  // TakeDecline reads and clears.
  void NoteDecline(SolveDecline reason) { decline_ = reason; }
  void NoteMemoryDecline() { decline_ = SolveDecline::kMemoryCapped; }
  SolveDecline TakeDecline() {
    const SolveDecline noted = decline_;
    decline_ = SolveDecline::kNone;
    return noted;
  }

  // --- Stop state ---------------------------------------------------------

  bool stopped() const { return stop_ != BudgetStop::kNone; }
  BudgetStop stop_reason() const { return stop_; }

  // Elapsed wall-clock milliseconds since construction.
  int64_t ElapsedMs() { return NowMs() - start_ms_; }

  // --- Telemetry ----------------------------------------------------------

  // Optional sinks (see src/obs/): per-request stats that hot paths flush
  // into, and a trace session that instrumentation sites emit spans on.
  // Both may be null (the default); neither is owned.
  void set_stats(SolveStats* stats) { stats_ = stats; }
  SolveStats* stats() const { return stats_; }
  void set_trace(TraceSession* trace) { trace_ = trace; }
  TraceSession* trace() const { return trace_; }
  // Per-request event journal carrier (obs/log.h) — like stats/trace, a
  // worker slice does NOT inherit it; the driver gives each slice a
  // buffer-only child log and merges in index order after the join.
  void set_log(EventLog* log) { log_ = log; }
  EventLog* log() const { return log_; }

  // Whether hardware-counter measurement (obs/prof.h) is on for this
  // request. Just a flag: util stays dependency-free, and measurement
  // sites read it through perf_group() below. Unlike the telemetry sinks,
  // worker slices DO inherit it — each worker reads its own thread_local
  // counters and flushes into its per-slice stats, so the flag is safe
  // (and necessary) to share.
  void set_perf_enabled(bool enabled) { perf_enabled_ = enabled; }
  bool perf_enabled() const { return perf_enabled_; }
  // The counter group a measurement site hands its Probe (obs/probe.h):
  // the calling thread's group when perf is on and a stats sink is
  // attached, else null. Defined in obs/prof.cc, next to the thread-local
  // groups, so this header keeps its forward declaration only.
  PerfCounterGroup* perf_group() const;

  // Request-level graph features (graph/features.h), extracted once by the
  // engine's classify stage and read by the calibrated ladder planner.
  // Opaque here (util stays dependency-free) and const: like perf_enabled,
  // worker slices inherit the pointer — this is how the features thread
  // through ComponentPebbler's fan-out to every component's ladder.
  // Borrowed; must outlive the solve.
  void set_features(const GraphFeatures* features) { features_ = features; }
  const GraphFeatures* features() const { return features_; }

  // Number of Expired() polls so far (amortized and forced alike).
  int64_t polls() const { return polls_; }

  // Elapsed milliseconds from construction to the moment a stop latched,
  // or -1 while unstopped. This is "where the deadline went": how long the
  // request ran before cancellation bit.
  int64_t stopped_elapsed_ms() const { return stopped_elapsed_ms_; }

  // --- Fault injection ----------------------------------------------------

  // Deterministically forces Expired() to report a deadline expiry on its
  // `n`-th call from now (n >= 1), regardless of the clock. Test-only hook
  // for proving that every hot loop both polls and unwinds cleanly.
  void ForceExpireAfterPolls(int64_t n) {
    forced_expire_at_poll_ = polls_ + n;
  }

  // --- Child contexts -----------------------------------------------------

  // A fresh context under `budget` that keeps everything else this one
  // carries: the clock source, the stats/trace/log sinks, the perf flag and
  // the features. Only the budget changes — its deadline counts from now,
  // and its polls, node charges, decline note and stop latch start empty
  // and stay local (the child joins no SharedBudgetState). This is the one
  // way a solver runs a sub-solve under different limits: a capped rung, an
  // unbudgeted terminator.
  BudgetContext Child(const SolveBudget& budget) const {
    BudgetContext child(budget, clock_);
    child.stats_ = stats_;
    child.trace_ = trace_;
    child.log_ = log_;
    child.perf_enabled_ = perf_enabled_;
    child.features_ = features_;
    return child;
  }

  // --- Parallel fan-out ---------------------------------------------------

  // Carves a child slice for one parallel worker. The slice keeps the node
  // and memory ceilings, rebases the deadline onto the wall clock still
  // remaining *now* (so all slices of one fan-out share one absolute
  // deadline), and is otherwise a Child — same clock, perf flag and
  // features — that also joins the cross-slice stop/node/poll state in
  // `shared`, which is how a stop latched by one worker cancels the others.
  // A pending ForceExpireAfterPolls moves onto `shared` (slices poll it
  // collectively), so fault injection set on the parent reaches whichever
  // worker polls next. Telemetry sinks are NOT inherited: each worker gets
  // its own (single-threaded) sinks and the driver merges them
  // deterministically after the join barrier. Call on the owning thread
  // only, before the fan-out starts.
  BudgetContext MakeWorkerSlice(SharedBudgetState* shared) {
    SolveBudget sliced = budget_;
    if (budget_.has_deadline()) {
      sliced.deadline_ms =
          std::max<int64_t>(0, budget_.deadline_ms - ElapsedMs());
    }
    if (shared != nullptr && forced_expire_at_poll_ >= 0) {
      shared->ForceExpireAfterPolls(
          std::max<int64_t>(1, forced_expire_at_poll_ - polls_));
      forced_expire_at_poll_ = -1;  // moved, not copied
    }
    BudgetContext slice = Child(sliced);
    slice.shared_ = shared;
    slice.stats_ = nullptr;
    slice.trace_ = nullptr;
    slice.log_ = nullptr;
    return slice;
  }

  // Folds a finished worker slice's poll count and latched stop back into
  // this parent context, so parent-level telemetry (polls(),
  // stopped_elapsed_ms(), stop_reason()) covers the whole fan-out. Nodes
  // are absorbed once from the SharedBudgetState via AbsorbShared, not per
  // slice. Call after the join barrier, on the owning thread.
  void AbsorbSlice(int64_t slice_polls, BudgetStop slice_stop) {
    polls_ += slice_polls;
    if (slice_stop != BudgetStop::kNone && stop_ == BudgetStop::kNone) {
      LatchStop(slice_stop);
    }
  }

  // Folds the cross-slice node total (and any latched stop) into this
  // parent context after the fan-out completes.
  void AbsorbShared(const SharedBudgetState& shared) {
    nodes_charged_ += shared.nodes();
    if (shared.stopped() && stop_ == BudgetStop::kNone) {
      LatchStop(shared.stop());
    }
  }

 private:
  int64_t NowMs() const {
    if (clock_) return clock_();
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  // Latches the (sticky) stop reason and records the time-to-stop. The
  // extra clock read happens at most once per context. A slice propagates
  // the latch to its siblings through the shared state.
  void LatchStop(BudgetStop reason) {
    stop_ = reason;
    stopped_elapsed_ms_ = NowMs() - start_ms_;
    if (shared_ != nullptr) shared_->LatchStop(reason);
  }

  SolveBudget budget_;
  std::function<int64_t()> clock_;
  int64_t start_ms_ = 0;
  int64_t polls_ = 0;
  int64_t polls_until_check_ = 1;  // first poll always reads the clock
  int64_t nodes_charged_ = 0;
  int64_t forced_expire_at_poll_ = -1;
  SolveDecline decline_ = SolveDecline::kNone;
  BudgetStop stop_ = BudgetStop::kNone;
  int64_t stopped_elapsed_ms_ = -1;
  SolveStats* stats_ = nullptr;
  TraceSession* trace_ = nullptr;
  EventLog* log_ = nullptr;
  bool perf_enabled_ = false;
  const GraphFeatures* features_ = nullptr;
  // Cross-slice state of the fan-out this context is a worker slice of, or
  // null for a standalone (single-threaded) context. Not owned; the driver
  // that carved the slices keeps it alive across the join barrier.
  SharedBudgetState* shared_ = nullptr;
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_UTIL_BUDGET_H_
