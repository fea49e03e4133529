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
// tests the context accepts a FakeClock (util/clock.h) and a forced-expiry
// point (ForceExpireAfterPolls).
//
// One request keeps one ledger of budget state — the stop latch and when it
// latched, the node total, the poll total, the forced-expiry point — behind
// its root BudgetContext. Parallel workers run on slices that share the
// root's ledger, so a stop or a node charge is the request's at once; a
// Child (a sub-solve under other limits) keeps a ledger of its own. Polls
// are the exception: they are the hot path, so each context counts its own
// and writes them to the ledger only when it must (see Expired()).

#ifndef PEBBLEJOIN_UTIL_BUDGET_H_
#define PEBBLEJOIN_UTIL_BUDGET_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "util/clock.h"

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

// Mutable per-request state threaded through every solver's hot loop.
//
// The request-wide accounting lives in one private ledger: the stop latch
// and the time it latched, the node total, the poll total and the
// forced-expiry point. A root context (either constructor) creates the
// ledger; its worker slices (WorkerSlice) share it, so a stop latched by one
// worker cancels every other worker at its next poll, the node budget is
// one ceiling for the whole fan-out, and ForceExpireAfterPolls reaches
// whichever worker polls next. After the workers finish and their slices
// are destroyed, the root's polls(), nodes_charged(), stopped() and
// stop_reason() already cover them — there is nothing to merge back. A
// Child starts a ledger of its own.
//
// Each context is used by one thread at a time; only the ledger is shared.
// Its stop, node and forced-expiry fields are atomics that every poll or
// charge reads or writes (latching is first-writer-wins). Its poll total
// is not written per poll: each context keeps a count of polls it has not
// yet written, so workers polling in parallel do not all write one cache
// line.
class BudgetContext {
 public:
  // Deadline polls between real clock reads. The contract tests rely on
  // the first poll always reading the clock, so an already-expired deadline
  // is noticed on the very first Expired() call.
  static constexpr int64_t kPollStride = 256;

  explicit BudgetContext(const SolveBudget& budget)
      : BudgetContext(budget, nullptr) {}

  // `clock` is borrowed and must outlive the context and every context
  // made from it; tests pass a FakeClock. nullptr uses the steady clock.
  BudgetContext(const SolveBudget& budget, const Clock* clock)
      : budget_(budget),
        clock_(clock),
        start_ms_(NowMs()),
        ledger_(std::make_shared<Ledger>()) {}

  // Moving hands the pending polls over. Destroying a context, or
  // move-assigning over it, writes its own to its ledger first (LedgerRef).
  BudgetContext(BudgetContext&&) = default;
  BudgetContext& operator=(BudgetContext&&) = default;

  const SolveBudget& budget() const { return budget_; }

  // --- Deadline -----------------------------------------------------------

  // Amortized deadline poll: reads the clock on the first call and then once
  // every kPollStride calls. Sticky: once expired, stays expired. Also
  // reports a stop latched on the ledger by any other slice, and honors the
  // ledger's forced-expiry point.
  //
  // The poll is counted on this context and written to the ledger only
  // when the context first answers a stop, and on every poll while a
  // forced-expiry point is armed, so the forced point numbers the
  // request's polls exactly.
  bool Expired() {
    if (stop_seen_) return true;
    ++ledger_.pending;
    if (stopped()) {
      SeeStop();
      return true;
    }
    const int64_t forced_at =
        ledger_->forced_expire_at_poll.load(std::memory_order_relaxed);
    if (forced_at >= 0 && ledger_.Flush() >= forced_at) {
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
    if (stopped()) {
      SeeStop();
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

  // Charges `n` search-tree nodes against the ledger. Returns false (and
  // latches the stop reason) once the request's node total passes the
  // budget — one ceiling for every slice, not one per worker.
  bool ChargeNodes(int64_t n) {
    const int64_t total =
        ledger_->nodes.fetch_add(n, std::memory_order_relaxed) + n;
    if (stopped()) {
      SeeStop();
      return false;
    }
    if (budget_.has_node_budget() && total > budget_.node_budget) {
      LatchStop(BudgetStop::kNodeBudgetExhausted);
      return false;
    }
    return true;
  }

  // Nodes charged on the ledger so far, by every slice that shares it.
  int64_t nodes_charged() const {
    return ledger_->nodes.load(std::memory_order_relaxed);
  }

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

  // The ledger's latch: a stop any slice of this request latched.
  bool stopped() const { return stop_reason() != BudgetStop::kNone; }
  BudgetStop stop_reason() const {
    return static_cast<BudgetStop>(
        ledger_->stop.load(std::memory_order_acquire));
  }

  // Elapsed wall-clock milliseconds since this context was made — for a
  // worker slice, since its root was.
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

  // Number of Expired() polls (amortized and forced alike), plus those
  // folded in by FoldChild: the ledger's total plus this context's own
  // pending count. A slice's polls reach its root's count once the slice
  // answers a stop or is destroyed.
  int64_t polls() const {
    return ledger_->polls.load(std::memory_order_relaxed) + ledger_.pending;
  }

  // Elapsed milliseconds from the root's construction to the moment the
  // ledger's stop latched, or -1 while unstopped. This is "where the
  // deadline went": how long the request ran before cancellation bit.
  int64_t stopped_elapsed_ms() const {
    return ledger_->stopped_elapsed_ms.load(std::memory_order_acquire);
  }

  // --- Fault injection ----------------------------------------------------

  // Deterministically forces Expired() to report a deadline expiry on the
  // ledger's `n`-th poll from now (n >= 1), regardless of the clock — on
  // whichever slice makes that poll. Test-only hook for proving that every
  // hot loop both polls and unwinds cleanly. Arm it before the slices
  // poll: a slice's polls from before the arming are counted when it next
  // polls.
  void ForceExpireAfterPolls(int64_t n) {
    ledger_->forced_expire_at_poll.store(ledger_.Flush() + n,
                                         std::memory_order_relaxed);
  }

  // --- Child contexts and worker slices -----------------------------------

  // A fresh context under `budget` that keeps everything else this one
  // carries: the clock source, the stats/trace/log sinks, the perf flag and
  // the features. Only the budget changes — its deadline counts from now,
  // and it starts a ledger of its own, so its polls, node charges and stop
  // stay local. This is the one way a solver runs a sub-solve under
  // different limits: a capped rung, an unbudgeted terminator.
  BudgetContext Child(const SolveBudget& budget) const {
    BudgetContext child(budget, clock_);
    child.stats_ = stats_;
    child.trace_ = trace_;
    child.log_ = log_;
    child.perf_enabled_ = perf_enabled_;
    child.features_ = features_;
    return child;
  }

  // A context for one parallel worker that shares this one's ledger, start
  // time and budget, so every slice runs against one absolute deadline and
  // one node ceiling. It keeps the clock, the perf flag and the features,
  // but not the telemetry sinks: each worker gets its own (single-threaded)
  // sinks and the driver merges them deterministically after the join.
  // Safe to call from any thread while no one mutates this context.
  BudgetContext WorkerSlice() const {
    BudgetContext slice(*this);
    slice.polls_until_check_ = 1;
    slice.decline_ = SolveDecline::kNone;
    slice.stop_seen_ = false;
    slice.stats_ = nullptr;
    slice.trace_ = nullptr;
    slice.log_ = nullptr;
    return slice;
  }

  // Adds a finished child's polls (its pending ones included) and node
  // charges to this context's. The child's own stop is not adopted — a
  // capped rung's local deadline frees the rest of the request's — but its
  // nodes count against this budget and can exhaust it.
  void FoldChild(const BudgetContext& child) {
    ledger_.pending += child.polls();
    if (child.nodes_charged() > 0) ChargeNodes(child.nodes_charged());
  }

 private:
  // The request-wide accounting shared by a root and its worker slices.
  struct Ledger {
    std::atomic<int> stop{static_cast<int>(BudgetStop::kNone)};
    std::atomic<int64_t> stopped_elapsed_ms{-1};
    std::atomic<int64_t> nodes{0};
    std::atomic<int64_t> polls{0};
    std::atomic<int64_t> forced_expire_at_poll{-1};
  };

  // A context's share of a ledger plus the polls it has counted and not yet
  // written there. Copying shares the ledger with nothing pending; moving
  // hands the pending polls over; destroying or move-assigning over a ref
  // writes its own first, so every poll lands on its ledger exactly once.
  struct LedgerRef {
    explicit LedgerRef(std::shared_ptr<Ledger> shared)
        : ledger(std::move(shared)) {}
    LedgerRef(const LedgerRef& other) : ledger(other.ledger) {}
    LedgerRef(LedgerRef&& other) noexcept
        : ledger(std::move(other.ledger)),
          pending(std::exchange(other.pending, 0)) {}
    LedgerRef& operator=(const LedgerRef&) = delete;
    LedgerRef& operator=(LedgerRef&& other) noexcept {
      if (this != &other) {
        Flush();
        ledger = std::move(other.ledger);
        pending = std::exchange(other.pending, 0);
      }
      return *this;
    }
    ~LedgerRef() { Flush(); }

    Ledger* operator->() const { return ledger.get(); }

    // Writes the pending polls to the ledger; returns its poll total. A
    // moved-from ref has no ledger and nothing pending.
    int64_t Flush() {
      if (pending == 0) {
        return ledger == nullptr
                   ? 0
                   : ledger->polls.load(std::memory_order_relaxed);
      }
      const int64_t n = std::exchange(pending, 0);
      return ledger->polls.fetch_add(n, std::memory_order_relaxed) + n;
    }

    std::shared_ptr<Ledger> ledger;
    int64_t pending = 0;
  };

  // Copying shares the ledger, so it is WorkerSlice's alone.
  BudgetContext(const BudgetContext&) = default;

  int64_t NowMs() const { return pebblejoin::NowMs(clock_); }

  // This context answers a stop from now on; its polls so far go to the
  // ledger, and later ones are not counted.
  void SeeStop() {
    stop_seen_ = true;
    ledger_.Flush();
  }

  // Latches the stop reason on the ledger, first writer wins, and records
  // the time-to-stop of the first latch only.
  void LatchStop(BudgetStop reason) {
    SeeStop();
    const int64_t elapsed_ms = NowMs() - start_ms_;
    int expected = static_cast<int>(BudgetStop::kNone);
    if (ledger_->stop.compare_exchange_strong(
            expected, static_cast<int>(reason), std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      ledger_->stopped_elapsed_ms.store(elapsed_ms, std::memory_order_release);
    }
  }

  SolveBudget budget_;
  const Clock* clock_ = nullptr;  // borrowed; null reads the steady clock
  int64_t start_ms_ = 0;
  LedgerRef ledger_;
  int64_t polls_until_check_ = 1;  // first poll always reads the clock
  // Whether this context has already answered a stop; its later polls are
  // not counted.
  bool stop_seen_ = false;
  SolveDecline decline_ = SolveDecline::kNone;
  SolveStats* stats_ = nullptr;
  TraceSession* trace_ = nullptr;
  EventLog* log_ = nullptr;
  bool perf_enabled_ = false;
  const GraphFeatures* features_ = nullptr;
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_UTIL_BUDGET_H_
