// Structured provenance for budgeted solves.
//
// A SolveOutcome records which solvers (ladder rungs) were attempted on a
// connected instance, why each one stopped, and how the achieved cost
// compares to the Lemma 2.3 lower bound m. Produced by
// Pebbler::PebbleWithOutcome (single-rung default) and by the
// FallbackPebbler degradation ladder; aggregated per component by
// ComponentPebbler and surfaced through core/report and the CLI.

#ifndef PEBBLEJOIN_SOLVER_SOLVE_OUTCOME_H_
#define PEBBLEJOIN_SOLVER_SOLVE_OUTCOME_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/budget.h"

namespace pebblejoin {

// Why one rung of a solve stopped.
enum class RungStatus {
  kOptimal,          // finished with a proven-optimal order
  kCompleted,        // produced an order, no optimality claim
  kDeadlineExpired,  // wall-clock deadline hit (an incumbent may remain)
  kBudgetExhausted,  // shared or solver-local node budget hit
  kMemoryCapped,     // declined: dominant allocation over the ceiling
  kUnsupported,      // declined: instance shape/size outside the solver
};

// Printable name, e.g. "deadline-expired".
const char* RungStatusName(RungStatus status);

// True when the status means an edge order was produced.
inline bool RungProducedOrder(RungStatus status) {
  return status == RungStatus::kOptimal || status == RungStatus::kCompleted;
}

// Maps a budget stop reason onto the rung vocabulary.
RungStatus RungStatusFromStop(BudgetStop stop);

// One solver attempt within a solve.
struct RungAttempt {
  std::string solver;  // Pebbler::name() of the rung
  RungStatus status = RungStatus::kUnsupported;
  // Effective cost m + jumps of the order this rung produced, or -1 when it
  // produced none. A rung cut short by the deadline can still report a cost:
  // its best incumbent so far.
  int64_t cost = -1;
  // Wall-clock spent inside this rung, recorded by PebbleWithOutcome.
  int64_t elapsed_us = 0;
  // Hardware counters spent inside this rung on the attempting thread
  // (obs/prof.h). Zero unless the request ran with perf enabled on a
  // perf-capable host.
  int64_t cycles = 0;
  int64_t cache_misses = 0;
};

// Provenance of a planner-driven ladder descent (solver/ladder_planner.h).
// Inert (active == false) on the default blind ladder, so default output
// stays byte-identical: report JSON emits the block only when active.
struct LadderPlanInfo {
  bool active = false;
  // Planned starting rung: its name ("exact", "ils", "local-search",
  // "dfs-tree") and its budgeted-rung index (0..3, 3 = skipped straight to
  // the terminator).
  std::string predicted_solver;
  int predicted_rung = 0;
  // Budgeted-rung index of the rung that actually produced the order
  // (3 = a terminator rung answered); -1 while unresolved.
  int actual_rung = -1;
  // Wall-clock cap the plan put on the exact rung, ms; -1 = uncapped.
  int64_t exact_cap_ms = -1;
  // Model-predicted burn per budgeted rung, microseconds.
  int64_t predicted_exact_us = 0;
  int64_t predicted_ils_us = 0;
  int64_t predicted_ls_us = 0;
  // Estimated budget saved versus the blind ladder, ms (model-based).
  int64_t budget_saved_ms = 0;
};

// Everything learned while solving one connected instance.
struct SolveOutcome {
  std::vector<RungAttempt> attempts;  // in the order they ran
  std::string winner;                 // rung that produced the final order
  // Status of the winning rung; when no order was produced this is the last
  // failure status instead.
  RungStatus status = RungStatus::kUnsupported;
  bool optimal = false;          // winner proved optimality
  int64_t effective_cost = -1;   // m + jumps of the final order, -1 if none
  int64_t lower_bound = 0;       // m (Lemma 2.3)
  // Set when a stronger rung was cut short and a weaker one answered — the
  // reason the result is degraded (kDeadlineExpired, kBudgetExhausted or
  // kMemoryCapped); kOptimal/kCompleted when nothing was cut short.
  RungStatus degradation = RungStatus::kCompleted;
  // Calibrated-planner provenance; inert on the default blind ladder.
  LadderPlanInfo plan;

  bool degraded() const { return !RungProducedOrder(degradation); }

  // Sets `degradation` once a later rung has answered for an earlier one:
  // the first budget cut (deadline, node budget or memory ceiling) among
  // the attempts on the way to the winner, or kCompleted when there was
  // none. The winner's own status counts, since an anytime rung can
  // return its deadline-cut incumbent; an `unsupported` decline is the
  // normal operating mode on large inputs, not a cut. Each rung sets
  // `degradation` from its own attempt only, so every caller that runs
  // more than one rung calls this after the last.
  void SettleDegradation();

  // One-line rendering: "exact:deadline-expired -> ils:completed
  // (winner ils, cost 12, lb 10)". With `with_timing`, each rung carries
  // its wall clock: "exact:deadline-expired[503us] -> ...".
  std::string Summary() const { return Summary(false); }
  std::string Summary(bool with_timing) const;
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_SOLVER_SOLVE_OUTCOME_H_
