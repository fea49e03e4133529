#include "solver/pebbler.h"

#include <utility>

#include "obs/log.h"
#include "obs/probe.h"
#include "obs/solve_stats.h"
#include "pebble/cost_model.h"
#include "util/check.h"

namespace pebblejoin {

std::optional<std::vector<int>> Pebbler::PebbleWithOutcome(
    const Graph& g, BudgetContext* budget, SolveOutcome* outcome) const {
  JP_CHECK(outcome != nullptr);
  outcome->lower_bound = g.num_edges();

  // One probe per rung attempt: its wall clock and hardware counters land
  // on the RungAttempt, so ladder provenance can say not just how long a
  // rung ran but what it burned, and a traced request gets one "rung" span
  // carrying the attempt's status and cost.
  RungAttempt attempt;
  attempt.solver = name();
  Probe probe = Probe::Timed(
      attempt.solver.c_str(), "rung",
      budget != nullptr ? budget->trace() : nullptr,
      budget != nullptr ? budget->perf_group() : nullptr);
  std::optional<std::vector<int>> order = PebbleConnected(g, budget);
  if (order.has_value()) {
    attempt.cost =
        static_cast<int64_t>(order->size()) + JumpsOfEdgeOrder(g, *order);
    const bool stopped = budget != nullptr && budget->stopped();
    // A solver stopped mid-search can still return its best incumbent; the
    // stop reason is the honest status for that (degraded) order.
    attempt.status = stopped ? RungStatusFromStop(budget->stop_reason())
                             : (is_exact() ? RungStatus::kOptimal
                                           : RungStatus::kCompleted);
    outcome->winner = attempt.solver;
    outcome->optimal = attempt.status == RungStatus::kOptimal;
    outcome->effective_cost = attempt.cost;
  } else if (budget != nullptr && budget->stopped()) {
    attempt.status = RungStatusFromStop(budget->stop_reason());
  } else {
    const SolveDecline decline =
        budget != nullptr ? budget->TakeDecline() : SolveDecline::kNone;
    switch (decline) {
      case SolveDecline::kMemoryCapped:
        attempt.status = RungStatus::kMemoryCapped;
        break;
      case SolveDecline::kLocalBudgetExhausted:
        attempt.status = RungStatus::kBudgetExhausted;
        break;
      case SolveDecline::kNone:
        attempt.status = RungStatus::kUnsupported;
        break;
    }
  }
  probe.AddStr("status", RungStatusName(attempt.status));
  probe.AddNum("cost", attempt.cost);
  const ProbeSample& sample = probe.Stop();
  attempt.elapsed_us = sample.wall_us;
  attempt.cycles = sample.perf.cycles;
  attempt.cache_misses = sample.perf.cache_misses;
  outcome->status = attempt.status;
  outcome->degradation = RungProducedOrder(attempt.status)
                             ? RungStatus::kCompleted
                             : attempt.status;

  if (budget != nullptr) {
    if (SolveStats* stats = budget->stats()) {
      ++stats->rungs_attempted;
      if (!RungProducedOrder(attempt.status)) ++stats->rungs_declined;
    }
    if (EventLog* log = budget->log()) {
      log->Emit(LogLevel::kDebug, "ladder.rung",
                {LogField::Str("solver", attempt.solver),
                 LogField::Str("status", RungStatusName(attempt.status)),
                 LogField::Num("cost", attempt.cost),
                 LogField::Num("elapsed_us", attempt.elapsed_us)});
    }
  }

  outcome->attempts.push_back(std::move(attempt));
  return order;
}

}  // namespace pebblejoin
