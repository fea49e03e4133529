#include "solver/pebbler.h"

#include <span>
#include <utility>

#include "graph/components.h"
#include "obs/log.h"
#include "obs/solve_stats.h"
#include "pebble/cost_model.h"
#include "util/check.h"

namespace pebblejoin {

std::optional<std::vector<int>> Pebbler::PebbleConnected(
    const Graph& g, BudgetContext* budget) const {
  if (budget != nullptr) return PebbleConnected(g, *budget);
  BudgetContext unlimited{SolveBudget{}};
  return PebbleConnected(g, unlimited);
}

std::optional<std::vector<int>> Pebbler::PebbleWithOutcome(
    const Graph& g, BudgetContext* budget, SolveOutcome* outcome) const {
  if (budget != nullptr) return PebbleWithOutcome(g, *budget, outcome);
  BudgetContext unlimited{SolveBudget{}};
  return PebbleWithOutcome(g, unlimited, outcome);
}

std::optional<std::vector<int>> Pebbler::PebbleWithOutcome(
    const Graph& g, BudgetContext& budget, SolveOutcome* outcome) const {
  RungScope rung(*this, g.num_edges(), budget, outcome);
  std::optional<std::vector<int>> order = PebbleConnected(g, budget);
  rung.Finish(order.has_value()
                  ? std::optional<int64_t>(
                        static_cast<int64_t>(order->size()) +
                        JumpsOfEdgeOrder(g, *order))
                  : std::nullopt);
  return order;
}

bool Pebbler::PebbleComponent(ComponentRef& component, BudgetContext& budget,
                              SolveOutcome* outcome,
                              std::vector<int>* order) const {
  const std::optional<std::vector<int>> local =
      PebbleWithOutcome(component.Subgraph(), budget, outcome);
  if (!local.has_value()) return false;
  const std::span<const int> edges = component.edges();
  for (int e : *local) order->push_back(edges[e]);
  return true;
}

Pebbler::RungScope::RungScope(const Pebbler& solver, int64_t lower_bound,
                              BudgetContext& budget, SolveOutcome* outcome)
    : budget_(budget),
      outcome_(outcome),
      attempt_{.solver = solver.name()},
      probe_(Probe::Timed(attempt_.solver.c_str(), "rung", budget.trace(),
                          budget.perf_group())),
      exact_(solver.is_exact()) {
  JP_CHECK(outcome_ != nullptr);
  outcome_->lower_bound = lower_bound;
}

void Pebbler::RungScope::Finish(std::optional<int64_t> cost) {
  if (cost.has_value()) {
    attempt_.cost = *cost;
    // A solver stopped mid-search can still return its best incumbent; the
    // stop reason is the honest status for that (degraded) order.
    attempt_.status = budget_.stopped()
                          ? RungStatusFromStop(budget_.stop_reason())
                          : (exact_ ? RungStatus::kOptimal
                                    : RungStatus::kCompleted);
    outcome_->winner = attempt_.solver;
    outcome_->optimal = attempt_.status == RungStatus::kOptimal;
    outcome_->effective_cost = attempt_.cost;
  } else if (budget_.stopped()) {
    attempt_.status = RungStatusFromStop(budget_.stop_reason());
  } else {
    switch (budget_.TakeDecline()) {
      case SolveDecline::kMemoryCapped:
        attempt_.status = RungStatus::kMemoryCapped;
        break;
      case SolveDecline::kLocalBudgetExhausted:
        attempt_.status = RungStatus::kBudgetExhausted;
        break;
      case SolveDecline::kNone:
        attempt_.status = RungStatus::kUnsupported;
        break;
    }
  }
  probe_.AddStr("status", RungStatusName(attempt_.status));
  probe_.AddNum("cost", attempt_.cost);
  const ProbeSample& sample = probe_.Stop();
  attempt_.elapsed_us = sample.wall_us;
  attempt_.cycles = sample.perf.cycles;
  attempt_.cache_misses = sample.perf.cache_misses;
  outcome_->status = attempt_.status;
  outcome_->degradation = RungProducedOrder(attempt_.status)
                              ? RungStatus::kCompleted
                              : attempt_.status;

  if (SolveStats* stats = budget_.stats()) {
    ++stats->rungs_attempted;
    if (!RungProducedOrder(attempt_.status)) ++stats->rungs_declined;
  }
  if (EventLog* log = budget_.log()) {
    log->Emit(LogLevel::kDebug, "ladder.rung",
              {LogField::Str("solver", attempt_.solver),
               LogField::Str("status", RungStatusName(attempt_.status)),
               LogField::Num("cost", attempt_.cost),
               LogField::Num("elapsed_us", attempt_.elapsed_us)});
  }

  outcome_->attempts.push_back(std::move(attempt_));
}

}  // namespace pebblejoin
