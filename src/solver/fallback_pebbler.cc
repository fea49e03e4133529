#include "solver/fallback_pebbler.h"

#include <algorithm>
#include <vector>

#include "graph/features.h"
#include "obs/log.h"
#include "obs/probe.h"
#include "obs/solve_stats.h"
#include "solver/dfs_tree_pebbler.h"
#include "solver/greedy_walk_pebbler.h"
#include "solver/ils_pebbler.h"
#include "solver/ladder_planner.h"
#include "solver/local_search_pebbler.h"
#include "util/check.h"

namespace pebblejoin {

namespace {

// Plans one descent for the calibrated ladder: derive the component's
// features (reusing the classify-stage vector when the request *is* this
// one component), ask the planner, and surface the decision everywhere
// provenance lives — the outcome, the stats counters, the journal.
LadderPlan PlanDescent(const LadderPlanner& planner, const Graph& g,
                       BudgetContext& ctx, SolveOutcome* outcome) {
  GraphFeatures features;
  const GraphFeatures* request_features = ctx.features();
  if (request_features != nullptr && request_features->betti_zero == 1 &&
      request_features->num_edges == g.num_edges()) {
    features = *request_features;
  } else {
    // Multi-component request (or a caller that never ran the classify
    // stage): one linear pass over the component subgraph.
    features = ExtractGraphFeatures(g);
  }
  int64_t remaining_ms = -1;
  if (ctx.budget().has_deadline()) {
    remaining_ms =
        std::max<int64_t>(0, ctx.budget().deadline_ms - ctx.ElapsedMs());
  }
  const LadderPlan plan = planner.Plan(features, remaining_ms);

  outcome->plan.active = true;
  outcome->plan.predicted_rung = plan.start_rung;
  outcome->plan.predicted_solver = PlannedRungName(plan.start_rung);
  outcome->plan.exact_cap_ms = plan.exact_cap_ms;
  outcome->plan.predicted_exact_us = plan.predicted_us[kPlanExact];
  outcome->plan.predicted_ils_us = plan.predicted_us[kPlanIls];
  outcome->plan.predicted_ls_us = plan.predicted_us[kPlanLocalSearch];
  outcome->plan.budget_saved_ms = plan.budget_saved_ms;
  if (SolveStats* stats = ctx.stats()) {
    ++stats->planner_plans;
    stats->planner_predicted_rung += plan.start_rung;
    stats->planner_rungs_skipped += plan.start_rung;
    stats->planner_budget_saved_ms += plan.budget_saved_ms;
  }
  if (EventLog* log = ctx.log()) {
    log->Emit(LogLevel::kDebug, "ladder.plan",
              {LogField::Str("start", PlannedRungName(plan.start_rung)),
               LogField::Num("exact_cap_ms", plan.exact_cap_ms),
               LogField::Num("predicted_exact_us",
                             plan.predicted_us[kPlanExact]),
               LogField::Num("predicted_ils_us", plan.predicted_us[kPlanIls]),
               LogField::Num("predicted_ls_us",
                             plan.predicted_us[kPlanLocalSearch]),
               LogField::Num("saved_ms", plan.budget_saved_ms)});
  }
  return plan;
}

// Runs one rung under a plan-imposed wall-clock cap: a child context whose
// deadline is min(cap, remaining) on the parent's clock, and whose node
// budget is what the request has left. The child's *local* expiry is
// deliberately not latched onto the parent — freeing the rest of the
// deadline for the anytime rungs is the point of the cap — but its polls
// and node charges fold into the request, so request-wide accounting (and
// the node ceiling) behave exactly as on the uncapped path.
std::optional<std::vector<int>> RunWithRungCap(const Pebbler& rung,
                                               const Graph& g,
                                               BudgetContext& ctx,
                                               int64_t cap_ms,
                                               SolveOutcome* outcome) {
  SolveBudget capped = ctx.budget();
  if (capped.has_deadline()) {
    const int64_t remaining =
        std::max<int64_t>(0, capped.deadline_ms - ctx.ElapsedMs());
    capped.deadline_ms = std::min(cap_ms, remaining);
  } else {
    capped.deadline_ms = cap_ms;
  }
  if (capped.has_node_budget()) {
    capped.node_budget =
        std::max<int64_t>(0, capped.node_budget - ctx.nodes_charged());
  }
  BudgetContext rung_ctx = ctx.Child(capped);
  std::optional<std::vector<int>> order =
      rung.PebbleWithOutcome(g, rung_ctx, outcome);
  ctx.FoldChild(rung_ctx);
  return order;
}

// Budgeted-rung index of the rung that answered, for predicted-vs-actual
// provenance; terminator rungs map past the planned range.
int ActualRungIndex(const std::string& winner) {
  if (winner == "exact") return kPlanExact;
  if (winner == "ils") return kPlanIls;
  if (winner == "local-search") return kPlanLocalSearch;
  return kNumPlannedRungs;
}

}  // namespace

std::optional<std::vector<int>> FallbackPebbler::PebbleConnected(
    const Graph& g, BudgetContext& budget) const {
  SolveOutcome outcome;
  return PebbleWithOutcome(g, budget, &outcome);
}

std::optional<std::vector<int>> FallbackPebbler::PebbleWithOutcome(
    const Graph& g, BudgetContext& ctx, SolveOutcome* outcome) const {
  JP_CHECK(outcome != nullptr);
  JP_CHECK(g.num_edges() >= 1);

  Probe ladder_span = Probe::Span("ladder", "solver", ctx.trace());

  const ExactPebbler exact(options_.exact);
  const IlsPebbler ils;
  const LocalSearchPebbler local_search(kMaxLineGraphEdges);
  const Pebbler* budgeted_rungs[] = {&exact, &ils, &local_search};
  constexpr int kNumBudgetedRungs = 3;
  static_assert(kNumBudgetedRungs == kNumPlannedRungs,
                "plan indexing mirrors the budgeted rung array");

  // Rung iteration is plan-driven. The inert default plan (start_rung 0,
  // no caps) reproduces the historical blind sequence byte-identically;
  // a configured planner may start lower and cap the exact rung.
  LadderPlan plan;
  if (options_.planner != nullptr) {
    plan = PlanDescent(*options_.planner, g, ctx, outcome);
  }

  std::optional<std::vector<int>> order;
  for (int r = plan.start_rung; r < kNumBudgetedRungs; ++r) {
    const Pebbler* rung = budgeted_rungs[r];
    if (r == kPlanExact && plan.exact_cap_ms >= 0) {
      order = RunWithRungCap(*rung, g, ctx, plan.exact_cap_ms, outcome);
    } else {
      order = rung->PebbleWithOutcome(g, ctx, outcome);
    }
    if (order.has_value()) break;
  }

  if (!order.has_value()) {
    // Guaranteed terminator: Theorem 3.1 is polynomial, so it gets the
    // memory ceiling but never the deadline — a stopped request still ends
    // with a valid scheme.
    SolveBudget memory_only;
    memory_only.memory_limit_bytes = ctx.budget().memory_limit_bytes;
    BudgetContext dfs_ctx = ctx.Child(memory_only);
    const DfsTreePebbler dfs(kMaxLineGraphEdges);
    order = dfs.PebbleWithOutcome(g, dfs_ctx, outcome);
  }

  if (!order.has_value()) {
    // Safety net when even L(G) misses the memory ceiling: the greedy walk
    // needs no auxiliary structures and cannot decline a connected graph.
    BudgetContext greedy_ctx = ctx.Child(SolveBudget{});
    const GreedyWalkPebbler greedy;
    order = greedy.PebbleWithOutcome(g, greedy_ctx, outcome);
    JP_CHECK_MSG(order.has_value(),
                 "greedy-walk safety net refused a connected graph");
  }

  outcome->SettleDegradation();

  if (outcome->plan.active) {
    outcome->plan.actual_rung = ActualRungIndex(outcome->winner);
    if (SolveStats* stats = ctx.stats()) {
      stats->planner_actual_rung += outcome->plan.actual_rung;
    }
    ladder_span.AddStr("plan_start", outcome->plan.predicted_solver.c_str());
  }

  ladder_span.AddStr("winner", outcome->winner.empty()
                                   ? "none"
                                   : outcome->winner.c_str());
  ladder_span.AddStr("degradation", RungStatusName(outcome->degradation));

  if (EventLog* log = ctx.log()) {
    // Degraded ladders surface at warn (past the default info filter);
    // healthy ones stay in the flight recorder only.
    log->Emit(outcome->degraded() ? LogLevel::kWarn : LogLevel::kDebug,
              "ladder.done",
              {LogField::Str("winner", outcome->winner.empty()
                                           ? "none"
                                           : outcome->winner),
               LogField::Str("degradation",
                             RungStatusName(outcome->degradation)),
               LogField::Num("cost", outcome->effective_cost),
               LogField::Flag("degraded", outcome->degraded())});
  }
  return order;
}

}  // namespace pebblejoin
