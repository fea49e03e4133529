// SolveStats: the per-request telemetry sink threaded through every solver
// hot path.
//
// A plain struct of monotonic counters — no locks, no strings, no
// allocation — so incrementing it costs one add and a (usually
// well-predicted) null check on the BudgetContext that carries it. Solvers
// accumulate into local variables inside their hot loops and flush once per
// call, so the loop bodies stay untouched when telemetry is off. These are
// the per-operator numbers that worst-case-optimal join work relies on
// (nodes expanded, prunes by bound, intermediate sizes) to validate cost
// claims: with them, "FallbackPebbler landed on rung 3" becomes an
// explainable event instead of a mystery.
//
// The analyzer owns one SolveStats per JoinAnalysis, attaches it to the
// request's BudgetContext, and flushes the budget-level fields (poll count,
// time-to-stop) itself after the solve. MetricsRegistry (obs/metrics.h) is
// the process-wide aggregation layer these per-request sinks fold into.

#ifndef PEBBLEJOIN_OBS_SOLVE_STATS_H_
#define PEBBLEJOIN_OBS_SOLVE_STATS_H_

#include <cstdint>
#include <string>

#include "obs/probe.h"

namespace pebblejoin {

class BudgetContext;
class JsonWriter;
class MetricsRegistry;

// The stages of the engine's request pipeline, in order. Their names live
// once, in kPipelineStageNames, and spell the stage keys of every stats
// surface: stage_<name>_us, stage_<name>_cycles, … and the --perf-stats
// table rows.
enum class PipelineStage { kBuild, kClassify, kPartition, kSolve, kVerify,
                           kReport };
inline constexpr int kNumPipelineStages = 6;
inline constexpr const char* kPipelineStageNames[kNumPipelineStages] = {
    "build", "classify", "partition", "solve", "verify", "report"};

struct SolveStats {
  // Branch and bound (tsp/branch_and_bound.cc).
  int64_t bnb_nodes_expanded = 0;
  int64_t bnb_prunes_component = 0;   // component bound won the prune
  int64_t bnb_prunes_deficiency = 0;  // deficiency bound won the prune
  int64_t bnb_incumbent_updates = 0;

  // Held–Karp (tsp/held_karp.cc).
  int64_t hk_solves = 0;
  int64_t hk_subsets_materialized = 0;  // DP subsets = 2^n per solve
  int64_t hk_table_bytes = 0;           // dominant allocation, summed

  // Local search and ILS (tsp/local_search.cc, solver/ils_pebbler.cc).
  int64_t ls_passes = 0;
  int64_t ls_moves_accepted = 0;  // 2-opt reversals + Or-opt relocations
  int64_t ils_iterations = 0;
  int64_t ils_kicks_accepted = 0;

  // Ladder provenance (solver/pebbler.cc).
  int64_t rungs_attempted = 0;
  int64_t rungs_declined = 0;  // attempts that produced no order

  // Calibrated ladder planner (solver/ladder_planner.h). All zero on the
  // default blind ladder. Rung indexes are the budgeted-rung numbering
  // (0 exact, 1 ils, 2 local-search, 3 terminator), summed per plan so
  // predicted-vs-actual drift is readable per request and per session.
  int64_t planner_plans = 0;
  int64_t planner_predicted_rung = 0;  // Σ planned starting rung
  int64_t planner_actual_rung = 0;     // Σ rung that actually answered
  int64_t planner_rungs_skipped = 0;   // Σ rungs planned away
  int64_t planner_budget_saved_ms = 0;  // Σ model-estimated savings

  // Budget (util/budget.h; flushed by the analyzer after the solve).
  int64_t budget_polls = 0;
  int64_t budget_time_to_stop_ms = -1;  // -1: never stopped

  // Wall clock of the solve and verify stages together, flushed by the
  // engine.
  int64_t solve_wall_us = 0;

  // The engine's request pipeline (engine/solve_engine.h), one record per
  // stage in pipeline order: the stage's wall clock (stage_<name>_us) and,
  // with perf counters on, its counter delta on the request thread
  // (stage_<name>_{cycles,insns,cache_misses}). Filled by SolveEngine;
  // zero when the analysis was produced outside the staged pipeline. Under
  // --threads N the solve stage's counters cover the coordinating thread
  // only; pool workers report through the hot-loop counters below.
  ProbeSample stages[kNumPipelineStages];

  ProbeSample& stage(PipelineStage s) { return stages[static_cast<int>(s)]; }
  const ProbeSample& stage(PipelineStage s) const {
    return stages[static_cast<int>(s)];
  }

  // Whole-pipeline hardware-counter totals (perf_*): the sum of the
  // stage deltas.
  PerfCounts perf_total() const;

  // Hot-loop attribution (obs/prof.h): each solver meters its own thread
  // and flushes alongside its work counters, so these survive the
  // per-slice deterministic merge and add up across pool workers. Only
  // cycles and cache misses are rendered (bnb_cycles, bnb_cache_misses…).
  // All perf counts stay zero unless the request ran with perf counters
  // enabled (`--perf-stats` / AnalyzerOptions::perf) on a host where
  // perf_event_open succeeds; the `perf` string below says which it was.
  PerfCounts bnb_perf;
  PerfCounts hk_perf;
  PerfCounts ls_perf;

  // Perf availability for this request: "off" (counters not requested),
  // "ok" (requested and counting), or "unavailable:<reason>" (requested
  // but perf_event_open was denied — all perf fields stay zero and the
  // solve proceeds identically). Add() keeps the first non-"off" status.
  std::string perf = "off";

  // Element-wise accumulation (time-to-stop takes the max, -1 meaning
  // "never stopped" loses to any real stop time).
  void Add(const SolveStats& other);

  // Writes this struct as one JSON object (stable key names — see
  // docs/observability.md).
  void WriteJson(JsonWriter* json) const;

  // Multi-line human rendering for `--stats`, one "name : value" per line,
  // prefixed by `indent`.
  std::string FormatHuman(const std::string& indent) const;

  // Folds this request's counters into the process-wide registry under
  // "solve.<field>" and records solve_wall_us into the "solve.wall_us"
  // histogram. When perf counters ran for this request (perf != "off"),
  // additionally publishes the hardware-counter fields under "perf.<name>"
  // (exposed as pebblejoin_perf_*_total in OpenMetrics); a perf-off request
  // leaves those families untouched so expositions stay byte-stable. A
  // disabled registry makes this a sequence of no-ops.
  void PublishTo(MetricsRegistry* registry) const;
};

// The counters-only probe of one solver hot loop: meters the calling
// thread into (budget->stats()->*field) when the request has perf on and a
// stats sink (BudgetContext::perf_group), and is a no-op otherwise.
Probe HotLoopCounters(const BudgetContext* budget,
                      PerfCounts SolveStats::*field);

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_OBS_SOLVE_STATS_H_
