#include "engine/solve_engine.h"

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/names.h"
#include "graph/components.h"
#include "graph/graph_properties.h"
#include "obs/probe.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace pebblejoin {

namespace {

// The calibrated ladder: the default ladder, consulting `planner`.
FallbackPebbler::Options PlannedLadderOptions(const LadderPlanner* planner) {
  FallbackPebbler::Options ladder;
  ladder.planner = planner;
  return ladder;
}

}  // namespace

SolveEngine::SolveEngine(Options options)
    : options_(options),
      own_metrics_(/*enabled=*/true),
      planner_(options.defaults.cost_model),
      calibrated_fallback_(PlannedLadderOptions(&planner_)) {
  JP_CHECK_MSG(options_.defaults.threads >= 1, "threads must be >= 1");
}

SolveEngine::~SolveEngine() = default;

MetricsRegistry* SolveEngine::metrics() {
  return options_.defaults.metrics != nullptr ? options_.defaults.metrics
                                              : &own_metrics_;
}

ThreadPool* SolveEngine::EnsurePool(int threads) {
  JP_CHECK_MSG(threads >= 2, "EnsurePool needs at least two workers");
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(threads);
  return pool_.get();
}

ThreadPool* SolveEngine::pool() {
  std::lock_guard<std::mutex> lock(pool_mu_);
  return pool_.get();
}

const Pebbler& SolveEngine::PrimaryFor(
    SolverChoice choice, const JoinGraphClassification& c) const {
  switch (choice) {
    case SolverChoice::kAuto:
      return c.equijoin_shape ? static_cast<const Pebbler&>(sort_merge_)
                              : static_cast<const Pebbler&>(local_search_);
    case SolverChoice::kSortMerge:
      return sort_merge_;
    case SolverChoice::kGreedyWalk:
      return greedy_;
    case SolverChoice::kDfsTree:
      return dfs_tree_;
    case SolverChoice::kLocalSearch:
      return local_search_;
    case SolverChoice::kIls:
      return ils_;
    case SolverChoice::kExact:
      return exact_;
    case SolverChoice::kFallback:
      return fallback_;
  }
  return greedy_;
}

SolveResult SolveEngine::Solve(const SolveRequest& request) {
  JP_CHECK_MSG(request.graph != nullptr, "SolveRequest needs a graph");
  const AnalyzerOptions& defaults = options_.defaults;
  const SolverChoice solver = request.solver.value_or(defaults.solver);
  const PlannerChoice planner = request.planner.value_or(defaults.planner);
  const SolveBudget budget = request.budget.value_or(defaults.budget);
  TraceSession* trace =
      request.trace != nullptr ? request.trace : defaults.trace;
  int threads = request.threads.value_or(defaults.threads);
  const bool perf_on = defaults.perf;
  JP_CHECK_MSG(threads >= 1, "threads must be >= 1");
  // A request already running on a pool worker (a batch fan-out task) is
  // solved sequentially: fanning out again on the same pool would have the
  // worker wait on itself.
  if (ThreadPool::CurrentWorkerId() != -1) threads = 1;

  SolveResult result;
  JoinAnalysis& analysis = result.analysis;
  SolveStats& stats = analysis.stats;
  analysis.predicate = request.predicate;
  analysis.left_size = request.graph->left_size();
  analysis.right_size = request.graph->right_size();
  analysis.output_size = request.graph->num_edges();
  // Echo the correlation id only when it was client-supplied; generated
  // fallback ids correlate journals and traces without touching the
  // response bytes.
  if (request.echo_id) analysis.request_id = request.request_id;
  if (trace != nullptr && !request.request_id.empty()) {
    // Tag the request's trace stream so a sampled Chrome trace can be
    // matched back to its journal events and response line by id.
    trace->Instant("request", "correlate",
                   {TraceArg::Str("id", request.request_id)});
  }

  // Per-request event carrier: tees into the session journal and retains
  // the flight-recorder ring. Built only when a journal is configured.
  std::optional<EventLog> event_log;
  EventLog* log = nullptr;
  if (defaults.journal != nullptr) {
    event_log.emplace(defaults.journal, defaults.flight_recorder);
    if (request.journal_line >= 0) {
      event_log->AddBaseField(LogField::Num("line", request.journal_line));
    }
    if (!request.request_id.empty()) {
      event_log->AddBaseField(LogField::Str("id", request.request_id));
    }
    log = &*event_log;
    log->Emit(LogLevel::kDebug, "solve.begin",
              {LogField::Num("left", analysis.left_size),
               LogField::Num("right", analysis.right_size),
               LogField::Num("edges", analysis.output_size),
               LogField::Str("solver", SolverChoiceName(solver)),
               LogField::Num("threads", threads)});
  }

  // Hardware counters for this request: the request thread's group when
  // perf is requested and the syscall is permitted; otherwise the status
  // string records why the perf fields will stay zero.
  PerfCounterGroup* perf_group = nullptr;
  if (perf_on) {
    PerfCounterGroup* group = PerfCounterGroup::ThisThread();
    if (group->available()) {
      perf_group = group;
      stats.perf = "ok";
    } else {
      stats.perf = "unavailable:" + group->unavailable_reason();
    }
  }
  // One probe per stage, in pipeline order. Each writes its wall clock and
  // (perf on) its counter delta into the stage's record; none records a
  // trace span, so traced requests keep exactly their solver spans.
  const auto stage_probe = [perf_group](PipelineStage stage) {
    return Probe::Timed(kPipelineStageNames[static_cast<int>(stage)],
                        "stage", /*trace=*/nullptr, perf_group);
  };

  // --- build: flatten the bipartite join graph ---------------------------
  Probe build = stage_probe(PipelineStage::kBuild);
  Graph flat = request.graph->ToGraph();
  // Freeze the CSR view eagerly so its cost lands in this stage rather
  // than in whichever stage first traverses the graph.
  flat.BuildCsr();
  stats.stage(PipelineStage::kBuild) = build.Stop();

  // --- partition: connected components (Lemma 2.2 additivity) ------------
  // The request's one decomposition, read by classify and solve alike.
  Probe partition = stage_probe(PipelineStage::kPartition);
  const ComponentDecomposition decomp = FindComponents(flat);
  stats.stage(PipelineStage::kPartition) = partition.Stop();

  // --- classify: shape taxonomy + combinatorial bounds -------------------
  Probe classify = stage_probe(PipelineStage::kClassify);
  const std::optional<std::vector<int>> color = TwoColor(flat);
  analysis.classification = ClassifyJoinGraph(decomp, color);
  // The structural feature vector is classify-stage output like the
  // taxonomy above: extracted once per request, thread-count invariant,
  // and handed to the solve stage through the BudgetContext so the
  // calibrated ladder can plan without re-scanning a single-component
  // graph. Its shape bits are the taxonomy's, decided once above.
  analysis.features =
      ExtractGraphFeatures(flat, decomp, color.has_value(),
                           analysis.classification.equijoin_shape);
  stats.stage(PipelineStage::kClassify) = classify.Stop();

  // --- solve: per-component fan-out over the shared pool -----------------
  Probe solve = stage_probe(PipelineStage::kSolve);
  ComponentPebbler::Options driver_options;
  driver_options.threads = threads;
  if (threads > 1) driver_options.pool = EnsurePool(threads);
  // The calibrated planner only rewires the fallback ladder; every other
  // solver choice ignores it, so those requests stay byte-identical to a
  // planner-less engine.
  const Pebbler* primary = &PrimaryFor(solver, analysis.classification);
  if (planner == PlannerChoice::kCalibrated &&
      solver == SolverChoice::kFallback) {
    primary = &calibrated_fallback_;
  }
  const ComponentPebbler driver(primary, &greedy_, driver_options);
  BudgetContext budget_ctx(budget);
  budget_ctx.set_stats(&stats);
  budget_ctx.set_trace(trace);
  budget_ctx.set_log(log);
  budget_ctx.set_perf_enabled(perf_on);
  budget_ctx.set_features(&analysis.features);
  analysis.solution = driver.SolveDecomposed(flat, decomp, &budget_ctx);
  // Request-thread attribution only: under threads > 1 the workers' cycles
  // land in the hot-loop counters (bnb/hk/ls) via their per-slice stats.
  stats.stage(PipelineStage::kSolve) = solve.Stop();

  // --- verify: induced scheme + verifier-backed costs --------------------
  Probe verify = stage_probe(PipelineStage::kVerify);
  std::string verify_error;
  const bool verified =
      ComponentPebbler::TryVerifyAndCost(flat, &analysis.solution,
                                         &verify_error);
  if (!verified && log != nullptr) {
    // Flush the postmortem trail before the abort the verify contract
    // demands — an invalid scheme is a library bug, and the retained
    // events are the only record of how the solve got there.
    log->Emit(LogLevel::kError, "verify.failed",
              {LogField::Str("error", verify_error)});
    log->DumpFlightRecorder("verifier-failure");
  }
  JP_CHECK_MSG(verified, verify_error.c_str());
  stats.stage(PipelineStage::kVerify) = verify.Stop();

  // --- report: derived fields and budget bookkeeping ---------------------
  Probe report = stage_probe(PipelineStage::kReport);
  stats.solve_wall_us = stats.stage(PipelineStage::kSolve).wall_us +
                        stats.stage(PipelineStage::kVerify).wall_us;
  stats.budget_polls = budget_ctx.polls();
  stats.budget_time_to_stop_ms = budget_ctx.stopped_elapsed_ms();
  analysis.perfect =
      analysis.solution.effective_cost == analysis.output_size;
  analysis.cost_ratio =
      (analysis.output_size == 0)
          ? 1.0
          : static_cast<double>(analysis.solution.effective_cost) /
                static_cast<double>(analysis.output_size);
  stats.stage(PipelineStage::kReport) = report.Stop();
  // Fold the per-request counters into the session's registry (or the
  // injected one). Never the process-global default: that is the caller's
  // explicit opt-in.
  stats.PublishTo(metrics());

  if (log != nullptr) {
    // A degraded outcome gets its postmortem trail now, while the ring
    // still holds the rung/component events that explain it.
    std::string dump_reason;
    if (budget_ctx.stopped()) {
      dump_reason = BudgetStopName(budget_ctx.stop_reason());
    } else if (const SolveOutcome* degraded =
                   analysis.solution.FirstDegraded()) {
      dump_reason =
          std::string("degraded:") + RungStatusName(degraded->degradation);
    }
    if (!dump_reason.empty()) log->DumpFlightRecorder(dump_reason);
    // Tail capture: a request over the slow threshold journals what ran —
    // winning solvers plus the ladder plan when one was active — and
    // flushes its flight recorder if the degraded path above did not
    // already. Compared in milliseconds: the threshold may be as large as
    // INT64_MAX, so scaling it to microseconds could overflow.
    if (defaults.slow_request_ms >= 0 &&
        stats.solve_wall_us / 1000 >= defaults.slow_request_ms) {
      std::vector<LogField> slow_fields = {
          LogField::Num("wall_us", stats.solve_wall_us),
          LogField::Num("threshold_ms", defaults.slow_request_ms),
          LogField::Num("cost", analysis.solution.effective_cost),
          LogField::Str("solvers", analysis.solution.Winners())};
      for (const SolveOutcome& outcome : analysis.solution.outcomes) {
        if (!outcome.plan.active) continue;
        slow_fields.push_back(
            LogField::Str("plan_solver", outcome.plan.predicted_solver));
        slow_fields.push_back(
            LogField::Num("plan_rung", outcome.plan.actual_rung));
        break;
      }
      log->Emit(LogLevel::kWarn, "request.slow", slow_fields);
      if (dump_reason.empty()) log->DumpFlightRecorder("slow-request");
    }
    log->Emit(LogLevel::kInfo, "solve.end",
              {LogField::Num("cost", analysis.solution.effective_cost),
               LogField::Num("jumps", analysis.solution.jumps),
               LogField::Num("components", analysis.solution.num_components),
               LogField::Flag("degraded", !dump_reason.empty()),
               LogField::Str("stop", BudgetStopName(budget_ctx.stop_reason())),
               LogField::Num("wall_us", stats.solve_wall_us)});
  }
  return result;
}

}  // namespace pebblejoin
