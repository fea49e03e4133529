#include "core/report.h"

#include <cstdio>

#include "obs/json.h"
#include "obs/metrics.h"

namespace pebblejoin {

std::string FormatAnalysis(const JoinAnalysis& analysis) {
  return FormatAnalysis(analysis, /*with_stats=*/false);
}

std::string FormatAnalysis(const JoinAnalysis& analysis, bool with_stats) {
  char line[256];
  std::string out;

  std::snprintf(line, sizeof(line), "join predicate : %s\n",
                PredicateClassName(analysis.predicate));
  out += line;
  std::snprintf(line, sizeof(line), "|R| x |S|      : %d x %d\n",
                analysis.left_size, analysis.right_size);
  out += line;
  std::snprintf(line, sizeof(line),
                "output size m  : %lld  (components: %lld)\n",
                static_cast<long long>(analysis.output_size),
                static_cast<long long>(
                    analysis.classification.bounds.betti_zero));
  out += line;
  std::snprintf(line, sizeof(line), "equijoin shape : %s\n",
                analysis.classification.equijoin_shape ? "yes" : "no");
  out += line;
  const PebblingBounds& bounds = analysis.classification.bounds;
  std::snprintf(line, sizeof(line),
                "pi(G) bounds   : %lld <= pi <= %lld  "
                "(Thm 3.1 bound: %lld)\n",
                static_cast<long long>(bounds.lower),
                static_cast<long long>(bounds.upper_general),
                static_cast<long long>(bounds.upper_dfs_bound));
  out += line;
  std::snprintf(line, sizeof(line),
                "achieved       : pi_hat=%lld  pi=%lld  jumps=%lld  "
                "ratio=%.4f%s\n",
                static_cast<long long>(analysis.solution.hat_cost),
                static_cast<long long>(analysis.solution.effective_cost),
                static_cast<long long>(analysis.solution.jumps),
                analysis.cost_ratio,
                analysis.perfect ? "  (perfect)" : "");
  out += line;
  // Per-component solve provenance: which ladder rungs ran and why each
  // stopped. One line per component, matching solver_used's order; with
  // stats on, each rung also carries its wall clock.
  for (size_t c = 0; c < analysis.solution.outcomes.size(); ++c) {
    std::snprintf(line, sizeof(line), "component %zu    : ", c);
    out += line;
    out += analysis.solution.outcomes[c].Summary(with_stats);
    out += '\n';
    const LadderPlanInfo& plan = analysis.solution.outcomes[c].plan;
    if (plan.active) {
      std::snprintf(line, sizeof(line),
                    "  plan         : start=%s predicted_rung=%d "
                    "actual_rung=%d cap_ms=%lld saved_ms=%lld\n",
                    plan.predicted_solver.c_str(), plan.predicted_rung,
                    plan.actual_rung,
                    static_cast<long long>(plan.exact_cap_ms),
                    static_cast<long long>(plan.budget_saved_ms));
      out += line;
    }
  }
  if (with_stats && !analysis.solution.component_wall_us.empty()) {
    // Exact nearest-rank percentiles over the per-component wall clocks —
    // the tail profile of the fan-out, not just its sum.
    std::snprintf(
        line, sizeof(line),
        "component wall : p50=%lldus p95=%lldus p99=%lldus (%zu components)\n",
        static_cast<long long>(
            PercentileOfSamples(analysis.solution.component_wall_us, 0.50)),
        static_cast<long long>(
            PercentileOfSamples(analysis.solution.component_wall_us, 0.95)),
        static_cast<long long>(
            PercentileOfSamples(analysis.solution.component_wall_us, 0.99)),
        analysis.solution.component_wall_us.size());
    out += line;
  }
  if (with_stats) {
    out += "solver stats   :\n";
    out += analysis.stats.FormatHuman("  ");
  }
  return out;
}

std::string FormatPerfStats(const JoinAnalysis& analysis) {
  const SolveStats& s = analysis.stats;
  char line[256];
  std::string out;

  std::snprintf(line, sizeof(line), "perf counters  : %s\n", s.perf.c_str());
  out += line;
  if (s.perf == "off") return out;

  std::snprintf(line, sizeof(line), "  %-10s %14s %14s %14s %10s\n", "stage",
                "cycles", "instructions", "cache_misses", "wall_us");
  out += line;
  for (int i = 0; i < kNumPipelineStages; ++i) {
    const ProbeSample& stage = s.stages[i];
    std::snprintf(line, sizeof(line), "  %-10s %14lld %14lld %14lld %10lld\n",
                  kPipelineStageNames[i],
                  static_cast<long long>(stage.perf.cycles),
                  static_cast<long long>(stage.perf.instructions),
                  static_cast<long long>(stage.perf.cache_misses),
                  static_cast<long long>(stage.wall_us));
    out += line;
  }
  // IPC on the request thread: the single most readable "was this
  // memory-bound" number a stage table can summarize to.
  const PerfCounts total = s.perf_total();
  const double ipc = total.cycles > 0
                         ? static_cast<double>(total.instructions) /
                               static_cast<double>(total.cycles)
                         : 0.0;
  std::snprintf(line, sizeof(line),
                "  total: cycles=%lld insns=%lld ipc=%.2f cache_refs=%lld "
                "cache_misses=%lld branch_misses=%lld\n",
                static_cast<long long>(total.cycles),
                static_cast<long long>(total.instructions), ipc,
                static_cast<long long>(total.cache_references),
                static_cast<long long>(total.cache_misses),
                static_cast<long long>(total.branch_misses));
  out += line;
  std::snprintf(line, sizeof(line),
                "  hot loops: bnb=%lld/%lld hk=%lld/%lld ls=%lld/%lld "
                "(cycles/cache_misses, all worker threads)\n",
                static_cast<long long>(s.bnb_perf.cycles),
                static_cast<long long>(s.bnb_perf.cache_misses),
                static_cast<long long>(s.hk_perf.cycles),
                static_cast<long long>(s.hk_perf.cache_misses),
                static_cast<long long>(s.ls_perf.cycles),
                static_cast<long long>(s.ls_perf.cache_misses));
  out += line;
  return out;
}

namespace {

void WriteOutcomeJson(const SolveOutcome& outcome, JsonWriter* json) {
  json->BeginObject();
  json->Key("attempts");
  json->BeginArray();
  for (const RungAttempt& attempt : outcome.attempts) {
    json->BeginObject();
    json->Field("solver", attempt.solver);
    json->Field("status", RungStatusName(attempt.status));
    json->Field("cost", attempt.cost);
    json->Field("elapsed_us", attempt.elapsed_us);
    json->Field("cycles", attempt.cycles);
    json->Field("cache_misses", attempt.cache_misses);
    json->EndObject();
  }
  json->EndArray();
  json->Field("winner", outcome.winner);
  json->Field("status", RungStatusName(outcome.status));
  json->Field("optimal", outcome.optimal);
  json->Field("effective_cost", outcome.effective_cost);
  json->Field("lower_bound", outcome.lower_bound);
  json->Field("degradation", RungStatusName(outcome.degradation));
  json->Field("degraded", outcome.degraded());
  // Planner provenance, only when a calibrated plan drove this descent —
  // the default blind ladder keeps its document byte-identical to the
  // planner-less build.
  if (outcome.plan.active) {
    json->Key("plan");
    json->BeginObject();
    json->Field("predicted_solver", outcome.plan.predicted_solver);
    json->Field("predicted_rung", outcome.plan.predicted_rung);
    json->Field("actual_rung", outcome.plan.actual_rung);
    json->Field("exact_cap_ms", outcome.plan.exact_cap_ms);
    json->Field("predicted_exact_us", outcome.plan.predicted_exact_us);
    json->Field("predicted_ils_us", outcome.plan.predicted_ils_us);
    json->Field("predicted_ls_us", outcome.plan.predicted_ls_us);
    json->Field("budget_saved_ms", outcome.plan.budget_saved_ms);
    json->EndObject();
  }
  json->EndObject();
}

}  // namespace

void WriteAnalysisJson(const JoinAnalysis& analysis, JsonWriter* json) {
  const PebblingBounds& bounds = analysis.classification.bounds;
  json->BeginObject();
  // Leading echo of the client's correlation id; omitted when the request
  // carried none, so id-less documents keep their exact historical bytes.
  if (!analysis.request_id.empty()) {
    json->Field("id", analysis.request_id);
  }
  json->Field("predicate", PredicateClassName(analysis.predicate));
  json->Field("left_size", analysis.left_size);
  json->Field("right_size", analysis.right_size);
  json->Field("output_size", analysis.output_size);

  json->Key("classification");
  json->BeginObject();
  json->Field("equijoin_shape", analysis.classification.equijoin_shape);
  json->Field("realizable_as",
              PredicateClassName(analysis.classification.realizable_as));
  json->Key("bounds");
  json->BeginObject();
  json->Field("num_edges", bounds.num_edges);
  json->Field("betti_zero", bounds.betti_zero);
  json->Field("lower", bounds.lower);
  json->Field("upper_general", bounds.upper_general);
  json->Field("upper_dfs_bound", bounds.upper_dfs_bound);
  json->EndObject();
  json->EndObject();

  json->Key("solution");
  json->BeginObject();
  json->Field("hat_cost", analysis.solution.hat_cost);
  json->Field("effective_cost", analysis.solution.effective_cost);
  json->Field("jumps", analysis.solution.jumps);
  json->Field("num_components", analysis.solution.num_components);
  // Per-component wall-clock percentiles (-1 on an empty graph). The
  // `_us` suffix keeps them inside the timing-normalization contract
  // (tools/json_normalize.py, tests/json_test_util.h).
  json->Field("component_wall_p50_us",
              PercentileOfSamples(analysis.solution.component_wall_us, 0.50));
  json->Field("component_wall_p95_us",
              PercentileOfSamples(analysis.solution.component_wall_us, 0.95));
  json->Field("component_wall_p99_us",
              PercentileOfSamples(analysis.solution.component_wall_us, 0.99));
  json->Key("solver_used");
  json->BeginArray();
  for (const std::string& name : analysis.solution.solver_used) {
    json->String(name);
  }
  json->EndArray();
  json->Key("outcomes");
  json->BeginArray();
  for (const SolveOutcome& outcome : analysis.solution.outcomes) {
    WriteOutcomeJson(outcome, json);
  }
  json->EndArray();
  json->Key("edge_order");
  json->BeginArray();
  for (int e : analysis.solution.edge_order) json->Int(e);
  json->EndArray();
  json->EndObject();

  json->Field("perfect", analysis.perfect);
  json->Field("cost_ratio", analysis.cost_ratio);
  json->Key("stats");
  analysis.stats.WriteJson(json);
  json->EndObject();
}

std::string AnalysisJson(const JoinAnalysis& analysis) {
  JsonWriter json;
  WriteAnalysisJson(analysis, &json);
  return json.TakeString();
}

}  // namespace pebblejoin
