#include "engine/jsonl_request.h"

#include <utility>

#include "core/report.h"
#include "engine/names.h"
#include "io/graph_io.h"
#include "obs/json.h"
#include "obs/json_value.h"
#include "obs/log.h"
#include "util/check.h"

namespace pebblejoin {

namespace {

// A non-negative int64 member, with kind and range validated. Returns
// false (with a one-line reason) on any mismatch.
bool ReadNonNegative(const JsonValue& value, const std::string& key,
                     int64_t* out, std::string* error) {
  const std::optional<int64_t> parsed = value.int64_value();
  if (!parsed.has_value() || *parsed < 0) {
    *error = "\"" + key + "\" needs a non-negative integer";
    return false;
  }
  *out = *parsed;
  return true;
}

// The "id" key must be a non-empty string of at most this many bytes —
// long enough for any reasonable correlation scheme, short enough that a
// hostile client cannot bloat journals and status tables.
constexpr size_t kMaxRequestIdBytes = 128;

const char* DispositionName(JsonlRequestRunner::Disposition disposition) {
  switch (disposition) {
    case JsonlRequestRunner::Disposition::kSolved:
      return "solved";
    case JsonlRequestRunner::Disposition::kError:
      return "error";
    case JsonlRequestRunner::Disposition::kRejected:
      return "rejected";
  }
  return "error";
}

}  // namespace

std::string JsonlErrorRecord(int64_t line_number, const std::string& message) {
  JsonWriter json;
  json.BeginObject();
  json.Field("line", line_number);
  json.Field("error", message);
  json.EndObject();
  return json.TakeString();
}

bool JsonlLineIsBlank(const std::string& line) {
  for (char c : line) {
    if (c != ' ' && c != '\t' && c != '\r') return false;
  }
  return true;
}

JsonlRequestRunner::JsonlRequestRunner(SolveEngine* engine, Defaults defaults)
    : engine_(engine), defaults_(std::move(defaults)) {
  JP_CHECK(engine_ != nullptr);
}

std::string JsonlRequestRunner::Run(const std::string& line,
                                    int64_t line_number,
                                    const LineContext& context,
                                    Outcome* outcome) const {
  const std::string response = Dispatch(line, line_number, context, outcome);
  // One journal record per processed line, carrying the effective id —
  // the hop that lets `grep '"id":"..."'` find a request in the journal
  // even when the line never reached the solver.
  Journal* journal = engine_->defaults().journal;
  if (journal != nullptr) {
    journal->Emit(LogLevel::kInfo, "request.done",
                  {LogField::Str("id", outcome->request_id),
                   LogField::Num("line", line_number),
                   LogField::Str("disposition",
                                 DispositionName(outcome->disposition)),
                   LogField::Flag("degraded", outcome->degraded),
                   LogField::Num("wall_us", outcome->wall_us)});
  }
  return response;
}

std::string JsonlRequestRunner::Dispatch(const std::string& line,
                                         int64_t line_number,
                                         const LineContext& context,
                                         Outcome* outcome) const {
  outcome->disposition = Disposition::kError;
  outcome->degraded = false;
  outcome->request_id = context.fallback_id;
  outcome->client_id = false;
  outcome->wall_us = 0;
  outcome->provenance.clear();

  std::string error;
  JsonValue::ParseLimits limits;
  if (defaults_.max_line_bytes > 0) {
    limits.max_bytes = defaults_.max_line_bytes;
  }
  const std::optional<JsonValue> doc = JsonValue::Parse(line, &error, limits);
  if (!doc.has_value()) return JsonlErrorRecord(line_number, error);
  if (!doc->is_object()) {
    return JsonlErrorRecord(line_number,
                            std::string("expected a JSON object, got ") +
                                JsonValue::KindName(doc->kind()));
  }

  // Per-line request state, seeded from the engine's request defaults; an
  // unset solver/planner means the engine default.
  std::optional<BipartiteGraph> graph;
  PredicateClass predicate = defaults_.predicate;
  std::optional<SolverChoice> solver;
  std::optional<PlannerChoice> planner;
  SolveBudget budget = engine_->defaults().budget;
  bool budget_keys = false;  // the line set its own budget

  for (const auto& [key, value] : doc->object_members()) {
    if (key == "graph") {
      if (!value.is_string()) {
        return JsonlErrorRecord(line_number, "\"graph\" needs a string");
      }
      graph = ParseBipartiteGraph(value.string_value(), &error);
      if (!graph.has_value()) return JsonlErrorRecord(line_number, error);
    } else if (key == "predicate") {
      if (!value.is_string() ||
          !ParsePredicateName(value.string_value(), &predicate)) {
        return JsonlErrorRecord(line_number,
                                std::string("\"predicate\" needs one of: ") +
                                    PredicateNameList());
      }
    } else if (key == "solver") {
      SolverChoice choice = SolverChoice::kAuto;
      if (!value.is_string() ||
          !ParseSolverName(value.string_value(), &choice)) {
        return JsonlErrorRecord(line_number,
                                std::string("\"solver\" needs one of: ") +
                                    SolverNameList());
      }
      solver = choice;
    } else if (key == "planner") {
      PlannerChoice choice = PlannerChoice::kLadder;
      if (!value.is_string() ||
          !ParsePlannerName(value.string_value(), &choice)) {
        return JsonlErrorRecord(line_number,
                                std::string("\"planner\" needs one of: ") +
                                    PlannerNameList());
      }
      planner = choice;
    } else if (key == "deadline_ms") {
      if (!ReadNonNegative(value, key, &budget.deadline_ms, &error)) {
        return JsonlErrorRecord(line_number, error);
      }
      budget_keys = true;
    } else if (key == "node_budget") {
      if (!ReadNonNegative(value, key, &budget.node_budget, &error)) {
        return JsonlErrorRecord(line_number, error);
      }
      budget_keys = true;
    } else if (key == "memory_mb") {
      int64_t mb = 0;
      if (!ReadNonNegative(value, key, &mb, &error) ||
          mb > (int64_t{1} << 40)) {
        return JsonlErrorRecord(line_number,
                                "\"memory_mb\" needs a non-negative integer");
      }
      budget.memory_limit_bytes = mb << 20;
      budget_keys = true;
    } else if (key == "id") {
      if (!value.is_string() || value.string_value().empty() ||
          value.string_value().size() > kMaxRequestIdBytes) {
        return JsonlErrorRecord(
            line_number, "\"id\" needs a non-empty string of at most 128 bytes");
      }
      outcome->request_id = value.string_value();
      outcome->client_id = true;
    } else {
      return JsonlErrorRecord(line_number, "unknown key \"" + key + "\"");
    }
  }
  if (!graph.has_value()) {
    return JsonlErrorRecord(line_number, "missing required key \"graph\"");
  }
  // The CLI convention: a budget without a solver named anywhere selects
  // the ladder, which degrades instead of refusing. A surface-level budget
  // already chose the ladder when the engine defaults were built.
  if (budget_keys && !solver.has_value() &&
      engine_->defaults().solver == SolverChoice::kAuto) {
    solver = SolverChoice::kFallback;
  }

  // Admission against the aggregate pool, judged at the line's start time
  // — under fan-out that is the worker's start, which is exactly the
  // admission semantics a shared pool implies.
  bool admission_clamped = false;
  if (context.admission != nullptr && !context.admission->unlimited()) {
    if (!context.admission->Admit(context.now_ms, &budget)) {
      outcome->disposition = Disposition::kRejected;
      return JsonlErrorRecord(line_number,
                              "rejected: " + context.reject_reason);
    }
    admission_clamped = true;
  }
  if (defaults_.deadline_cap_ms >= 0) {
    ClampDeadline(&budget, defaults_.deadline_cap_ms);
    admission_clamped = true;
  }

  SolveRequest request;
  request.graph = &*graph;
  request.predicate = predicate;
  request.solver = solver;
  request.planner = planner;
  request.journal_line = line_number;
  request.request_id = outcome->request_id;
  request.echo_id = outcome->client_id;
  request.trace = context.trace;
  if (budget_keys || admission_clamped) request.budget = budget;
  const SolveResult result = engine_->Solve(request);
  outcome->disposition = Disposition::kSolved;
  outcome->wall_us = result.analysis.stats.solve_wall_us;
  outcome->degraded = result.analysis.solution.FirstDegraded() != nullptr;
  outcome->provenance = result.analysis.solution.Winners();
  return AnalysisJson(result.analysis);
}

}  // namespace pebblejoin
