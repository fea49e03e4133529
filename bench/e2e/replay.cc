#include "replay.h"

#include <cmath>
#include <memory>
#include <optional>

#include "core/classifier.h"
#include "core/report.h"
#include "engine/names.h"
#include "graph/components.h"
#include "harness.h"
#include "io/graph_io.h"
#include "json_test_util.h"
#include "obs/json_value.h"
#include "obs/trace.h"
#include "oracle.h"

namespace pebblejoin::e2e {

const char* const kLayers[10] = {
    "obs.json_parse", "io.graph_parse",      "graph.build",
    "core.classify",  "graph.partition",     "solver.solve",
    "pebble.verify",  "obs.metrics_publish", "core.report",
    "engine.teardown"};

int Tracer::BeginRequest() {
  const int index = static_cast<int>(spans_.size());
  spans_.push_back({"request", -1, index, NowNs(), 0, 0});
  return index;
}

int Tracer::Begin(const char* name, int parent) {
  spans_.push_back({name, parent, spans_[parent].request, NowNs(), 0, 0});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int span, int64_t count) {
  spans_[span].end_ns = NowNs();
  spans_[span].count = count;
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              std::string* error) const {
  TraceSession session;
  const int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& span : spans_) {
    session.Complete(span.name, span.parent < 0 ? "request" : "layer",
                     (span.start_ns - epoch) / 1000,
                     (span.end_ns - span.start_ns) / 1000,
                     {TraceArg::Num("request", span.request),
                      TraceArg::Num("parent", span.parent),
                      TraceArg::Num("count", span.count)});
  }
  return session.WriteFile(path, error);
}

namespace {

// The solver stack SolveEngine builds with default options, so the solve
// layer can be called directly with the primary the engine would pick.
struct ReplayStack {
  SortMergePebbler sort_merge;
  GreedyWalkPebbler greedy;
  LocalSearchPebbler local_search;
  FallbackPebbler fallback;
  MetricsRegistry metrics{/*enabled=*/true};

  // The workloads send only auto and fallback requests.
  const Pebbler* Primary(SolverChoice choice,
                         const JoinGraphClassification& c) const {
    if (choice == SolverChoice::kFallback) return &fallback;
    if (choice != SolverChoice::kAuto) return nullptr;
    return c.equijoin_shape ? static_cast<const Pebbler*>(&sort_merge)
                            : static_cast<const Pebbler*>(&local_search);
  }
};

// Everything one request allocates. Freeing it is the engine.teardown
// layer: on large requests the frees are a measurable share of the call.
struct RequestState {
  std::optional<JsonValue> doc;
  std::optional<BipartiteGraph> graph;
  Graph flat;
  ComponentDecomposition decomp;
  JoinAnalysis analysis;
};

void Teardown(std::unique_ptr<RequestState> state, int root, Tracer* tracer) {
  const int span = tracer->Begin("engine.teardown", root);
  state.reset();
  tracer->End(span);
}

// The SolveEngine stages from build to metrics publish, into
// state->analysis. False (with *error) when the solver choice is not
// replayed or verification fails.
bool SolveLayers(ReplayStack* stack, const BipartiteGraph& graph,
                 PredicateClass predicate, SolverChoice solver,
                 const SolveBudget& budget, ThreadPool* pool, int threads,
                 int root, Tracer* tracer, RequestState* state,
                 std::string* error) {
  JoinAnalysis* analysis = &state->analysis;
  analysis->predicate = predicate;
  analysis->left_size = graph.left_size();
  analysis->right_size = graph.right_size();
  analysis->output_size = graph.num_edges();

  int span = tracer->Begin("graph.build", root);
  state->flat = graph.ToGraph();
  state->flat.BuildCsr();
  tracer->End(span);
  const Graph& flat = state->flat;

  span = tracer->Begin("core.classify", root);
  analysis->classification = ClassifyJoinGraph(flat);
  analysis->features = ExtractGraphFeatures(flat);
  tracer->End(span);

  span = tracer->Begin("graph.partition", root);
  state->decomp = FindComponents(flat);
  tracer->End(span, state->decomp.num_components);

  const Pebbler* primary = stack->Primary(solver, analysis->classification);
  if (primary == nullptr) {
    *error = std::string("solver not replayed: ") + SolverChoiceName(solver);
    return false;
  }
  span = tracer->Begin("solver.solve", root);
  ComponentPebbler::Options options;
  options.threads = threads;
  options.pool = pool;
  const ComponentPebbler driver(primary, &stack->greedy, options);
  BudgetContext context(budget);
  context.set_stats(&analysis->stats);
  context.set_features(&analysis->features);
  analysis->solution = driver.SolveDecomposed(flat, state->decomp, &context);
  analysis->stats.budget_polls = context.polls();
  analysis->stats.budget_time_to_stop_ms = context.stopped_elapsed_ms();
  tracer->End(span, graph.num_edges());

  span = tracer->Begin("pebble.verify", root);
  const bool verified =
      ComponentPebbler::TryVerifyAndCost(flat, &analysis->solution, error);
  tracer->End(span);
  if (!verified) return false;

  analysis->perfect =
      analysis->solution.effective_cost == analysis->output_size;
  analysis->cost_ratio =
      analysis->output_size == 0
          ? 1.0
          : static_cast<double>(analysis->solution.effective_cost) /
                static_cast<double>(analysis->output_size);

  span = tracer->Begin("obs.metrics_publish", root);
  analysis->stats.PublishTo(&stack->metrics);
  tracer->End(span);
  return true;
}

// JsonlRequestRunner::Run, layer by layer, for the keys the workloads send.
std::string ReplayLineLayers(ReplayStack* stack, const std::string& line,
                             int root, Tracer* tracer, RequestState* state) {
  std::string error;
  int span = tracer->Begin("obs.json_parse", root);
  state->doc = JsonValue::Parse(line, &error);
  tracer->End(span, static_cast<int64_t>(line.size()));
  if (!state->doc.has_value() || !state->doc->is_object()) {
    return JsonlErrorRecord(1, "replay: " + error);
  }
  PredicateClass predicate = PredicateClass::kGeneral;
  std::optional<SolverChoice> solver;
  SolveBudget budget;
  bool budget_set = false;
  const JsonValue* graph_text = nullptr;
  for (const auto& [key, value] : state->doc->object_members()) {
    bool understood = true;
    if (key == "graph") {
      graph_text = &value;
    } else if (key == "predicate") {
      understood = ParsePredicateName(value.string_value(), &predicate);
    } else if (key == "solver") {
      SolverChoice choice = SolverChoice::kAuto;
      understood = ParseSolverName(value.string_value(), &choice);
      solver = choice;
    } else if (key == "deadline_ms") {
      understood = value.int64_value().has_value();
      budget.deadline_ms = value.int64_value().value_or(0);
      budget_set = true;
    } else {
      understood = false;
    }
    if (!understood) {
      return JsonlErrorRecord(1, "replay: unsupported member \"" + key + "\"");
    }
  }
  if (graph_text == nullptr) return JsonlErrorRecord(1, "replay: no graph");
  if (budget_set && !solver.has_value()) solver = SolverChoice::kFallback;

  span = tracer->Begin("io.graph_parse", root);
  state->graph = ParseBipartiteGraph(graph_text->string_value(), &error);
  tracer->End(span, state->graph.has_value() ? state->graph->num_edges() : 0);
  if (!state->graph.has_value()) return JsonlErrorRecord(1, error);

  if (!SolveLayers(stack, *state->graph, predicate,
                   solver.value_or(SolverChoice::kAuto), budget, nullptr, 1,
                   root, tracer, state, &error)) {
    return JsonlErrorRecord(1, "replay: " + error);
  }
  span = tracer->Begin("core.report", root);
  std::string response = AnalysisJson(state->analysis);
  tracer->End(span, static_cast<int64_t>(response.size()));
  return response;
}

std::string ReplayLine(ReplayStack* stack, const std::string& line, int root,
                       Tracer* tracer) {
  auto state = std::make_unique<RequestState>();
  std::string response =
      ReplayLineLayers(stack, line, root, tracer, state.get());
  Teardown(std::move(state), root, tracer);
  return response;
}

// Folds the spans of the request rooted at `root` into `report`; returns
// {request wall, summed layer time} in microseconds.
std::pair<double, double> Collect(const Tracer& tracer, int root,
                                  ReplayReport* report) {
  const std::vector<Span>& spans = tracer.spans();
  const auto us = [](const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
  };
  double layers_us = 0;
  for (size_t i = static_cast<size_t>(root) + 1; i < spans.size(); ++i) {
    LayerTimes& layer = report->layers[spans[i].name];
    layer.us.push_back(us(spans[i]));
    layer.total_us += us(spans[i]);
    layer.count += static_cast<double>(spans[i].count);
    layers_us += us(spans[i]);
  }
  const double request_us = us(spans[root]);
  report->request_us += request_us;
  ++report->requests;
  return {request_us, layers_us};
}

// Per-request timings across repetitions, reduced to per-request minima:
// interference only ever adds time, so the fastest repetition of each
// side is the one least disturbed by it.
class Reps {
 public:
  explicit Reps(size_t n) : run_(n), layers_(n), traced_(n) {}

  void Add(size_t i, double run_us, std::pair<double, double> traced,
           ReplayReport* report) {
    run_[i].push_back(run_us);
    traced_[i].push_back(traced.first);
    layers_[i].push_back(traced.second);
    report->run_line_us.push_back(run_us);
  }

  void Finish(ReplayReport* report) const {
    double run = 0;
    double layers = 0;
    double traced = 0;
    for (size_t i = 0; i < run_.size(); ++i) {
      run += Quantile(run_[i], 0);
      layers += Quantile(layers_[i], 0);
      traced += Quantile(traced_[i], 0);
    }
    if (run <= 0) return;
    report->residual_share = std::fabs(run - layers) / run;
    report->trace_overhead_share = (traced - run) / run;
  }

 private:
  std::vector<std::vector<double>> run_, layers_, traced_;
};

void RecordMismatch(const std::string& what, ReplayReport* report) {
  if (report->mismatches++ == 0) report->first_mismatch = what.substr(0, 200);
}

}  // namespace

ReplayReport ReplayJsonl(const std::vector<const RequestLine*>& lines, int reps,
                         const JsonlRequestRunner& runner, Tracer* tracer) {
  ReplayStack stack;
  ReplayReport report;
  Reps timings(lines.size());
  JsonlRequestRunner::LineContext context;
  JsonlRequestRunner::Outcome outcome;
  for (int r = 0; r < reps; ++r) {
    for (size_t i = 0; i < lines.size(); ++i) {
      const RequestLine& line = *lines[i];
      std::string expected;
      double run_us = 0;
      const auto run = [&] {
        const int64_t start = NowNs();
        expected = runner.Run(line.text, 1, context, &outcome);
        run_us = static_cast<double>(NowNs() - start) / 1000.0;
      };
      // Which of the pair runs first alternates, so warm caches favour
      // neither side of the residual.
      if ((r + i) % 2 == 0) run();
      const int root = tracer->BeginRequest();
      const std::string replayed = ReplayLine(&stack, line.text, root, tracer);
      tracer->End(root);
      if ((r + i) % 2 == 1) run();
      const std::pair<double, double> traced = Collect(*tracer, root, &report);
      // A budgeted line runs until its deadline poll fires, so its two
      // executions differ by clock jitter, not by unmeasured layers.
      if (!line.budgeted) timings.Add(i, run_us, traced, &report);
      report.edges += line.edges;
      if (r > 0) continue;
      const bool same = line.budgeted ? CheckBudgeted(line, replayed).ok
                                      : NormalizeTimings(replayed) ==
                                            NormalizeTimings(expected);
      if (!same) RecordMismatch(replayed, &report);
    }
  }
  timings.Finish(&report);
  return report;
}

ReplayReport ReplayGraphs(const std::vector<BipartiteGraph>& graphs, int reps,
                          SolveEngine* engine, Tracer* tracer) {
  ReplayStack stack;
  ReplayReport report;
  Reps timings(graphs.size());
  const int threads = engine->defaults().threads;
  ThreadPool* pool = threads > 1 ? engine->EnsurePool(threads) : nullptr;
  for (int r = 0; r < reps; ++r) {
    for (size_t i = 0; i < graphs.size(); ++i) {
      SolveRequest request;
      request.graph = &graphs[i];
      // Solve returns its analysis to the caller, so neither side's timing
      // includes freeing it.
      std::optional<SolveResult> expected;
      double run_us = 0;
      const auto run = [&] {
        const int64_t start = NowNs();
        expected.emplace(engine->Solve(request));
        run_us = static_cast<double>(NowNs() - start) / 1000.0;
      };
      if ((r + i) % 2 == 0) run();
      const int root = tracer->BeginRequest();
      auto state = std::make_unique<RequestState>();
      std::string error;
      const bool ok = SolveLayers(&stack, graphs[i], PredicateClass::kGeneral,
                                  SolverChoice::kAuto, SolveBudget(), pool,
                                  threads, root, tracer, state.get(), &error);
      const JoinAnalysis replayed = std::move(state->analysis);
      Teardown(std::move(state), root, tracer);
      tracer->End(root);
      if ((r + i) % 2 == 1) run();
      timings.Add(i, run_us, Collect(*tracer, root, &report), &report);
      report.edges += graphs[i].num_edges();
      if (r > 0) continue;
      if (!ok) {
        RecordMismatch(error, &report);
      } else if (NormalizeTimings(AnalysisJson(replayed)) !=
                 NormalizeTimings(AnalysisJson(expected->analysis))) {
        RecordMismatch(AnalysisJson(replayed), &report);
      }
    }
  }
  timings.Finish(&report);
  return report;
}

}  // namespace pebblejoin::e2e
