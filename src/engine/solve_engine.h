// SolveEngine: the long-lived session behind every analysis.
//
// One engine owns the resources that are worth amortizing across many
// requests — the solver stack, a shared ThreadPool, an engine-scoped
// MetricsRegistry, the default options/budget policy — and exposes a
// staged request pipeline:
//
//   build -> partition -> classify -> solve -> verify -> report
//
// Partition owns the request's one ComponentDecomposition; classify (with
// the one TwoColor) and solve read it rather than rediscover components.
//
// Each stage is a seam: its inputs and outputs are public types
// (Graph, ComponentDecomposition, JoinGraphClassification, PebbleSolution)
// and one Probe (obs/probe.h) measures it into its SolveStats::stages
// record (wall clock, rendered stage_<name>_us, plus counters under
// perf), so stages can be tested, cached, or sharded independently. A request enters as a
// SolveRequest (graph + predicate + per-request overrides of the engine
// defaults) and leaves as a SolveResult carrying the familiar
// JoinAnalysis.
//
// Resource-ownership rules (see docs/architecture.md):
//   - the engine owns its pebblers, its lazily created ThreadPool, and a
//     fallback MetricsRegistry; it never touches process-global state;
//   - an injected MetricsRegistry / TraceSession is borrowed, never owned,
//     and must outlive the engine / the request respectively;
//   - the request's graph is borrowed for the duration of Solve only.
//
// Solve is safe to call concurrently from multiple threads: per-request
// state lives on the caller's stack, the registry is thread-safe, and the
// shared pool is guarded. A request that is itself running on a pool
// worker (e.g. one of BatchRunner's fan-out tasks) is solved sequentially
// regardless of its threads setting — nested fan-out on the same pool
// would deadlock.
//
// JoinAnalyzer (core/analyzer.h) is a thin compatibility facade over a
// private engine; existing callers keep working unchanged.

#ifndef PEBBLEJOIN_ENGINE_SOLVE_ENGINE_H_
#define PEBBLEJOIN_ENGINE_SOLVE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "core/classifier.h"
#include "graph/bipartite_graph.h"
#include "graph/features.h"
#include "join/predicates.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/solve_stats.h"
#include "solver/component_pebbler.h"
#include "solver/dfs_tree_pebbler.h"
#include "solver/exact_pebbler.h"
#include "solver/fallback_pebbler.h"
#include "solver/greedy_walk_pebbler.h"
#include "solver/ils_pebbler.h"
#include "solver/ladder_planner.h"
#include "solver/local_search_pebbler.h"
#include "solver/sort_merge_pebbler.h"
#include "util/budget.h"

namespace pebblejoin {

class ThreadPool;

// Which pebbler drives the analysis.
enum class SolverChoice {
  // Sort-merge on complete-bipartite components, local search elsewhere.
  kAuto,
  kSortMerge,     // refuses non-equijoin shapes (greedy fallback used)
  kGreedyWalk,    // fast, <= 2m
  kDfsTree,       // Theorem 3.1 guarantee, <= m + ⌊(m−1)/4⌋ per component
  kLocalSearch,   // strong polynomial solver
  kIls,           // local search + double-bridge restarts (strongest poly)
  kExact,         // optimal; small components only (greedy fallback beyond)
  kFallback,      // degradation ladder exact→ils→local-search→dfs-tree→greedy
};

// How the fallback ladder orders its rungs when SolverChoice::kFallback
// runs. kLadder — the default — is the blind top-down sequence, preserved
// byte-identically (the contract solve_golden_test and the batch/serve
// diffs pin). kCalibrated plans each descent from the
// instance's GraphFeatures with the engine's cost model
// (solver/ladder_planner.h): the starting rung may move down and the exact
// rung may be wall-clock-capped, trading the proof-of-optimality gamble
// for budget. Solver choices other than kFallback ignore the planner.
enum class PlannerChoice {
  kLadder,
  kCalibrated,
};

// Per-request defaults of one engine (and, through the JoinAnalyzer
// facade, of one analyzer). Every field can be overridden per request via
// SolveRequest.
struct AnalyzerOptions {
  SolverChoice solver = SolverChoice::kAuto;
  // Ladder dispatch policy (see PlannerChoice). Only consulted when the
  // effective solver is kFallback.
  PlannerChoice planner = PlannerChoice::kLadder;
  // Coefficients behind kCalibrated: the compiled-in calibration run by
  // default, or a `--cost-model` file parsed by ParseCostModelJson.
  CostModel cost_model = CostModel::BuiltIn();
  // Worker threads for the per-component fan-out (Lemma 2.2 additivity
  // makes components independent). 1 = sequential on the calling thread.
  // The analysis output is byte-identical for every value; threads only
  // changes wall-clock. See docs/solvers.md, "Threading model".
  int threads = 1;
  // Request-wide ceilings (deadline, node budget, memory). Defaults to
  // unlimited; the per-component fallback always runs unbudgeted, so a
  // stopped request still yields a verified scheme. Under threads > 1 the
  // ceilings are shared across all workers (one deadline, one node pool).
  SolveBudget budget;
  // Optional trace sink: when set, the solve emits spans/instants into it
  // (ladder rungs, components, exact dispatch). Not owned; must outlive the
  // Analyze* call.
  TraceSession* trace = nullptr;
  // Registry the per-request stats fold into after every solve. Borrowed,
  // never owned; nullptr publishes into the engine's own session-scoped
  // registry. Library code never touches MetricsRegistry::Default() — a
  // surface that wants process-global metrics (the CLI, a server) injects
  // it here explicitly.
  MetricsRegistry* metrics = nullptr;
  // Event journal (obs/log.h) the requests emit into: solve begin/end,
  // per-rung and per-component events, and the flight-recorder dump every
  // degraded outcome triggers. Borrowed, never owned; nullptr disables
  // journaling entirely (no per-request EventLog is built).
  Journal* journal = nullptr;
  // Flight-recorder ring capacity: how many trailing events each request
  // retains for the postmortem dump. Only read when `journal` is set.
  int flight_recorder = EventLog::kDefaultCapacity;
  // Hardware-counter measurement (obs/prof.h). Off by default: perf keeps
  // every output byte-identical to a perf-less build unless explicitly
  // requested (`--perf-stats`). When on, the engine attributes cycles /
  // instructions / cache misses per pipeline stage and the solvers meter
  // their hot loops; where perf_event_open is denied the request records
  // stats.perf = "unavailable:<reason>" and proceeds identically.
  bool perf = false;
  // Tail capture: a request whose solve wall clock reaches this many
  // milliseconds gets its flight recorder dumped ("slow-request") plus a
  // "request.slow" journal event with the winning solvers and ladder plan.
  // Negative disables; only read when `journal` is set.
  int64_t slow_request_ms = -1;
};

// Everything the analyzer learned about one join.
struct JoinAnalysis {
  PredicateClass predicate = PredicateClass::kGeneral;
  int left_size = 0;
  int right_size = 0;
  int64_t output_size = 0;  // m, number of joining pairs
  JoinGraphClassification classification;
  // Structural feature vector (graph/features.h), extracted once in the
  // classify stage; the calibrated planner's input, and thread-count
  // invariant like everything else in the analysis.
  GraphFeatures features;
  PebbleSolution solution;
  bool perfect = false;  // solution.effective_cost == m
  double cost_ratio = 1.0;  // effective_cost / m (1.0 when m == 0)
  // Client-supplied correlation id to echo as the report's leading "id"
  // field; empty (the default, and every request without a client id)
  // omits the field, keeping id-less output byte-identical.
  std::string request_id;
  // Per-request solver telemetry: counters the hot paths flushed into the
  // request's BudgetContext, the budget/wall-clock fields the engine fills
  // in after the solve, and the per-stage pipeline timings.
  SolveStats stats;
};

// One unit of work for the engine. The graph is borrowed for the duration
// of Solve; every optional field, when set, overrides the engine default
// for this request only.
struct SolveRequest {
  const BipartiteGraph* graph = nullptr;  // required
  PredicateClass predicate = PredicateClass::kGeneral;

  std::optional<SolverChoice> solver;
  std::optional<PlannerChoice> planner;
  std::optional<SolveBudget> budget;
  std::optional<int> threads;
  // Per-request trace sink; overrides the engine default when non-null.
  TraceSession* trace = nullptr;
  // Input-line attribution for journal events (>= 0 stamps a "line" base
  // field on every event of this request). The batch runner sets it so a
  // shared journal stays attributable across interleaved lines.
  int64_t journal_line = -1;
  // Correlation id: when non-empty it is stamped as an "id" base field on
  // every journal event (and flight-recorder replay) of this request and
  // tagged on its trace. Echoed in the report only when echo_id is also
  // set — i.e. when the id was client-supplied rather than generated.
  std::string request_id;
  bool echo_id = false;
};

// What one request produced. Thin on purpose: the analysis carries the
// verified solution, the classification, and the stats (including the
// per-stage pipeline records, SolveStats::stages).
struct SolveResult {
  JoinAnalysis analysis;
};

class SolveEngine {
 public:
  struct Options {
    // Engine-wide request defaults (solver, budget, threads, sinks).
    AnalyzerOptions defaults;
  };

  SolveEngine() : SolveEngine(Options()) {}
  explicit SolveEngine(Options options);
  ~SolveEngine();

  SolveEngine(const SolveEngine&) = delete;
  SolveEngine& operator=(const SolveEngine&) = delete;

  // Runs the staged pipeline on one request. Thread-safe; see the file
  // comment for the nested-fan-out rule.
  SolveResult Solve(const SolveRequest& request);

  // The registry this engine publishes per-request stats into: the
  // injected one, or the engine's own session-scoped registry (enabled by
  // default — a session that wants no metrics injects a disabled one).
  MetricsRegistry* metrics();

  // The shared worker pool, created on first use with `threads` workers
  // (>= 2) and reused for every later request and batch. The width is fixed
  // by the first creation; later calls asking for more workers get the
  // existing pool (parallelism is clamped, never expanded). Returns the
  // pool, never null.
  ThreadPool* EnsurePool(int threads);

  // The shared pool, or nullptr when no parallel request has needed one
  // yet.
  ThreadPool* pool();

  const AnalyzerOptions& defaults() const { return options_.defaults; }

 private:
  const Pebbler& PrimaryFor(SolverChoice choice,
                            const JoinGraphClassification& c) const;

  Options options_;
  // Session-scoped fallback registry, used when no registry is injected.
  MetricsRegistry own_metrics_;

  // The solver stack: constructed once per engine, shared (const and
  // stateless) across all requests.
  SortMergePebbler sort_merge_;
  GreedyWalkPebbler greedy_;
  DfsTreePebbler dfs_tree_;
  LocalSearchPebbler local_search_;
  IlsPebbler ils_;
  ExactPebbler exact_;
  FallbackPebbler fallback_;
  // Calibrated dispatch: the planner wraps the engine's cost model, and
  // calibrated_fallback_ is a second ladder configured to consult it.
  // Selected instead of fallback_ when the effective planner is kCalibrated
  // and the effective solver is kFallback; every other combination uses the
  // blind fallback_ and stays byte-identical to the planner-less engine.
  LadderPlanner planner_;
  FallbackPebbler calibrated_fallback_;

  std::mutex pool_mu_;  // guards lazy pool creation only
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_ENGINE_SOLVE_ENGINE_H_
