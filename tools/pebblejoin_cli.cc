// pebblejoin — command-line front end.
//
// Usage:
//   pebblejoin --version                         # build provenance
//   pebblejoin gen worstcase <n>                 > g.txt
//   pebblejoin gen complete <k> <l>              > g.txt
//   pebblejoin gen random <left> <right> <m> <seed> [--connected] > g.txt
//   pebblejoin analyze [--solver NAME] [--predicate NAME] [budget]
//                      [--planner NAME] [--cost-model FILE]
//                      [--json] [--stats] [--trace-out FILE] < g.txt
//   pebblejoin solve   [--solver NAME] [--explain] [budget]
//                      [--planner NAME] [--cost-model FILE]
//                      [--json] [--stats] [--trace-out FILE] < g.txt
//   pebblejoin calibrate [--instances N] [--rung-deadline-ms N]
//                        [--seed S] [--out FILE]    # cost-model labels
//   pebblejoin realize sets < g.txt              # Lemma 3.3 instance
//   pebblejoin bounds  < g.txt                   # Lemma 2.3 / Thm 3.1
//   pebblejoin schedule [--k N] < g.txt          # k-buffer fetch schedule
//   pebblejoin partition [--fragments N] < g.txt # Section-5 partitioning
//   pebblejoin dot [--solve] < g.txt             # Graphviz rendering
//   pebblejoin batch --jsonl IN.jsonl [--out OUT.jsonl] [--threads N]
//                    [budget flags] [--batch-deadline-ms N]
//                    [--admission queue|reject] [--solver NAME]
//                    [--predicate NAME] [--progress-every-ms N]
//                    [--slow-request-ms N] [telemetry flags]
//   pebblejoin serve [--host H] [--port P] [--threads N]
//                    [--max-conns N] [--max-inflight N]
//                    [--per-conn-inflight N] [--idle-timeout-ms N]
//                    [--max-line-bytes N] [--request-deadline-ms N]
//                    [--drain-ms N] [--slo-p99-ms N] [--slo-error-rate R]
//                    [--trace-sample N] [--trace-dir DIR]
//                    [--slow-request-ms N] [budget flags] [--solver NAME]
//                    [--predicate NAME] [telemetry flags]
//
// `serve` runs the long-lived JSONL solve service (serve/line_server.h):
// the batch wire format over TCP, one request object per line in, one
// `analyze --json` document per line out, plus HTTP GET on the same port:
// /metrics (OpenMetrics), /healthz (liveness), /readyz (readiness — 503
// while draining or saturated), /statusz (JSON status: build, uptime,
// sliding-window qps/error-rate/latency, SLO burn against --slo-p99-ms and
// --slo-error-rate, slowest recent requests). A request line may carry an
// "id" string echoed in its response and stamped through journal, trace,
// and /statusz. --trace-sample N captures a full Chrome trace for one in
// every N requests into --trace-dir; --slow-request-ms T journals and
// flight-dumps every request slower than T. First SIGTERM/SIGINT drains
// gracefully (stop accepting, finish or shed in-flight inside --drain-ms,
// exit 0); a second signal aborts (exit 1). --port 0 picks an ephemeral
// port; the bound address is announced on stderr as "serving on
// HOST:PORT". Protocol, flags, and failure modes: docs/serving.md.
//
// Budget flags (analyze/solve): --deadline-ms N, --memory-mb N,
// --node-budget N. Giving any of them without an explicit --solver selects
// the fallback ladder, which degrades gracefully instead of refusing.
//
// Planner flags (analyze/solve/batch/serve): --planner ladder|calibrated
// picks how the fallback ladder dispatches (docs/solvers.md, "Planner");
// ladder — the default — is byte-identical to omitting the flag, while
// calibrated plans each descent from the instance's GraphFeatures and the
// cost model. --cost-model FILE loads fitted coefficients (see `pebblejoin
// calibrate` and tools/calibrate_cost_model.py); without it the compiled-in
// calibration runs.
//
// Telemetry flags (analyze/solve/batch): --json replaces the human output
// with one machine-readable JSON document (analysis + solver stats);
// --stats appends per-rung timings and the solver-stats block to the human
// output; --trace-out FILE writes a Chrome-trace JSON of the solve
// (loadable in chrome://tracing or ui.perfetto.dev); --journal FILE
// ('-' = stderr) streams the structured event journal as JSONL, filtered
// at --log-level LEVEL (debug|info|warn|error|off, default info), with a
// --flight-recorder N ring of trailing events dumped on every degraded
// outcome; --metrics-out FILE writes the metrics registry in the
// OpenMetrics text format; --perf-stats opens hardware counters
// (perf_event_open) around the solve and appends a per-stage
// cycles/instructions/cache-miss table (degrades to a one-line
// "unavailable" status where counters are denied — exit stays 0);
// --profile-out FILE runs the SIGPROF sampling profiler across the solve
// and writes flamegraph-collapsed stacks. See docs/observability.md.
//
// batch additionally takes --progress-every-ms N: live progress lines on
// stderr (and batch.progress journal events) at that cadence, 0 = after
// every block.
//
// --threads N (analyze/solve) fans the per-component solves out across N
// worker threads (0 = one per hardware thread). The output is byte-
// identical for every N; only the wall clock changes. See docs/solvers.md.
//
// Graphs use the text format of io/graph_io.h. Solvers: auto, sort-merge,
// greedy, dfs-tree, local-search, ils, exact, fallback. Predicates:
// equijoin, spatial, sets, general (affects reporting only).
//
// `batch` runs one solve per JSONL line through a shared SolveEngine
// (engine/batch_runner.h): `--jsonl -` reads stdin, `--out` defaults to
// stdout, `--threads` fans lines across the engine pool, the budget flags
// set per-line defaults, and `--batch-deadline-ms` is an aggregate pool
// whose exhaustion either queues (degraded solves) or rejects lines.
//
// Error discipline: every bad input — unknown flag, malformed number,
// out-of-range parameter, unparsable graph — prints a one-line error to
// stderr and exits nonzero. JP_CHECK aborts are reserved for library bugs.
// Exit codes are distinct by failure class: 0 success, 1 runtime failure
// (unparsable graph, unwritable output), 2 bad flags, 64 usage (no or
// unknown command), 66 missing input file.

#include <csignal>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "core/analyzer.h"
#include "core/report.h"
#include "engine/batch_runner.h"
#include "engine/names.h"
#include "serve/line_server.h"
#include "obs/build_info.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "graph/generators.h"
#include "io/dot_export.h"
#include "io/graph_io.h"
#include "join/realizers.h"
#include "kpebble/k_pebble_game.h"
#include "partition/partitioner.h"
#include "pebble/cost_model.h"
#include "solver/ladder_planner.h"
#include "util/check.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace pebblejoin {
namespace {

// Exit codes, one per failure class, so scripts can branch on what went
// wrong (asserted by tests/cli_smoke_test.sh).
constexpr int kExitRuntime = 1;   // unparsable graph, unwritable output
constexpr int kExitBadFlags = 2;  // a command was given bad flags
constexpr int kExitUsage = 64;    // no command, or an unknown one
constexpr int kExitMissingInput = 66;  // a named input file does not exist

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  pebblejoin --version\n"
      "  pebblejoin gen worstcase <n>\n"
      "  pebblejoin gen complete <k> <l>\n"
      "  pebblejoin gen random <left> <right> <m> <seed> [--connected]\n"
      "  pebblejoin analyze [--solver NAME] [--predicate NAME]\n"
      "                     [--planner NAME] [--cost-model FILE] "
      "[budget flags]\n"
      "                     [telemetry flags] < graph\n"
      "  pebblejoin solve [--solver NAME] [--explain]\n"
      "                   [--planner NAME] [--cost-model FILE] "
      "[budget flags]\n"
      "                   [telemetry flags] < graph\n"
      "  pebblejoin calibrate [--instances N] [--rung-deadline-ms N]\n"
      "                       [--seed S] [--out FILE]\n"
      "  pebblejoin realize sets < graph\n"
      "  pebblejoin bounds < graph\n"
      "  pebblejoin schedule [--k N] < graph\n"
      "  pebblejoin partition [--fragments N] < graph\n"
      "  pebblejoin dot [--solve] < graph\n"
      "  pebblejoin batch --jsonl IN.jsonl [--out OUT.jsonl] [--threads N]\n"
      "                   [budget flags] [--batch-deadline-ms N]\n"
      "                   [--admission queue|reject] [--solver NAME]\n"
      "                   [--planner NAME] [--cost-model FILE]\n"
      "                   [--predicate NAME] [--progress-every-ms N]\n"
      "                   [--slow-request-ms N] [--journal FILE]\n"
      "                   [--log-level LEVEL] [--flight-recorder N]\n"
      "                   [--metrics-out FILE] [--perf-stats]\n"
      "                   [--profile-out FILE]\n"
      "  pebblejoin serve [--host H] [--port P] [--threads N]\n"
      "                   [--max-conns N] [--max-inflight N]\n"
      "                   [--per-conn-inflight N] [--idle-timeout-ms N]\n"
      "                   [--max-line-bytes N] [--request-deadline-ms N]\n"
      "                   [--drain-ms N] [--slo-p99-ms N]\n"
      "                   [--slo-error-rate R] [--trace-sample N]\n"
      "                   [--trace-dir DIR] [--slow-request-ms N]\n"
      "                   [budget flags] [--solver NAME]\n"
      "                   [--planner NAME] [--cost-model FILE]\n"
      "                   [--predicate NAME] [--journal FILE]\n"
      "                   [--log-level LEVEL] [--flight-recorder N]\n"
      "                   [--metrics-out FILE] [--perf-stats]\n"
      "budget flags: --deadline-ms N  --memory-mb N  --node-budget N\n"
      "telemetry flags: --json  --stats  --trace-out FILE  --journal FILE\n"
      "                 --log-level LEVEL  --flight-recorder N\n"
      "                 --metrics-out FILE  --perf-stats\n"
      "                 --profile-out FILE\n"
      "parallelism: --threads N (0 = one per hardware thread)\n"
      "solvers: %s\n"
      "predicates: %s\n"
      "planners: %s (ladder is the default blind descent; calibrated\n"
      "          plans the fallback ladder from the cost model)\n",
      SolverNameList(), PredicateNameList(), PlannerNameList());
  return kExitUsage;
}

// One-line bad-input report. Always nonzero.
int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return kExitBadFlags;
}

// Strict integer parsing: the whole token must be a base-10 integer in
// range. atoi's silent zero on garbage is exactly the failure mode the
// malformed-input audit exists to remove.
bool ParseInt64(const char* token, int64_t* out) {
  if (token == nullptr || *token == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(token, &end, 10);
  if (errno == ERANGE || end == token || *end != '\0') return false;
  *out = value;
  return true;
}

bool ParseDouble(const char* token, double* out) {
  if (token == nullptr || *token == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(token, &end);
  if (errno == ERANGE || end == token || *end != '\0') return false;
  *out = value;
  return true;
}

bool ParseInt32(const char* token, int* out) {
  int64_t wide = 0;
  if (!ParseInt64(token, &wide)) return false;
  if (wide < INT32_MIN || wide > INT32_MAX) return false;
  *out = static_cast<int>(wide);
  return true;
}

std::string ReadStdin() {
  std::string contents;
  char buffer[4096];
  size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), stdin)) > 0) {
    contents.append(buffer, got);
  }
  return contents;
}

// Shared flags of the analyze/solve commands. Solver and predicate names
// parse through engine/names.h, the same mapping `batch` lines use.
struct SolveFlags {
  SolverChoice solver = SolverChoice::kAuto;
  bool solver_set = false;
  PlannerChoice planner = PlannerChoice::kLadder;
  // --cost-model FILE: coefficients for the calibrated planner; empty
  // keeps the compiled-in calibration. Resolved by ResolveCostModel after
  // flag parsing (distinct exit codes for missing vs. malformed files).
  std::string cost_model_path;
  CostModel cost_model = CostModel::BuiltIn();
  PredicateClass predicate = PredicateClass::kGeneral;
  SolveBudget budget;
  bool budget_set = false;
  int threads = 1;
  bool explain = false;
  bool json = false;
  bool stats = false;
  std::string trace_out;    // empty: no trace
  std::string journal_out;  // empty: no journal; "-" = stderr
  LogLevel log_level = LogLevel::kInfo;
  int flight_recorder = EventLog::kDefaultCapacity;
  std::string metrics_out;  // empty: no OpenMetrics exposition
  bool perf = false;        // --perf-stats: hardware counters on
  std::string profile_out;  // empty: no sampling profiler
};

// Parses the journal/metrics flag cluster shared by analyze/solve/batch.
// Returns 1 when `flag` consumed a value, 0 when it consumed none, and -1
// (after printing the error) on bad input or when the flag is not one of
// the cluster (`*known` tells those apart).
int ParseJournalFlag(const std::string& flag, const char* value,
                     bool* known, std::string* journal_out,
                     LogLevel* log_level, int* flight_recorder,
                     std::string* metrics_out) {
  *known = true;
  if (flag == "--journal") {
    if (value == nullptr || *value == '\0') {
      Fail("--journal needs a file path ('-' = stderr)");
      return -1;
    }
    *journal_out = value;
    return 1;
  }
  if (flag == "--log-level") {
    if (value == nullptr || !ParseLogLevel(value, log_level)) {
      Fail("--log-level needs one of: debug info warn error off");
      return -1;
    }
    return 1;
  }
  if (flag == "--flight-recorder") {
    int capacity = 0;
    if (value == nullptr || !ParseInt32(value, &capacity) || capacity < 1 ||
        capacity > 1 << 20) {
      Fail("--flight-recorder needs an integer in [1, 1048576]");
      return -1;
    }
    *flight_recorder = capacity;
    return 1;
  }
  if (flag == "--metrics-out") {
    if (value == nullptr || *value == '\0') {
      Fail("--metrics-out needs a file path");
      return -1;
    }
    *metrics_out = value;
    return 1;
  }
  *known = false;
  return 0;
}

// Parses argv[start..). On failure prints a one-line error and returns
// false. `allow_explain` admits solve's --explain.
bool ParseSolveFlags(int argc, char** argv, int start, bool allow_explain,
                     SolveFlags* flags) {
  for (int i = start; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--explain" && allow_explain) {
      flags->explain = true;
    } else if (flag == "--json") {
      flags->json = true;
    } else if (flag == "--stats") {
      flags->stats = true;
    } else if (flag == "--perf-stats") {
      flags->perf = true;
    } else if (flag == "--profile-out") {
      if (value == nullptr || *value == '\0') {
        Fail("--profile-out needs a file path");
        return false;
      }
      flags->profile_out = value;
      ++i;
    } else if (flag == "--trace-out") {
      if (value == nullptr || *value == '\0') {
        Fail("--trace-out needs a file path");
        return false;
      }
      flags->trace_out = value;
      ++i;
    } else if (flag == "--solver") {
      if (value == nullptr || !ParseSolverName(value, &flags->solver)) {
        Fail(std::string("--solver needs one of: ") + SolverNameList());
        return false;
      }
      flags->solver_set = true;
      ++i;
    } else if (flag == "--predicate") {
      if (value == nullptr ||
          !ParsePredicateName(value, &flags->predicate)) {
        Fail(std::string("--predicate needs one of: ") + PredicateNameList());
        return false;
      }
      ++i;
    } else if (flag == "--planner") {
      if (value == nullptr || !ParsePlannerName(value, &flags->planner)) {
        Fail(std::string("--planner needs one of: ") + PlannerNameList());
        return false;
      }
      ++i;
    } else if (flag == "--cost-model") {
      if (value == nullptr || *value == '\0') {
        Fail("--cost-model needs a file path");
        return false;
      }
      flags->cost_model_path = value;
      ++i;
    } else if (flag == "--deadline-ms") {
      int64_t ms = 0;
      if (value == nullptr || !ParseInt64(value, &ms) || ms < 0) {
        Fail("--deadline-ms needs a non-negative integer");
        return false;
      }
      flags->budget.deadline_ms = ms;
      flags->budget_set = true;
      ++i;
    } else if (flag == "--memory-mb") {
      int64_t mb = 0;
      if (value == nullptr || !ParseInt64(value, &mb) || mb < 0 ||
          mb > (int64_t{1} << 40)) {
        Fail("--memory-mb needs a non-negative integer");
        return false;
      }
      flags->budget.memory_limit_bytes = mb << 20;
      flags->budget_set = true;
      ++i;
    } else if (flag == "--threads") {
      int threads = 0;
      if (value == nullptr || !ParseInt32(value, &threads) || threads < 0 ||
          threads > 4096) {
        Fail("--threads needs an integer in [0, 4096] (0 = hardware)");
        return false;
      }
      flags->threads = threads == 0 ? ThreadPool::DefaultThreads() : threads;
      ++i;
    } else if (flag == "--node-budget") {
      int64_t nodes = 0;
      if (value == nullptr || !ParseInt64(value, &nodes) || nodes < 0) {
        Fail("--node-budget needs a non-negative integer");
        return false;
      }
      flags->budget.node_budget = nodes;
      flags->budget_set = true;
      ++i;
    } else {
      bool known = false;
      const int consumed = ParseJournalFlag(
          flag, value, &known, &flags->journal_out, &flags->log_level,
          &flags->flight_recorder, &flags->metrics_out);
      if (consumed < 0) return false;
      if (!known) {
        Fail("unknown flag '" + flag + "'");
        return false;
      }
      i += consumed;
    }
  }
  // A budget without an explicit solver means "give me the best scheme you
  // can inside these limits": the ladder, which never refuses.
  if (flags->budget_set && !flags->solver_set) {
    flags->solver = SolverChoice::kFallback;
  }
  return true;
}

// Resolves a --cost-model path into `*model`. Returns 0 on success (or an
// empty path — the compiled-in calibration stands), kExitMissingInput when
// the file cannot be read, and kExitBadFlags when its contents do not
// parse — the same missing-vs-malformed split the graph inputs use.
int ResolveCostModel(const std::string& path, CostModel* model) {
  if (path.empty()) return 0;
  std::ifstream in(path);
  if (!in.is_open()) {
    std::fprintf(stderr, "error: cannot open cost-model file '%s'\n",
                 path.c_str());
    return kExitMissingInput;
  }
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  std::string error;
  if (!ParseCostModelJson(contents, model, &error)) {
    Fail("cost-model file '" + path + "': " + error);
    return kExitBadFlags;
  }
  return 0;
}

// Attaches the --journal sink: '-' borrows stderr, anything else opens a
// file. Returns false (after printing the error) on an unwritable path.
bool AttachJournalSink(const std::string& journal_out, Journal* journal) {
  if (journal_out == "-") {
    journal->AttachStream(&std::cerr);
    return true;
  }
  std::string error;
  if (!journal->AttachFile(journal_out, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return false;
  }
  return true;
}

// Writes one registry as OpenMetrics text to `path`. Returns false (after
// printing the error) when the file cannot be written.
bool WriteMetricsFile(const std::string& path, MetricsRegistry* registry) {
  std::ofstream out(path);
  if (!out.is_open()) {
    std::fprintf(stderr, "error: cannot open metrics file '%s'\n",
                 path.c_str());
    return false;
  }
  registry->WriteOpenMetrics(&out);
  out.flush();
  if (!out.good()) {
    std::fprintf(stderr, "error: writing '%s' failed\n", path.c_str());
    return false;
  }
  return true;
}

// Arms the SIGPROF sampling profiler when --profile-out was given. An
// unsupported or busy profiler is a warning, not an error: the solve's
// result does not depend on it, and the folded file is still written (with
// zero samples) so scripted pipelines see a deterministic artifact.
void StartProfiler(const std::string& profile_out,
                   SamplingProfiler* profiler) {
  if (profile_out.empty()) return;
  if (!profiler->Start()) {
    std::fprintf(stderr, "warning: sampling profiler disabled: %s\n",
                 profiler->reason().c_str());
  }
}

// Disarms the profiler and writes the folded-stack file. Returns false
// (after printing the error) when the file cannot be written.
bool FinishProfiler(const std::string& profile_out,
                    SamplingProfiler* profiler) {
  if (profile_out.empty()) return true;
  profiler->Stop();
  if (!profiler->WriteFolded(profile_out)) {
    std::fprintf(stderr, "error: cannot write profile file '%s'\n",
                 profile_out.c_str());
    return false;
  }
  return true;
}

// Prints a multi-line block with every line prefixed by "# ", preserving
// solve's "non-# lines are edge ids" output contract.
void PrintCommented(const std::string& block) {
  size_t start = 0;
  while (start < block.size()) {
    size_t end = block.find('\n', start);
    if (end == std::string::npos) end = block.size();
    std::printf("# %.*s\n", static_cast<int>(end - start),
                block.c_str() + start);
    start = end + 1;
  }
}

std::optional<BipartiteGraph> GraphFromStdin() {
  std::string error;
  std::optional<BipartiteGraph> g = ParseBipartiteGraph(ReadStdin(), &error);
  if (!g.has_value()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
  }
  return g;
}

int CmdGen(int argc, char** argv) {
  if (argc < 3) return Fail("gen needs a family: worstcase, complete, random");
  const std::string family = argv[2];
  if (family == "worstcase") {
    int n = 0;
    if (argc != 4 || !ParseInt32(argv[3], &n)) {
      return Fail("gen worstcase needs one integer argument <n>");
    }
    if (n < 3) return Fail("gen worstcase needs n >= 3");
    std::fputs(SerializeBipartiteGraph(WorstCaseFamily(n)).c_str(), stdout);
    return 0;
  }
  if (family == "complete") {
    int k = 0, l = 0;
    if (argc != 5 || !ParseInt32(argv[3], &k) || !ParseInt32(argv[4], &l)) {
      return Fail("gen complete needs two integer arguments <k> <l>");
    }
    if (k < 1 || l < 1) return Fail("gen complete needs k >= 1 and l >= 1");
    std::fputs(SerializeBipartiteGraph(CompleteBipartite(k, l)).c_str(),
               stdout);
    return 0;
  }
  if (family == "random") {
    int left = 0, right = 0, m = 0;
    int64_t seed = 0;
    if ((argc != 7 && argc != 8) || !ParseInt32(argv[3], &left) ||
        !ParseInt32(argv[4], &right) || !ParseInt32(argv[5], &m) ||
        !ParseInt64(argv[6], &seed)) {
      return Fail("gen random needs <left> <right> <m> <seed> integers");
    }
    bool connected = false;
    if (argc == 8) {
      if (std::strcmp(argv[7], "--connected") != 0) {
        return Fail(std::string("unknown flag '") + argv[7] + "'");
      }
      connected = true;
    }
    if (left < 1 || right < 1) {
      return Fail("gen random needs left >= 1 and right >= 1");
    }
    const int64_t max_edges = int64_t{left} * right;
    if (m < 0 || m > max_edges) {
      return Fail("gen random needs 0 <= m <= left*right");
    }
    if (connected && m < left + right - 1) {
      return Fail("gen random --connected needs m >= left + right - 1");
    }
    const BipartiteGraph g =
        connected
            ? RandomConnectedBipartite(left, right, m,
                                       static_cast<uint64_t>(seed))
            : RandomBipartiteWithEdges(left, right, m,
                                       static_cast<uint64_t>(seed));
    std::fputs(SerializeBipartiteGraph(g).c_str(), stdout);
    return 0;
  }
  return Fail("unknown gen family '" + family + "'");
}

// Telemetry plumbing shared by analyze/solve: enables the process registry
// under --json/--stats/--metrics-out, attaches a TraceSession when
// --trace-out was given and a Journal when --journal was, runs the
// analysis, and writes the trace/metrics files. Returns false (after
// printing the error) when any output file could not be written.
bool RunAnalysis(const SolveFlags& flags, const BipartiteGraph& g,
                 JoinAnalysis* analysis) {
  TraceSession trace;
  Journal::Options journal_options;
  journal_options.min_level = flags.log_level;
  Journal journal(journal_options);
  AnalyzerOptions options;
  options.solver = flags.solver;
  options.planner = flags.planner;
  options.cost_model = flags.cost_model;
  options.budget = flags.budget;
  options.threads = flags.threads;
  options.perf = flags.perf;
  if (!flags.trace_out.empty()) options.trace = &trace;
  if (!flags.journal_out.empty()) {
    if (!AttachJournalSink(flags.journal_out, &journal)) return false;
    options.journal = &journal;
    options.flight_recorder = flags.flight_recorder;
  }
  if (flags.json || flags.stats || !flags.metrics_out.empty()) {
    // The process-global registry is the CLI's explicit opt-in — library
    // code publishes only into the engine's session registry unless a
    // surface injects one.
    MetricsRegistry::Default()->set_enabled(true);
    options.metrics = MetricsRegistry::Default();
  }
  SamplingProfiler profiler;
  StartProfiler(flags.profile_out, &profiler);
  const JoinAnalyzer analyzer(options);
  *analysis = analyzer.AnalyzeJoinGraph(g, flags.predicate);
  if (!FinishProfiler(flags.profile_out, &profiler)) return false;
  if (!flags.trace_out.empty()) {
    std::string error;
    if (!trace.WriteFile(flags.trace_out, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return false;
    }
  }
  if (!flags.metrics_out.empty() &&
      !WriteMetricsFile(flags.metrics_out, MetricsRegistry::Default())) {
    return false;
  }
  return true;
}

int CmdAnalyze(int argc, char** argv) {
  SolveFlags flags;
  if (!ParseSolveFlags(argc, argv, 2, /*allow_explain=*/false, &flags)) {
    return 2;
  }
  const int model_rc = ResolveCostModel(flags.cost_model_path,
                                        &flags.cost_model);
  if (model_rc != 0) return model_rc;
  const std::optional<BipartiteGraph> g = GraphFromStdin();
  if (!g.has_value()) return 1;
  JoinAnalysis analysis;
  if (!RunAnalysis(flags, *g, &analysis)) return 1;
  if (flags.json) {
    std::fputs((AnalysisJson(analysis) + "\n").c_str(), stdout);
  } else {
    std::fputs(FormatAnalysis(analysis, flags.stats).c_str(), stdout);
    if (flags.perf) std::fputs(FormatPerfStats(analysis).c_str(), stdout);
  }
  return 0;
}

int CmdSolve(int argc, char** argv) {
  SolveFlags flags;
  flags.solver = SolverChoice::kLocalSearch;
  if (!ParseSolveFlags(argc, argv, 2, /*allow_explain=*/true, &flags)) {
    return 2;
  }
  const int model_rc = ResolveCostModel(flags.cost_model_path,
                                        &flags.cost_model);
  if (model_rc != 0) return model_rc;
  const std::optional<BipartiteGraph> g = GraphFromStdin();
  if (!g.has_value()) return 1;
  JoinAnalysis analysis;
  if (!RunAnalysis(flags, *g, &analysis)) return 1;
  if (flags.json) {
    // Machine mode: the whole solve (order included) as one JSON document.
    std::fputs((AnalysisJson(analysis) + "\n").c_str(), stdout);
    return 0;
  }
  std::printf("# pi_hat=%lld pi=%lld jumps=%lld\n",
              static_cast<long long>(analysis.solution.hat_cost),
              static_cast<long long>(analysis.solution.effective_cost),
              static_cast<long long>(analysis.solution.jumps));
  // Solve provenance: which rungs ran per component and why each stopped.
  for (size_t c = 0; c < analysis.solution.outcomes.size(); ++c) {
    std::printf("# component %zu: %s\n", c,
                analysis.solution.outcomes[c].Summary(flags.stats).c_str());
  }
  if (flags.stats) {
    // Keep the "non-# lines are edge ids" contract: the stats block rides
    // in comments.
    std::printf("# solver stats:\n");
    std::fputs(analysis.stats.FormatHuman("#   ").c_str(), stdout);
  }
  if (flags.perf) {
    // Same contract: the perf table rides in comments too.
    PrintCommented(FormatPerfStats(analysis));
  }
  if (!flags.explain) {
    for (int e : analysis.solution.edge_order) std::printf("%d\n", e);
    return 0;
  }
  // Narrated schedule: one line per deletion, flagging jumps.
  const Graph flat = g->ToGraph();
  const std::vector<int>& order = analysis.solution.edge_order;
  for (size_t i = 0; i < order.size(); ++i) {
    const BipartiteGraph::Edge& e = g->edge(order[i]);
    const bool jump =
        i > 0 && !flat.edge(order[i]).Touches(flat.edge(order[i - 1]));
    std::printf("step %3zu: delete edge %d (L%d, R%d)%s\n", i + 1,
                order[i], e.left, e.right,
                jump ? "  <- jump (both pebbles moved)" : "");
  }
  return 0;
}

int CmdSchedule(int argc, char** argv) {
  int k = 4;
  for (int i = 2; i < argc; ++i) {
    if (std::string(argv[i]) == "--k" && i + 1 < argc) {
      if (!ParseInt32(argv[++i], &k)) {
        return Fail("--k needs an integer");
      }
    } else {
      return Fail(std::string("unknown flag '") + argv[i] + "'");
    }
  }
  if (k < 2) return Fail("--k needs k >= 2");
  const std::optional<BipartiteGraph> g = GraphFromStdin();
  if (!g.has_value()) return 1;
  const Graph flat = g->ToGraph();
  KPebbleOptions options;
  options.k = k;
  const KPebbleSchedule schedule = ScheduleKPebbles(flat, options);
  std::printf("# k=%d fetches=%lld lower_bound=%lld\n", k,
              static_cast<long long>(schedule.fetches),
              static_cast<long long>(KPebbleFetchLowerBound(flat)));
  for (const KPebbleStep& step : schedule.steps) {
    if (step.evicted == -1) {
      std::printf("fetch %d\n", step.vertex);
    } else {
      std::printf("fetch %d evict %d\n", step.vertex, step.evicted);
    }
  }
  return 0;
}

int CmdPartition(int argc, char** argv) {
  int fragments = 4;
  for (int i = 2; i < argc; ++i) {
    if (std::string(argv[i]) == "--fragments" && i + 1 < argc) {
      if (!ParseInt32(argv[++i], &fragments)) {
        return Fail("--fragments needs an integer");
      }
    } else {
      return Fail(std::string("unknown flag '") + argv[i] + "'");
    }
  }
  if (fragments < 1) return Fail("--fragments needs fragments >= 1");
  const std::optional<BipartiteGraph> g = GraphFromStdin();
  if (!g.has_value()) return 1;
  const JoinPartition greedy = GreedyComponentPartition(*g, fragments);
  const JoinPartition round_robin =
      RoundRobinPartition(*g, fragments, fragments);
  std::printf(
      "fragments=%d\n"
      "touched sub-joins: greedy=%lld round_robin=%lld lower_bound=%lld\n",
      fragments,
      static_cast<long long>(CountTouchedPairs(*g, greedy)),
      static_cast<long long>(CountTouchedPairs(*g, round_robin)),
      static_cast<long long>(
          TouchedPairsLowerBound(*g, fragments, fragments)));
  std::printf("left :");
  for (int f : greedy.left_fragment) std::printf(" %d", f);
  std::printf("\nright:");
  for (int f : greedy.right_fragment) std::printf(" %d", f);
  std::printf("\n");
  return 0;
}

int CmdRealize(int argc, char** argv) {
  if (argc != 3 || std::string(argv[2]) != "sets") {
    return Fail("realize needs the realization kind 'sets'");
  }
  const std::optional<BipartiteGraph> g = GraphFromStdin();
  if (!g.has_value()) return 1;
  const Realization<IntSet> realization = RealizeAsSetContainment(*g);
  std::printf("# Lemma 3.3 set-containment realization (r subset-of s)\n");
  std::printf("R:");
  for (const IntSet& s : realization.left.tuples()) {
    std::printf(" %s", s.DebugString().c_str());
  }
  std::printf("\nS:");
  for (const IntSet& s : realization.right.tuples()) {
    std::printf(" %s", s.DebugString().c_str());
  }
  std::printf("\n");
  return 0;
}

int CmdBounds(int argc, char** argv) {
  if (argc != 2) {
    return Fail(std::string("unknown flag '") + argv[2] + "'");
  }
  const std::optional<BipartiteGraph> g = GraphFromStdin();
  if (!g.has_value()) return 1;
  const JoinGraphClassification c = ClassifyJoinGraph(g->ToGraph());
  std::printf(
      "m=%lld components=%lld\n"
      "lower (Lemma 2.3)        : %lld\n"
      "upper general (Cor 2.1)  : %lld\n"
      "upper Thm 3.1            : %lld\n"
      "equijoin shape           : %s\n",
      static_cast<long long>(c.bounds.num_edges),
      static_cast<long long>(c.bounds.betti_zero),
      static_cast<long long>(c.bounds.lower),
      static_cast<long long>(c.bounds.upper_general),
      static_cast<long long>(c.bounds.upper_dfs_bound),
      c.equijoin_shape ? "yes (pi = m, Thm 3.2)" : "no");
  return 0;
}

int CmdDot(int argc, char** argv) {
  bool solve = false;
  for (int i = 2; i < argc; ++i) {
    if (std::string(argv[i]) == "--solve") {
      solve = true;
    } else {
      return Fail(std::string("unknown flag '") + argv[i] + "'");
    }
  }
  const std::optional<BipartiteGraph> g = GraphFromStdin();
  if (!g.has_value()) return 1;
  DotOptions options;
  if (solve) {
    const JoinAnalyzer analyzer;
    options.edge_order =
        analyzer.AnalyzeJoinGraph(*g, PredicateClass::kGeneral)
            .solution.edge_order;
  }
  std::fputs(ExportDot(*g, options).c_str(), stdout);
  return 0;
}

// `pebblejoin calibrate`: the labeled-instance sweep behind the cost
// model. Emits one JSONL record per generated instance — its family, its
// GraphFeatures (raw and as the planner's log-feature vector), and per
// budgeted rung (exact, ils, local-search) the status, wall clock, and
// cost of attempting that rung alone under --rung-deadline-ms. The labels
// are "time burned by attempting", the exact quantity LadderPlanner
// predicts; tools/calibrate_cost_model.py fits the per-rung linear models
// over these records and writes cost_model.json.
int CmdCalibrate(int argc, char** argv) {
  int instances = 120;
  int64_t rung_deadline_ms = 500;
  int64_t seed = 1;
  std::string out_path;  // empty or "-" = stdout
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--instances") {
      if (value == nullptr || !ParseInt32(value, &instances) ||
          instances < 1 || instances > 100000) {
        return Fail("--instances needs an integer in [1, 100000]");
      }
      ++i;
    } else if (flag == "--rung-deadline-ms") {
      if (value == nullptr || !ParseInt64(value, &rung_deadline_ms) ||
          rung_deadline_ms < 1) {
        return Fail("--rung-deadline-ms needs a positive integer");
      }
      ++i;
    } else if (flag == "--seed") {
      if (value == nullptr || !ParseInt64(value, &seed)) {
        return Fail("--seed needs an integer");
      }
      ++i;
    } else if (flag == "--out") {
      if (value == nullptr || *value == '\0') {
        return Fail("--out needs a file path ('-' = stdout)");
      }
      out_path = value;
      ++i;
    } else {
      return Fail("unknown flag '" + flag + "'");
    }
  }

  std::ofstream out_file;
  if (!out_path.empty() && out_path != "-") {
    out_file.open(out_path);
    if (!out_file.is_open()) {
      std::fprintf(stderr, "error: cannot open output file '%s'\n",
                   out_path.c_str());
      return kExitRuntime;
    }
  }
  std::ostream& out = out_file.is_open() ? out_file : std::cout;

  const ExactPebbler exact{ExactPebbler::Options()};
  const IlsPebbler ils;
  const LocalSearchPebbler local_search;
  const Pebbler* rungs[kNumPlannedRungs] = {&exact, &ils, &local_search};

  // Four interleaved families, sizes growing with the sweep index so the
  // fit sees both the exact-feasible region and the sizes it must learn to
  // skip: Theorem 3.3 worst cases, complete bipartite (equijoin shape),
  // sparse near-trees, and dense random graphs. All connected — the
  // planner plans per component, so the labels must be per-component too.
  for (int i = 0; i < instances; ++i) {
    const int family = i % 4;
    const int size = i / 4;
    std::string family_name;
    BipartiteGraph g(1, 1);
    switch (family) {
      case 0: {
        family_name = "worstcase";
        g = WorstCaseFamily(3 + size);
        break;
      }
      case 1: {
        family_name = "complete";
        g = CompleteBipartite(2 + size % 7, 2 + size / 2);
        break;
      }
      case 2: {
        family_name = "sparse";
        const int side = 3 + size;
        g = RandomConnectedBipartite(
            side, side, 2 * side - 1 + size / 2,
            static_cast<uint64_t>(seed) * 7919 + static_cast<uint64_t>(i));
        break;
      }
      default: {
        family_name = "dense";
        const int side = 3 + size % 14;
        const int64_t want = 3 * side;
        const int m = static_cast<int>(
            std::min<int64_t>(int64_t{side} * side, want));
        g = RandomConnectedBipartite(
            side, side, m,
            static_cast<uint64_t>(seed) * 104729 + static_cast<uint64_t>(i));
        break;
      }
    }
    const Graph flat = g.ToGraph();
    const GraphFeatures features = ExtractGraphFeatures(flat);
    const std::array<double, kNumLogFeatures> log_features =
        LogFeatureVector(features);

    JsonWriter json;
    json.BeginObject();
    json.Field("family", family_name);
    json.Field("left", g.left_size());
    json.Field("right", g.right_size());
    json.Field("m", g.num_edges());
    json.Key("features");
    json.BeginObject();
    json.Field("num_vertices", features.num_vertices);
    json.Field("num_edges", features.num_edges);
    json.Field("betti_zero", features.betti_zero);
    json.Field("max_degree", features.max_degree);
    json.Field("mean_degree", features.mean_degree);
    json.Field("density", features.density);
    json.Field("degree_skew", features.degree_skew);
    json.Field("line_graph_edges", features.line_graph_edges);
    json.Field("equijoin_shape", features.equijoin_shape);
    json.Field("bipartite", features.bipartite);
    json.EndObject();
    json.Key("log_features");
    json.BeginArray();
    for (double v : log_features) json.Double(v);
    json.EndArray();
    json.Key("rungs");
    json.BeginObject();
    for (int r = 0; r < kNumPlannedRungs; ++r) {
      SolveBudget budget;
      budget.deadline_ms = rung_deadline_ms;
      BudgetContext ctx(budget);
      SolveOutcome outcome;
      const std::optional<std::vector<int>> order =
          rungs[r]->PebbleWithOutcome(flat, &ctx, &outcome);
      const RungAttempt& attempt = outcome.attempts.back();
      json.Key(PlannedRungName(r));
      json.BeginObject();
      json.Field("status", RungStatusName(attempt.status));
      json.Field("elapsed_us", attempt.elapsed_us);
      json.Field("cost", order.has_value() ? attempt.cost : int64_t{-1});
      json.EndObject();
    }
    json.EndObject();
    json.EndObject();
    out << json.TakeString() << "\n";
  }
  out.flush();
  if (out_file.is_open() && !out_file.good()) {
    std::fprintf(stderr, "error: writing '%s' failed\n", out_path.c_str());
    return kExitRuntime;
  }
  return 0;
}

int CmdBatch(int argc, char** argv) {
  std::string in_path;   // required; "-" = stdin
  std::string out_path;  // empty or "-" = stdout
  BatchRunner::Options options;
  SolveBudget budget;
  bool budget_set = false;
  std::string cost_model_path;
  std::string journal_out;  // empty: no journal; "-" = stderr
  LogLevel log_level = LogLevel::kInfo;
  int flight_recorder = EventLog::kDefaultCapacity;
  std::string metrics_out;
  bool perf = false;
  std::string profile_out;
  int64_t slow_request_ms = -1;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--perf-stats") {
      perf = true;
    } else if (flag == "--profile-out") {
      if (value == nullptr || *value == '\0') {
        return Fail("--profile-out needs a file path");
      }
      profile_out = value;
      ++i;
    } else if (flag == "--jsonl") {
      if (value == nullptr || *value == '\0') {
        return Fail("--jsonl needs a file path ('-' = stdin)");
      }
      in_path = value;
      ++i;
    } else if (flag == "--out") {
      if (value == nullptr || *value == '\0') {
        return Fail("--out needs a file path ('-' = stdout)");
      }
      out_path = value;
      ++i;
    } else if (flag == "--threads") {
      int threads = 0;
      if (value == nullptr || !ParseInt32(value, &threads) || threads < 0 ||
          threads > 4096) {
        return Fail("--threads needs an integer in [0, 4096] (0 = hardware)");
      }
      options.threads =
          threads == 0 ? ThreadPool::DefaultThreads() : threads;
      ++i;
    } else if (flag == "--deadline-ms") {
      int64_t ms = 0;
      if (value == nullptr || !ParseInt64(value, &ms) || ms < 0) {
        return Fail("--deadline-ms needs a non-negative integer");
      }
      budget.deadline_ms = ms;
      budget_set = true;
      ++i;
    } else if (flag == "--node-budget") {
      int64_t nodes = 0;
      if (value == nullptr || !ParseInt64(value, &nodes) || nodes < 0) {
        return Fail("--node-budget needs a non-negative integer");
      }
      budget.node_budget = nodes;
      budget_set = true;
      ++i;
    } else if (flag == "--memory-mb") {
      int64_t mb = 0;
      if (value == nullptr || !ParseInt64(value, &mb) || mb < 0 ||
          mb > (int64_t{1} << 40)) {
        return Fail("--memory-mb needs a non-negative integer");
      }
      budget.memory_limit_bytes = mb << 20;
      budget_set = true;
      ++i;
    } else if (flag == "--batch-deadline-ms") {
      int64_t ms = 0;
      if (value == nullptr || !ParseInt64(value, &ms) || ms < 0) {
        return Fail("--batch-deadline-ms needs a non-negative integer");
      }
      options.batch_deadline_ms = ms;
      ++i;
    } else if (flag == "--admission") {
      if (value != nullptr && std::string(value) == "queue") {
        options.admission = BatchRunner::Admission::kQueue;
      } else if (value != nullptr && std::string(value) == "reject") {
        options.admission = BatchRunner::Admission::kReject;
      } else {
        return Fail("--admission needs 'queue' or 'reject'");
      }
      ++i;
    } else if (flag == "--solver") {
      SolverChoice choice = SolverChoice::kAuto;
      if (value == nullptr || !ParseSolverName(value, &choice)) {
        return Fail(std::string("--solver needs one of: ") + SolverNameList());
      }
      options.default_solver = choice;
      ++i;
    } else if (flag == "--planner") {
      PlannerChoice choice = PlannerChoice::kLadder;
      if (value == nullptr || !ParsePlannerName(value, &choice)) {
        return Fail(std::string("--planner needs one of: ") +
                    PlannerNameList());
      }
      options.default_planner = choice;
      ++i;
    } else if (flag == "--cost-model") {
      if (value == nullptr || *value == '\0') {
        return Fail("--cost-model needs a file path");
      }
      cost_model_path = value;
      ++i;
    } else if (flag == "--predicate") {
      if (value == nullptr ||
          !ParsePredicateName(value, &options.default_predicate)) {
        return Fail(std::string("--predicate needs one of: ") +
                    PredicateNameList());
      }
      ++i;
    } else if (flag == "--progress-every-ms") {
      int64_t ms = 0;
      if (value == nullptr || !ParseInt64(value, &ms) || ms < 0) {
        return Fail("--progress-every-ms needs a non-negative integer");
      }
      options.progress_every_ms = ms;
      ++i;
    } else if (flag == "--slow-request-ms") {
      int64_t ms = 0;
      if (value == nullptr || !ParseInt64(value, &ms) || ms < 0) {
        return Fail("--slow-request-ms needs a non-negative integer");
      }
      slow_request_ms = ms;
      ++i;
    } else {
      bool known = false;
      const int consumed =
          ParseJournalFlag(flag, value, &known, &journal_out, &log_level,
                           &flight_recorder, &metrics_out);
      if (consumed < 0) return kExitBadFlags;
      if (!known) return Fail("unknown flag '" + flag + "'");
      i += consumed;
    }
  }
  if (in_path.empty()) {
    return Fail("batch needs --jsonl FILE ('-' = stdin)");
  }
  if (budget_set) options.default_budget = budget;
  CostModel cost_model = CostModel::BuiltIn();
  const int model_rc = ResolveCostModel(cost_model_path, &cost_model);
  if (model_rc != 0) return model_rc;

  std::ifstream in_file;
  if (in_path != "-") {
    in_file.open(in_path);
    if (!in_file.is_open()) {
      std::fprintf(stderr, "error: cannot open input file '%s'\n",
                   in_path.c_str());
      return kExitMissingInput;
    }
  }
  std::istream& in = in_path == "-" ? std::cin : in_file;

  if (options.progress_every_ms >= 0) {
    options.progress = &std::cerr;
    if (in_path != "-") {
      // Pre-count non-blank lines so progress can say "done/total" and
      // estimate time remaining. Same blank test as the runner's.
      std::ifstream counter(in_path);
      std::string count_line;
      int64_t expected = 0;
      while (std::getline(counter, count_line)) {
        if (count_line.find_first_not_of(" \t\r") != std::string::npos) {
          ++expected;
        }
      }
      options.expected_lines = expected;
    }
  }

  std::ofstream out_file;
  if (!out_path.empty() && out_path != "-") {
    out_file.open(out_path);
    if (!out_file.is_open()) {
      std::fprintf(stderr, "error: cannot open output file '%s'\n",
                   out_path.c_str());
      return kExitRuntime;
    }
  }
  std::ostream& out = out_file.is_open() ? out_file : std::cout;

  Journal::Options journal_options;
  journal_options.min_level = log_level;
  Journal journal(journal_options);
  SolveEngine::Options engine_options;
  if (!journal_out.empty()) {
    if (!AttachJournalSink(journal_out, &journal)) return kExitRuntime;
    engine_options.defaults.journal = &journal;
    engine_options.defaults.flight_recorder = flight_recorder;
  }
  engine_options.defaults.perf = perf;
  engine_options.defaults.cost_model = cost_model;
  engine_options.defaults.slow_request_ms = slow_request_ms;
  SolveEngine engine(engine_options);
  BatchRunner runner(&engine, options);
  SamplingProfiler profiler;
  StartProfiler(profile_out, &profiler);
  const BatchRunner::Summary summary = runner.Run(in, out);
  if (!FinishProfiler(profile_out, &profiler)) return kExitRuntime;
  // Stdout is pure JSONL; the tallies go to stderr.
  std::fprintf(stderr,
               "batch: %lld lines, %lld solved, %lld errors, %lld rejected, "
               "%lld degraded, latency p50=%lldms p95=%lldms p99=%lldms\n",
               static_cast<long long>(summary.lines_read),
               static_cast<long long>(summary.solved),
               static_cast<long long>(summary.errors),
               static_cast<long long>(summary.rejected),
               static_cast<long long>(summary.degraded),
               static_cast<long long>(summary.latency_p50_ms),
               static_cast<long long>(summary.latency_p95_ms),
               static_cast<long long>(summary.latency_p99_ms));
  if (!metrics_out.empty() &&
      !WriteMetricsFile(metrics_out, engine.metrics())) {
    return kExitRuntime;
  }
  if (out_file.is_open() && !out_file.good()) {
    std::fprintf(stderr, "error: writing '%s' failed\n", out_path.c_str());
    return kExitRuntime;
  }
  return 0;
}

// --- serve signal plumbing -------------------------------------------------
// Handlers must be async-signal-safe, so they only write one byte into a
// self-pipe; a watcher thread turns the first byte into BeginDrain and any
// later one into Abort. A zero byte is the shutdown sentinel the main
// thread sends to retire the watcher.
int g_serve_signal_pipe[2] = {-1, -1};

extern "C" void ServeSignalHandler(int /*signum*/) {
  const char byte = 1;
  (void)!::write(g_serve_signal_pipe[1], &byte, 1);
}

int CmdServe(int argc, char** argv) {
  ServeOptions sopts;
  SolveBudget budget;
  bool budget_set = false;
  bool solver_set = false;
  std::string cost_model_path;
  std::string journal_out;
  LogLevel log_level = LogLevel::kInfo;
  int flight_recorder = EventLog::kDefaultCapacity;
  std::string metrics_out;
  bool perf = false;
  int64_t slow_request_ms = -1;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--perf-stats") {
      perf = true;
    } else if (flag == "--host") {
      if (value == nullptr || *value == '\0') {
        return Fail("--host needs an IPv4 address");
      }
      sopts.host = value;
      ++i;
    } else if (flag == "--port") {
      int port = 0;
      if (value == nullptr || !ParseInt32(value, &port) || port < 0 ||
          port > 65535) {
        return Fail("--port needs an integer in [0, 65535] (0 = ephemeral)");
      }
      sopts.port = port;
      ++i;
    } else if (flag == "--threads") {
      int threads = 0;
      if (value == nullptr || !ParseInt32(value, &threads) || threads < 0 ||
          threads > 4096) {
        return Fail("--threads needs an integer in [0, 4096] (0 = hardware)");
      }
      sopts.threads = threads == 0 ? ThreadPool::DefaultThreads() : threads;
      ++i;
    } else if (flag == "--max-conns") {
      int n = 0;
      if (value == nullptr || !ParseInt32(value, &n) || n < 1) {
        return Fail("--max-conns needs a positive integer");
      }
      sopts.max_connections = n;
      ++i;
    } else if (flag == "--max-inflight") {
      int n = 0;
      if (value == nullptr || !ParseInt32(value, &n) || n < 1) {
        return Fail("--max-inflight needs a positive integer");
      }
      sopts.max_inflight = n;
      ++i;
    } else if (flag == "--per-conn-inflight") {
      int n = 0;
      if (value == nullptr || !ParseInt32(value, &n) || n < 1) {
        return Fail("--per-conn-inflight needs a positive integer");
      }
      sopts.per_conn_inflight = n;
      ++i;
    } else if (flag == "--idle-timeout-ms") {
      int64_t ms = 0;
      if (value == nullptr || !ParseInt64(value, &ms)) {
        return Fail("--idle-timeout-ms needs an integer (<= 0 disables)");
      }
      sopts.idle_timeout_ms = ms;
      ++i;
    } else if (flag == "--max-line-bytes") {
      int64_t bytes = 0;
      if (value == nullptr || !ParseInt64(value, &bytes) || bytes < 1) {
        return Fail("--max-line-bytes needs a positive integer");
      }
      sopts.max_line_bytes = bytes;
      ++i;
    } else if (flag == "--request-deadline-ms") {
      int64_t ms = 0;
      if (value == nullptr || !ParseInt64(value, &ms)) {
        return Fail(
            "--request-deadline-ms needs an integer (< 0 disables the cap)");
      }
      sopts.request_deadline_cap_ms = ms;
      ++i;
    } else if (flag == "--drain-ms") {
      int64_t ms = 0;
      if (value == nullptr || !ParseInt64(value, &ms) || ms < 0) {
        return Fail("--drain-ms needs a non-negative integer");
      }
      sopts.drain_ms = ms;
      ++i;
    } else if (flag == "--slo-p99-ms") {
      int64_t ms = 0;
      if (value == nullptr || !ParseInt64(value, &ms) || ms < 1) {
        return Fail("--slo-p99-ms needs a positive integer");
      }
      sopts.slo_p99_ms = ms;
      ++i;
    } else if (flag == "--slo-error-rate") {
      double rate = 0.0;
      if (value == nullptr || !ParseDouble(value, &rate) || rate <= 0.0 ||
          rate > 1.0) {
        return Fail("--slo-error-rate needs a number in (0, 1]");
      }
      sopts.slo_error_rate = rate;
      ++i;
    } else if (flag == "--trace-sample") {
      int64_t n = 0;
      if (value == nullptr || !ParseInt64(value, &n) || n < 0) {
        return Fail("--trace-sample needs a non-negative integer (0 = off)");
      }
      sopts.trace_sample = n;
      ++i;
    } else if (flag == "--trace-dir") {
      if (value == nullptr || *value == '\0') {
        return Fail("--trace-dir needs a directory path");
      }
      sopts.trace_dir = value;
      ++i;
    } else if (flag == "--slow-request-ms") {
      int64_t ms = 0;
      if (value == nullptr || !ParseInt64(value, &ms) || ms < 0) {
        return Fail("--slow-request-ms needs a non-negative integer");
      }
      slow_request_ms = ms;
      ++i;
    } else if (flag == "--deadline-ms") {
      int64_t ms = 0;
      if (value == nullptr || !ParseInt64(value, &ms) || ms < 0) {
        return Fail("--deadline-ms needs a non-negative integer");
      }
      budget.deadline_ms = ms;
      budget_set = true;
      ++i;
    } else if (flag == "--node-budget") {
      int64_t nodes = 0;
      if (value == nullptr || !ParseInt64(value, &nodes) || nodes < 0) {
        return Fail("--node-budget needs a non-negative integer");
      }
      budget.node_budget = nodes;
      budget_set = true;
      ++i;
    } else if (flag == "--memory-mb") {
      int64_t mb = 0;
      if (value == nullptr || !ParseInt64(value, &mb) || mb < 0 ||
          mb > (int64_t{1} << 40)) {
        return Fail("--memory-mb needs a non-negative integer");
      }
      budget.memory_limit_bytes = mb << 20;
      budget_set = true;
      ++i;
    } else if (flag == "--solver") {
      SolverChoice choice = SolverChoice::kAuto;
      if (value == nullptr || !ParseSolverName(value, &choice)) {
        return Fail(std::string("--solver needs one of: ") + SolverNameList());
      }
      sopts.solver = choice;
      solver_set = true;
      ++i;
    } else if (flag == "--planner") {
      PlannerChoice choice = PlannerChoice::kLadder;
      if (value == nullptr || !ParsePlannerName(value, &choice)) {
        return Fail(std::string("--planner needs one of: ") +
                    PlannerNameList());
      }
      sopts.planner = choice;
      ++i;
    } else if (flag == "--cost-model") {
      if (value == nullptr || *value == '\0') {
        return Fail("--cost-model needs a file path");
      }
      cost_model_path = value;
      ++i;
    } else if (flag == "--predicate") {
      if (value == nullptr || !ParsePredicateName(value, &sopts.predicate)) {
        return Fail(std::string("--predicate needs one of: ") +
                    PredicateNameList());
      }
      ++i;
    } else {
      bool known = false;
      const int consumed =
          ParseJournalFlag(flag, value, &known, &journal_out, &log_level,
                           &flight_recorder, &metrics_out);
      if (consumed < 0) return kExitBadFlags;
      if (!known) return Fail("unknown flag '" + flag + "'");
      i += consumed;
    }
  }
  if (budget_set) {
    sopts.budget = budget;
    // The CLI convention: a budget with no explicit solver means the
    // fallback ladder (degrade, never refuse) — same as analyze/batch.
    if (!solver_set) sopts.solver = SolverChoice::kFallback;
  }
  CostModel cost_model = CostModel::BuiltIn();
  const int model_rc = ResolveCostModel(cost_model_path, &cost_model);
  if (model_rc != 0) return model_rc;

  Journal::Options journal_options;
  journal_options.min_level = log_level;
  Journal journal(journal_options);
  SolveEngine::Options engine_options;
  if (!journal_out.empty()) {
    if (!AttachJournalSink(journal_out, &journal)) return kExitRuntime;
    engine_options.defaults.journal = &journal;
    engine_options.defaults.flight_recorder = flight_recorder;
  }
  engine_options.defaults.perf = perf;
  engine_options.defaults.cost_model = cost_model;
  engine_options.defaults.slow_request_ms = slow_request_ms;
  SolveEngine engine(engine_options);
  LineServer server(&engine, sopts);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return kExitRuntime;
  }
  // Build provenance precedes the address announcement so log captures
  // can attribute the run to an exact build. Scripts key on the
  // "serving on" line, which keeps its position as the last banner line.
  std::fprintf(stderr, "%s\n", FormatBuildInfo().c_str());
  std::fprintf(stderr, "serving on %s:%d\n", sopts.host.c_str(),
               server.port());
  std::fflush(stderr);

  // A dead client's socket must cost an EPIPE errno, never the process.
  std::signal(SIGPIPE, SIG_IGN);
  if (::pipe(g_serve_signal_pipe) != 0) {
    std::fprintf(stderr, "error: pipe() failed\n");
    return kExitRuntime;
  }
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = ServeSignalHandler;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);

  std::thread watcher([&server] {
    int signals_seen = 0;
    char byte = 0;
    while (true) {
      const ssize_t n = ::read(g_serve_signal_pipe[0], &byte, 1);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0 || byte == 0) break;  // sentinel or closed pipe: retire
      ++signals_seen;
      if (signals_seen == 1) {
        std::fprintf(stderr, "serve: drain requested\n");
        server.BeginDrain();
      } else {
        std::fprintf(stderr, "serve: aborting\n");
        server.Abort();
      }
    }
  });

  const LineServer::Summary summary = server.Wait();
  const char sentinel = 0;
  (void)!::write(g_serve_signal_pipe[1], &sentinel, 1);
  watcher.join();
  ::close(g_serve_signal_pipe[0]);
  ::close(g_serve_signal_pipe[1]);

  std::fprintf(stderr,
               "serve: %lld connections (%lld shed), %lld lines, "
               "%lld responses, %lld rejected%s\n",
               static_cast<long long>(summary.connections),
               static_cast<long long>(summary.conn_rejected),
               static_cast<long long>(summary.lines),
               static_cast<long long>(summary.responses),
               static_cast<long long>(summary.rejected_lines),
               summary.aborted ? ", aborted" : "");
  if (!metrics_out.empty() &&
      !WriteMetricsFile(metrics_out, engine.metrics())) {
    return kExitRuntime;
  }
  return summary.aborted ? kExitRuntime : 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "--version" || command == "version") {
    std::printf("%s\n", FormatBuildInfo().c_str());
    return 0;
  }
  if (command == "gen") return CmdGen(argc, argv);
  if (command == "analyze") return CmdAnalyze(argc, argv);
  if (command == "solve") return CmdSolve(argc, argv);
  if (command == "realize") return CmdRealize(argc, argv);
  if (command == "bounds") return CmdBounds(argc, argv);
  if (command == "schedule") return CmdSchedule(argc, argv);
  if (command == "partition") return CmdPartition(argc, argv);
  if (command == "dot") return CmdDot(argc, argv);
  if (command == "calibrate") return CmdCalibrate(argc, argv);
  if (command == "batch") return CmdBatch(argc, argv);
  if (command == "serve") return CmdServe(argc, argv);
  return Usage();
}

}  // namespace
}  // namespace pebblejoin

int main(int argc, char** argv) { return pebblejoin::Main(argc, argv); }
