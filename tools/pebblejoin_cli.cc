// pebblejoin — command-line front end.
//
// `pebblejoin` with no arguments prints Usage(), the one list of commands
// and flags. Every command that takes flags parses them through one table
// (see Flag below); gen, realize and bounds take positional arguments.
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
// `loadgen` is serve's matching client: --clients connections replay a
// JSONL corpus (--repeat times) with at most --window lines in flight
// each, capture the responses in corpus order (--out), and check that
// each line got exactly one response. --ids stamps every line with a
// correlation id and fails the run unless every response echoes it.
//
// Budget flags (analyze/solve/batch/serve): --deadline-ms N, --memory-mb N,
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
// every line.
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
// (unparsable graph; an input that cannot be read, an output or journal
// that cannot be written), 2 bad flags, 64 usage (no or unknown command),
// 66 a named input that cannot be opened. loadgen also exits 1 when a
// client fails or a response misses its id.

#include <csignal>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/analyzer.h"
#include "core/report.h"
#include "engine/batch_runner.h"
#include "engine/jsonl_request.h"
#include "engine/names.h"
#include "serve/line_server.h"
#include "serve/loopback_client.h"
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
#include "util/file_io.h"
#include "util/line_framer.h"
#include "util/parse_int.h"
#include "util/thread_pool.h"

namespace pebblejoin {
namespace {

// Exit codes, one per failure class, so scripts can branch on what went
// wrong (asserted by tests/cli_smoke_test.sh).
constexpr int kExitRuntime = 1;   // bad graph, unreadable or unwritable file
constexpr int kExitBadFlags = 2;  // a command was given bad flags
constexpr int kExitUsage = 64;    // no command, or an unknown one
constexpr int kExitMissingInput = 66;  // a named input cannot be opened

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
      "  pebblejoin loadgen --port P --jsonl IN.jsonl [--host H]\n"
      "                     [--clients N] [--window W] [--repeat R]\n"
      "                     [--timeout-ms N] [--ids] [--out OUT.jsonl]\n"
      "                     [--latency-out FILE]\n"
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

// Prints the one-line "error: " report; false, for `ok || Error(...)`.
bool Error(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return false;
}

// One-line bad-input report. Always nonzero.
int Fail(const std::string& message) {
  Error(message);
  return kExitBadFlags;
}

// Reads a strict base-10 integer (util/parse_int.h) in [lo, hi] into
// `*out`; false, leaving `*out` alone, otherwise.
template <typename T>
bool ParseArg(const char* token, T* out,
              int64_t lo = std::numeric_limits<T>::min(),
              int64_t hi = std::numeric_limits<T>::max()) {
  if (token == nullptr) return false;
  const std::optional<int64_t> value = ParseInt(token, lo, hi);
  if (value.has_value()) *out = static_cast<T>(*value);
  return value.has_value();
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

// True when `status` is ok; otherwise prints its one-line error first.
bool FileOk(const FileStatus& status, const std::string& path) {
  return status.ok() || Error(status.Message(path));
}

// The exit code of a named input that could not be read.
int InputExit(const FileStatus& status) {
  return status.stage == FileStatus::kOpen ? kExitMissingInput : kExitRuntime;
}

// --- The flag table ---------------------------------------------------------
// Each command lists its flags in one table. A row names a flag, says
// whether it consumes the next argument, and parses-and-stores that value
// (false = rejected). ParseFlags walks argv left to right; an unknown flag,
// a missing value, or a rejected one prints a one-line error — the row's,
// or "unknown flag" — and the command exits kExitBadFlags.
struct Flag {
  std::string name;
  bool takes_value = false;
  std::function<bool(const char* value)> store;  // value is null for switches
  std::string error;
};
using FlagTable = std::vector<Flag>;

bool ParseFlags(int argc, char** argv, const FlagTable& table) {
  for (int i = 2; i < argc; ++i) {
    const std::string name = argv[i];
    const auto row =
        std::find_if(table.begin(), table.end(),
                     [&name](const Flag& flag) { return flag.name == name; });
    if (row == table.end()) {
      Fail("unknown flag '" + name + "'");
      return false;
    }
    const char* value = nullptr;
    if (row->takes_value) {
      if (i + 1 == argc) {
        Fail(row->error);
        return false;
      }
      value = argv[++i];
    }
    if (!row->store(value)) {
      Fail(row->error);
      return false;
    }
  }
  return true;
}

Flag Switch(const char* name, bool* out) {
  return {name, false, [out](const char*) { return *out = true; }, ""};
}

// A non-empty string: a path, a host, a directory.
Flag Text(const char* name, std::string* out, std::string error) {
  return {name, true,
          [out](const char* value) {
            if (*value == '\0') return false;
            *out = value;
            return true;
          },
          std::move(error)};
}

// A base-10 integer in [lo, hi].
template <typename T>
Flag Int(const char* name, T* out, std::string error,
         int64_t lo = std::numeric_limits<T>::min(),
         int64_t hi = std::numeric_limits<T>::max()) {
  return {name, true,
          [out, lo, hi](const char* value) {
            return ParseArg(value, out, lo, hi);
          },
          std::move(error)};
}

template <typename T>
Flag NonNegative(const char* name, T* out) {
  return Int(name, out, std::string(name) + " needs a non-negative integer", 0);
}

template <typename T>
Flag Positive(const char* name, T* out) {
  return Int(name, out, std::string(name) + " needs a positive integer", 1);
}

// One of the spellings `parse` accepts (engine/names.h, obs/log.h).
template <typename T>
Flag Named(const char* name, T* out, bool (*parse)(const std::string&, T*),
           const char* spellings) {
  return {name, true,
          [out, parse](const char* value) { return parse(value, out); },
          std::string(name) + " needs one of: " + spellings};
}

Flag Threads(int* out) {
  return {"--threads", true,
          [out](const char* value) {
            int threads = 0;
            if (!ParseArg(value, &threads, 0, 4096)) return false;
            *out = threads == 0 ? ThreadPool::DefaultThreads() : threads;
            return true;
          },
          "--threads needs an integer in [0, 4096] (0 = hardware)"};
}

// What analyze/solve/batch/serve share. The solver, planner, and budget
// flags write straight into the engine's request defaults; batch and serve
// lines are seeded from the same AnalyzerOptions, so a flag means one thing
// on every surface.
struct RequestFlags {
  AnalyzerOptions defaults;
  bool solver_set = false;      // --solver given: a budget keeps that solver
  std::string cost_model_path;  // empty: the compiled-in calibration
  Journal::Options journal;     // --log-level
  std::string journal_out;      // empty: no journal; "-" = stderr
  std::string metrics_out;      // empty: no OpenMetrics file
  std::string profile_out;      // empty: no sampling profiler
};

// --solver/--planner/--cost-model/--predicate and the budget flags.
void AddRequestFlags(RequestFlags* flags, PredicateClass* predicate,
                     FlagTable* table) {
  AnalyzerOptions* defaults = &flags->defaults;
  SolveBudget* budget = &defaults->budget;
  table->insert(
      table->end(),
      {{"--solver", true,
        [flags](const char* value) {
          flags->solver_set = true;
          return ParseSolverName(value, &flags->defaults.solver);
        },
        std::string("--solver needs one of: ") + SolverNameList()},
       Named("--planner", &defaults->planner, ParsePlannerName,
             PlannerNameList()),
       Text("--cost-model", &flags->cost_model_path,
            "--cost-model needs a file path"),
       Named("--predicate", predicate, ParsePredicateName,
             PredicateNameList()),
       NonNegative("--deadline-ms", &budget->deadline_ms),
       NonNegative("--node-budget", &budget->node_budget),
       {"--memory-mb", true,
        [budget](const char* value) {
          int64_t mb = 0;
          if (!ParseArg(value, &mb, 0, int64_t{1} << 40)) return false;
          budget->memory_limit_bytes = mb << 20;
          return true;
        },
        "--memory-mb needs a non-negative integer"}});
}

// --journal/--log-level/--flight-recorder/--metrics-out/--perf-stats, plus
// --profile-out where the command runs the sampling profiler.
void AddTelemetryFlags(RequestFlags* flags, bool profiler, FlagTable* table) {
  table->insert(
      table->end(),
      {Text("--journal", &flags->journal_out,
            "--journal needs a file path ('-' = stderr)"),
       Named("--log-level", &flags->journal.min_level, ParseLogLevel,
             "debug info warn error off"),
       Int("--flight-recorder", &flags->defaults.flight_recorder,
           "--flight-recorder needs an integer in [1, 1048576]", 1, 1 << 20),
       Text("--metrics-out", &flags->metrics_out,
            "--metrics-out needs a file path"),
       Switch("--perf-stats", &flags->defaults.perf)});
  if (profiler) {
    table->push_back(Text("--profile-out", &flags->profile_out,
                          "--profile-out needs a file path"));
  }
}

// Completes the request flags once parsing is done: a budget without an
// explicit --solver selects the fallback ladder ("give me the best scheme
// you can inside these limits" — the ladder never refuses), and
// --cost-model loads. Returns 0, kExitMissingInput when the cost-model file
// cannot be opened, kExitRuntime when reading it fails, or kExitBadFlags
// when it does not parse.
int FinishRequestFlags(RequestFlags* flags) {
  const SolveBudget& budget = flags->defaults.budget;
  if (!flags->solver_set && (budget.has_deadline() ||
                             budget.has_node_budget() ||
                             budget.has_memory_limit())) {
    flags->defaults.solver = SolverChoice::kFallback;
  }
  const std::string& path = flags->cost_model_path;
  if (path.empty()) return 0;
  std::string contents;
  const FileStatus read = ReadFileToString(path, &contents);
  if (!FileOk(read, path)) return InputExit(read);
  std::string error;
  if (!ParseCostModelJson(contents, &flags->defaults.cost_model, &error)) {
    return Fail("cost-model file '" + path + "': " + error);
  }
  return 0;
}

// A streamed output — batch's and calibrate's --out, the --journal file:
// the named file, or `dash` for "-" and an empty path. Open() and
// Finish() print their own errors.
class StreamOut {
 public:
  explicit StreamOut(const std::string& path, std::ostream& dash = std::cout)
      : path_(path), dash_(dash) {}

  const std::string& path() const { return path_; }

  // False when the file cannot be created.
  bool Open() {
    if (path_.empty() || path_ == "-") return true;
    file_.open(path_);
    if (file_.is_open()) return true;
    FileOk({FileStatus::kOpen, errno}, path_);
    return false;
  }

  std::ostream& stream() { return file_.is_open() ? file_ : dash_; }

  // Flushes; false when a write to the file failed. A stream keeps no
  // errno, so this error names no reason.
  bool Finish() {
    stream().flush();
    return !file_.is_open() || file_.good() ||
           Error("writing '" + path_ + "' failed");
  }

 private:
  std::string path_;
  std::ostream& dash_;
  std::ofstream file_;
};

// Opens the --journal sink, if one was given ('-' = stderr), attaches it
// to `journal` and points `options` at the journal. Returns false (after
// printing the error) when the file cannot be created.
bool AttachJournal(StreamOut* sink, Journal* journal,
                   AnalyzerOptions* options) {
  if (sink->path().empty()) return true;
  if (!sink->Open()) return false;
  journal->AttachStream(&sink->stream());
  options->journal = journal;
  return true;
}

// Writes --metrics-out from `metrics` and checks the --journal file.
// Returns false (after printing the error) when either failed.
bool FinishTelemetry(const std::string& metrics_out,
                     const MetricsRegistry& metrics, StreamOut* journal) {
  if (!metrics_out.empty() &&
      !FileOk(WriteStringToFile(metrics_out, metrics.OpenMetricsText()),
              metrics_out)) {
    return false;
  }
  return journal->Finish();
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
  std::string error;
  return profiler->WriteFolded(profile_out, &error) || Error(error);
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
  std::string text;
  if (!FileOk({FileStatus::kRead, ReadFdToString(STDIN_FILENO, &text)}, "-")) {
    return std::nullopt;
  }
  std::string error;
  std::optional<BipartiteGraph> g = ParseBipartiteGraph(text, &error);
  if (!g.has_value()) Error(error);
  return g;
}

int CmdGen(int argc, char** argv) {
  if (argc < 3) return Fail("gen needs a family: worstcase, complete, random");
  const std::string family = argv[2];
  if (family == "worstcase") {
    int n = 0;
    if (argc != 4 || !ParseArg(argv[3], &n)) {
      return Fail("gen worstcase needs one integer argument <n>");
    }
    if (n < 3) return Fail("gen worstcase needs n >= 3");
    std::fputs(SerializeBipartiteGraph(WorstCaseFamily(n)).c_str(), stdout);
    return 0;
  }
  if (family == "complete") {
    int k = 0, l = 0;
    if (argc != 5 || !ParseArg(argv[3], &k) || !ParseArg(argv[4], &l)) {
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
    if ((argc != 7 && argc != 8) || !ParseArg(argv[3], &left) ||
        !ParseArg(argv[4], &right) || !ParseArg(argv[5], &m) ||
        !ParseArg(argv[6], &seed)) {
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

// The flags of analyze/solve: the shared request flags plus the output
// switches of a one-shot analysis.
struct AnalysisFlags {
  RequestFlags request;
  PredicateClass predicate = PredicateClass::kGeneral;
  bool explain = false;  // solve only
  bool json = false;
  bool stats = false;
  std::string trace_out;  // empty: no trace
};

// Telemetry plumbing shared by analyze/solve: enables the process registry
// under --json/--stats/--metrics-out, attaches a TraceSession when
// --trace-out was given and a Journal when --journal was, runs the
// analysis, and writes the trace/metrics files. Returns false (after
// printing the error) when any output file, the journal included, could
// not be written.
bool RunAnalysis(const AnalysisFlags& flags, const BipartiteGraph& g,
                 JoinAnalysis* analysis) {
  AnalyzerOptions options = flags.request.defaults;
  TraceSession trace;
  if (!flags.trace_out.empty()) options.trace = &trace;
  StreamOut journal_sink(flags.request.journal_out, std::cerr);
  Journal journal(flags.request.journal);
  if (!AttachJournal(&journal_sink, &journal, &options)) return false;
  const std::string& metrics_out = flags.request.metrics_out;
  if (flags.json || flags.stats || !metrics_out.empty()) {
    // The process-global registry is the CLI's explicit opt-in — library
    // code publishes only into the engine's session registry unless a
    // surface injects one.
    MetricsRegistry::Default()->set_enabled(true);
    options.metrics = MetricsRegistry::Default();
  }
  SamplingProfiler profiler;
  StartProfiler(flags.request.profile_out, &profiler);
  const JoinAnalyzer analyzer(options);
  *analysis = analyzer.AnalyzeJoinGraph(g, flags.predicate);
  if (!FinishProfiler(flags.request.profile_out, &profiler)) return false;
  std::string error;
  if (!flags.trace_out.empty() && !trace.WriteFile(flags.trace_out, &error)) {
    return Error(error);
  }
  return FinishTelemetry(metrics_out, *MetricsRegistry::Default(),
                         &journal_sink);
}

// Prints solve's human output: the provenance header in comments, then
// one edge id per line (or, with --explain, the narrated schedule).
void PrintSolve(const AnalysisFlags& flags, const BipartiteGraph& g,
                const JoinAnalysis& analysis) {
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
  if (flags.request.defaults.perf) {
    // Same contract: the perf table rides in comments too.
    PrintCommented(FormatPerfStats(analysis));
  }
  if (!flags.explain) {
    for (int e : analysis.solution.edge_order) std::printf("%d\n", e);
    return;
  }
  // Narrated schedule: one line per deletion, flagging jumps.
  const Graph flat = g.ToGraph();
  const std::vector<int>& order = analysis.solution.edge_order;
  for (size_t i = 0; i < order.size(); ++i) {
    const BipartiteGraph::Edge& e = g.edge(order[i]);
    const bool jump =
        i > 0 && !flat.edge(order[i]).Touches(flat.edge(order[i - 1]));
    std::printf("step %3zu: delete edge %d (L%d, R%d)%s\n", i + 1,
                order[i], e.left, e.right,
                jump ? "  <- jump (both pebbles moved)" : "");
  }
}

// `analyze` and `solve`: one graph on stdin through JoinAnalyzer. They
// differ in the default solver, solve's --explain, and the human output.
int CmdAnalyzeOrSolve(int argc, char** argv, bool solve) {
  AnalysisFlags flags;
  if (solve) flags.request.defaults.solver = SolverChoice::kLocalSearch;
  FlagTable table;
  AddRequestFlags(&flags.request, &flags.predicate, &table);
  AddTelemetryFlags(&flags.request, /*profiler=*/true, &table);
  table.insert(table.end(), {Threads(&flags.request.defaults.threads),
                             Switch("--json", &flags.json),
                             Switch("--stats", &flags.stats),
                             Text("--trace-out", &flags.trace_out,
                                  "--trace-out needs a file path")});
  if (solve) table.push_back(Switch("--explain", &flags.explain));
  if (!ParseFlags(argc, argv, table)) return kExitBadFlags;
  const int finish_rc = FinishRequestFlags(&flags.request);
  if (finish_rc != 0) return finish_rc;
  const std::optional<BipartiteGraph> g = GraphFromStdin();
  if (!g.has_value()) return kExitRuntime;
  JoinAnalysis analysis;
  if (!RunAnalysis(flags, *g, &analysis)) return kExitRuntime;
  if (flags.json) {
    // Machine mode: the whole analysis (order included) as one document.
    std::fputs((AnalysisJson(analysis) + "\n").c_str(), stdout);
  } else if (solve) {
    PrintSolve(flags, *g, analysis);
  } else {
    std::fputs(FormatAnalysis(analysis, flags.stats).c_str(), stdout);
    if (flags.request.defaults.perf) {
      std::fputs(FormatPerfStats(analysis).c_str(), stdout);
    }
  }
  return 0;
}

int CmdSchedule(int argc, char** argv) {
  int k = 4;
  if (!ParseFlags(argc, argv, {Int("--k", &k, "--k needs an integer")})) {
    return kExitBadFlags;
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
  if (!ParseFlags(argc, argv, {Int("--fragments", &fragments,
                                   "--fragments needs an integer")})) {
    return kExitBadFlags;
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
  if (!ParseFlags(argc, argv, {Switch("--solve", &solve)})) {
    return kExitBadFlags;
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
  const FlagTable table = {
      Int("--instances", &instances,
          "--instances needs an integer in [1, 100000]", 1, 100000),
      Positive("--rung-deadline-ms", &rung_deadline_ms),
      Int("--seed", &seed, "--seed needs an integer"),
      Text("--out", &out_path, "--out needs a file path ('-' = stdout)")};
  if (!ParseFlags(argc, argv, table)) return kExitBadFlags;

  StreamOut out(out_path);
  if (!out.Open()) return kExitRuntime;

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
    out.stream() << json.TakeString() << "\n";
  }
  return out.Finish() ? 0 : kExitRuntime;
}

// Non-blank lines in the file open at `fd`, framed and tested as the
// runner does; pread(2) leaves the offset at the start for the runner.
int64_t CountRequestLines(int fd) {
  std::vector<char> chunk(BatchRunner::kReadChunkBytes);
  LineFramer framer;
  std::string line;
  int64_t count = 0;
  for (ssize_t n = 1, at = 0; n > 0; at += n) {
    n = ::pread(fd, chunk.data(), chunk.size(), at);
    // At the end (or a read error, the runner's to report) a newline
    // makes an unterminated last line count.
    framer.Feed(n > 0 ? std::string_view(chunk.data(), static_cast<size_t>(n))
                      : std::string_view("\n"));
    while (framer.Next(&line) == LineFramer::Frame::kLine) {
      if (!JsonlLineIsBlank(line)) ++count;
    }
  }
  return count;
}

int CmdBatch(int argc, char** argv) {
  std::string in_path;   // required; "-" = stdin
  std::string out_path;  // empty or "-" = stdout
  BatchRunner::Options options;
  RequestFlags flags;
  FlagTable table;
  AddRequestFlags(&flags, &options.default_predicate, &table);
  AddTelemetryFlags(&flags, /*profiler=*/true, &table);
  table.insert(
      table.end(),
      {Text("--jsonl", &in_path, "--jsonl needs a file path ('-' = stdin)"),
       Text("--out", &out_path, "--out needs a file path ('-' = stdout)"),
       Threads(&options.threads),
       NonNegative("--batch-deadline-ms", &options.batch_deadline_ms),
       {"--admission", true,
        [&options](const char* value) {
          const std::string policy = value;
          options.admission = policy == "reject" ? AdmissionPolicy::kReject
                                                 : AdmissionPolicy::kQueue;
          return policy == "queue" || policy == "reject";
        },
        "--admission needs 'queue' or 'reject'"},
       NonNegative("--progress-every-ms", &options.progress_every_ms),
       NonNegative("--slow-request-ms", &flags.defaults.slow_request_ms)});
  if (!ParseFlags(argc, argv, table)) return kExitBadFlags;
  if (in_path.empty()) {
    return Fail("batch needs --jsonl FILE ('-' = stdin)");
  }
  const int finish_rc = FinishRequestFlags(&flags);
  if (finish_rc != 0) return finish_rc;

  // "-" is fd 0; a file gets its own descriptor, closed on return.
  const int in_fd = in_path == "-"
                        ? STDIN_FILENO
                        : ::open(in_path.c_str(), O_RDONLY | O_CLOEXEC);
  if (in_fd < 0) {
    FileOk({FileStatus::kOpen, errno}, in_path);
    return kExitMissingInput;
  }
  struct CloseInput {
    int fd;
    ~CloseInput() {
      if (fd != STDIN_FILENO) ::close(fd);
    }
  } close_input{in_fd};

  if (options.progress_every_ms >= 0) {
    options.progress = &std::cerr;
    // Pre-count non-blank lines so progress can say "done/total" and
    // estimate time remaining.
    if (in_path != "-") options.expected_lines = CountRequestLines(in_fd);
  }

  StreamOut out(out_path);
  if (!out.Open()) return kExitRuntime;

  SolveEngine::Options engine_options{flags.defaults};
  StreamOut journal_sink(flags.journal_out, std::cerr);
  Journal journal(flags.journal);
  if (!AttachJournal(&journal_sink, &journal, &engine_options.defaults)) {
    return kExitRuntime;
  }
  SolveEngine engine(engine_options);
  BatchRunner runner(&engine, options);
  SamplingProfiler profiler;
  StartProfiler(flags.profile_out, &profiler);
  const BatchRunner::Summary summary = runner.Run(in_fd, out.stream());
  if (!FinishProfiler(flags.profile_out, &profiler)) return kExitRuntime;
  if (!FileOk({FileStatus::kRead, summary.read_errno}, in_path) ||
      !FileOk({FileStatus::kWrite, summary.write_errno},
              out_path.empty() ? "-" : out_path)) {
    return kExitRuntime;
  }
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
  if (!FinishTelemetry(flags.metrics_out, *engine.metrics(), &journal_sink)) {
    return kExitRuntime;
  }
  return out.Finish() ? 0 : kExitRuntime;
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
  RequestFlags flags;
  FlagTable table;
  AddRequestFlags(&flags, &sopts.predicate, &table);
  AddTelemetryFlags(&flags, /*profiler=*/false, &table);
  table.insert(
      table.end(),
      {Text("--host", &sopts.host, "--host needs an IPv4 address"),
       Int("--port", &sopts.port,
           "--port needs an integer in [0, 65535] (0 = ephemeral)", 0, 65535),
       Threads(&sopts.threads),
       Positive("--max-conns", &sopts.max_connections),
       Positive("--max-inflight", &sopts.max_inflight),
       Positive("--per-conn-inflight", &sopts.per_conn_inflight),
       Int("--idle-timeout-ms", &sopts.idle_timeout_ms,
           "--idle-timeout-ms needs an integer (<= 0 disables)"),
       Positive("--max-line-bytes", &sopts.max_line_bytes),
       Int("--request-deadline-ms", &sopts.request_deadline_cap_ms,
           "--request-deadline-ms needs an integer (< 0 disables the cap)"),
       NonNegative("--drain-ms", &sopts.drain_ms),
       Positive("--slo-p99-ms", &sopts.slo_p99_ms),
       {"--slo-error-rate", true,
        [&sopts](const char* value) {
          double rate = 0.0;
          if (!ParseDouble(value, &rate) || rate <= 0.0 || rate > 1.0) {
            return false;
          }
          sopts.slo_error_rate = rate;
          return true;
        },
        "--slo-error-rate needs a number in (0, 1]"},
       Int("--trace-sample", &sopts.trace_sample,
           "--trace-sample needs a non-negative integer (0 = off)", 0),
       Text("--trace-dir", &sopts.trace_dir,
            "--trace-dir needs a directory path"),
       NonNegative("--slow-request-ms", &flags.defaults.slow_request_ms)});
  if (!ParseFlags(argc, argv, table)) return kExitBadFlags;
  const int finish_rc = FinishRequestFlags(&flags);
  if (finish_rc != 0) return finish_rc;

  SolveEngine::Options engine_options{flags.defaults};
  StreamOut journal_sink(flags.journal_out, std::cerr);
  Journal journal(flags.journal);
  if (!AttachJournal(&journal_sink, &journal, &engine_options.defaults)) {
    return kExitRuntime;
  }
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
  if (!FinishTelemetry(flags.metrics_out, *engine.metrics(), &journal_sink)) {
    return kExitRuntime;
  }
  return summary.aborted ? kExitRuntime : 0;
}

// `loadgen` replays a JSONL corpus against a running `serve` through the
// loopback client (serve/loopback_client.h). Exit 0 iff every client
// connected, sent its share and got every response inside --timeout-ms,
// and under --ids every response echoed the id it was sent with. --out
// writes the responses and --latency-out one
// {"id":...,"latency_ms":N,"error":bool} record per request, both in
// corpus order and only on success; a p50/p95 summary goes to stderr.
int CmdLoadgen(int argc, char** argv) {
  LoadOptions load;
  load.clients = 4;
  std::string jsonl_path;
  std::string out_path;
  std::string latency_out_path;
  if (!ParseFlags(
          argc, argv,
          {Text("--host", &load.host, "--host needs an IPv4 address"),
           Int("--port", &load.port, "--port needs an integer in [1, 65535]",
               1, 65535),
           Text("--jsonl", &jsonl_path, "--jsonl needs a file path"),
           Text("--out", &out_path, "--out needs a file path"),
           Int("--clients", &load.clients,
               "--clients needs an integer in [1, 1024]", 1, 1024),
           Int("--window", &load.window,
               "--window needs an integer in [1, 1024]", 1, 1024),
           Int("--repeat", &load.repeat,
               "--repeat needs an integer in [1, 100000]", 1, 100000),
           Int("--timeout-ms", &load.timeout_ms,
               "--timeout-ms needs an integer in [1, 1099511627776]", 1,
               int64_t{1} << 40),
           Switch("--ids", &load.ids),
           Text("--latency-out", &latency_out_path,
                "--latency-out needs a file path")})) {
    return kExitBadFlags;
  }
  if (load.port == 0 || jsonl_path.empty()) {
    return Fail("loadgen needs --port P and --jsonl FILE");
  }
  std::string text;
  const FileStatus read = ReadFileToString(jsonl_path, &text);
  if (!FileOk(read, jsonl_path)) return InputExit(read);
  // Framed as batch frames it; the newline makes an unterminated last
  // line count.
  LineFramer framer;
  framer.Feed(text);
  framer.Feed("\n");
  std::vector<std::string> corpus;
  for (std::string line; framer.Next(&line) == LineFramer::Frame::kLine;) {
    if (!JsonlLineIsBlank(line)) corpus.push_back(std::move(line));
  }
  if (corpus.empty()) {
    Error("no non-blank lines in '" + jsonl_path + "'");
    return kExitRuntime;
  }

  const LoadResult result = RunLoad(corpus, load);
  for (const std::string& error : result.client_errors) Error(error);
  if (result.id_mismatches > 0) {
    std::fprintf(stderr,
                 "error: %lld responses did not echo the id they were "
                 "sent with\n",
                 static_cast<long long>(result.id_mismatches));
  }
  if (result.ok()) {
    std::string responses;
    std::string latencies;
    for (const LoadReply& reply : result.replies) {
      responses += reply.response + '\n';
      latencies += load.ids ? "{\"id\":\"" + reply.id + "\"," : "{";
      latencies += "\"latency_ms\":" +
                   std::to_string(reply.latency_us / 1000) +
                   (reply.error ? ",\"error\":true}\n" : ",\"error\":false}\n");
    }
    if (!out_path.empty() &&
        !FileOk(WriteStringToFile(out_path, responses), out_path)) {
      return kExitRuntime;
    }
    if (!latency_out_path.empty() &&
        !FileOk(WriteStringToFile(latency_out_path, latencies),
                latency_out_path)) {
      return kExitRuntime;
    }
  }
  const auto ms = [](int64_t us) { return us < 0 ? -1LL : us / 1000; };
  std::fprintf(stderr,
               "loadgen: %d clients, %lld lines, %lld responses, %lld "
               "errors, %lld id mismatches, p50=%lldms p95=%lldms, "
               "wall=%lldms\n",
               load.clients, static_cast<long long>(result.lines),
               static_cast<long long>(result.responses),
               static_cast<long long>(result.errors),
               static_cast<long long>(result.id_mismatches),
               ms(result.p50_us), ms(result.p95_us), ms(result.wall_us));
  return result.ok() ? 0 : kExitRuntime;
}

// Flushes stdout, which std::cout writes through, and reports a write to
// it that failed, now or earlier. False after printing the error. A failed
// flush sets its own errno. When an earlier write failed and the flush had
// nothing left to write, the reason is the errno that write left, which
// holds for commands that write stdout last; batch, whose input loop runs
// on after a write, checks its own writes.
bool FinishStdout() {
  std::cout.flush();
  if (std::fflush(stdout) == 0 && !std::ferror(stdout)) return true;
  return FileOk({FileStatus::kWrite, errno != 0 ? errno : EIO}, "-");
}

int RunCommand(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "--version" || command == "version") {
    std::printf("%s\n", FormatBuildInfo().c_str());
    return 0;
  }
  if (command == "gen") return CmdGen(argc, argv);
  if (command == "analyze") return CmdAnalyzeOrSolve(argc, argv, false);
  if (command == "solve") return CmdAnalyzeOrSolve(argc, argv, true);
  if (command == "realize") return CmdRealize(argc, argv);
  if (command == "bounds") return CmdBounds(argc, argv);
  if (command == "schedule") return CmdSchedule(argc, argv);
  if (command == "partition") return CmdPartition(argc, argv);
  if (command == "dot") return CmdDot(argc, argv);
  if (command == "calibrate") return CmdCalibrate(argc, argv);
  if (command == "batch") return CmdBatch(argc, argv);
  if (command == "serve") return CmdServe(argc, argv);
  if (command == "loadgen") return CmdLoadgen(argc, argv);
  return Usage();
}

int Main(int argc, char** argv) {
  // A reader that closes the pipe costs a write its EPIPE errno, reported
  // like any failed write; it never kills the process. Serve's dead
  // client sockets rely on this too.
  std::signal(SIGPIPE, SIG_IGN);
  // A command that failed has said why; a stdout error is reported only
  // when it is the one failure.
  const int code = RunCommand(argc, argv);
  return code != 0 || FinishStdout() ? code : kExitRuntime;
}

}  // namespace
}  // namespace pebblejoin

int main(int argc, char** argv) { return pebblejoin::Main(argc, argv); }
