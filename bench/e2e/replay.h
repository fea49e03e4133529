// The traced replay. It sends workload requests through each layer's
// public function in the order SolveEngine and JsonlRequestRunner call
// them, recording one span per layer in memory:
//
//   request
//     obs.json_parse      JsonValue::Parse
//     io.graph_parse      ParseBipartiteGraph
//     graph.build         BipartiteGraph::ToGraph + Graph::BuildCsr
//     core.classify       ClassifyJoinGraph + ExtractGraphFeatures
//     graph.partition     FindComponents
//     solver.solve        ComponentPebbler::SolveDecomposed
//     pebble.verify       ComponentPebbler::TryVerifyAndCost
//     obs.metrics_publish SolveStats::PublishTo
//     core.report         AnalysisJson
//     engine.teardown     freeing the request's parse, graph and analysis
//
// Each replayed request alternates with the untraced call it stands for
// (JsonlRequestRunner::Run, or SolveEngine::Solve for library graphs), so
// the replay doubles as a fidelity check — same bytes after normalization
// — and as the measure of how well the layers add up to the real call.

#ifndef PEBBLEJOIN_BENCH_E2E_REPLAY_H_
#define PEBBLEJOIN_BENCH_E2E_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "corpus.h"
#include "engine/jsonl_request.h"
#include "engine/solve_engine.h"

namespace pebblejoin::e2e {

// The layer names, in pipeline order.
extern const char* const kLayers[10];

// One layer boundary crossed by one request.
struct Span {
  const char* name = "";
  int parent = -1;       // index of the enclosing span; -1 for a request
  int64_t request = 0;   // shared by all spans of one request
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t count = 0;     // work done: bytes, edges or components
};

// Spans kept in memory until the benchmark ends.
class Tracer {
 public:
  // Opens a request's root span; its index is the request id.
  int BeginRequest();
  // Opens a layer span under `parent`, in the parent's request.
  int Begin(const char* name, int parent);
  void End(int span, int64_t count = 0);
  const std::vector<Span>& spans() const { return spans_; }
  // Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev).
  bool WriteChromeTrace(const std::string& path, std::string* error) const;

 private:
  std::vector<Span> spans_;
};

struct LayerTimes {
  std::vector<double> us;  // self time per request
  double total_us = 0;
  double count = 0;        // summed Span::count
};

struct ReplayReport {
  std::map<std::string, LayerTimes> layers;
  int64_t requests = 0;
  double request_us = 0;            // summed traced request wall
  int64_t edges = 0;                // summed m of replayed requests
  // The untraced call, every repetition of every line whose answer does
  // not depend on the clock.
  std::vector<double> run_line_us;
  // |sum run_line - sum layers| / sum run_line over those lines, from
  // per-request minima.
  double residual_share = 0;
  // (sum traced request - sum run_line) / sum run_line, likewise.
  double trace_overhead_share = 0;
  int64_t mismatches = 0;  // replayed answers that differ from the real call
  std::string first_mismatch;
};

// Replays every line `reps` times. Budgeted lines, whose answers depend on
// the clock, are checked for validity instead of bytes.
ReplayReport ReplayJsonl(const std::vector<const RequestLine*>& lines, int reps,
                         const JsonlRequestRunner& runner, Tracer* tracer);

// Replays library graphs on `engine`'s defaults and pool.
ReplayReport ReplayGraphs(const std::vector<BipartiteGraph>& graphs, int reps,
                          SolveEngine* engine, Tracer* tracer);

}  // namespace pebblejoin::e2e

#endif  // PEBBLEJOIN_BENCH_E2E_REPLAY_H_
