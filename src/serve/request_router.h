// RequestRouter: the serve layer's shared request brain.
//
// One router serves every connection. It owns the three things a request
// touches that must be server-wide, not per-connection:
//
//   - the JsonlRequestRunner (engine/jsonl_request.h) — the identical
//     line-in/response-out machinery `pebblejoin batch` runs, configured
//     with the serve defaults and the per-request deadline cap, which is
//     why serve responses are byte-identical to batch output;
//   - the InflightLimiter (engine/admission.h) — the bounded server-wide
//     request queue plus per-connection ceiling; a denied acquire becomes
//     a structured `{"line":N,"error":"rejected: ..."}` record, never an
//     unbounded queue;
//   - the drain gate — after BeginDrain, new lines are shed with
//     "rejected: server draining" and lines already admitted are clamped
//     to the remaining drain budget through a DeadlineAdmission pool over
//     `drain_ms` (the same clamp arithmetic `--batch-deadline-ms` uses).
//
// It also classifies raw lines (blank / HTTP / solve) and renders the
// minimal HTTP responses on the same listener port as the JSONL protocol:
//
//   GET /metrics  OpenMetrics scrape of the engine registry (cumulative
//                 series plus the serve.window_* gauges refreshed from the
//                 sliding rings at scrape time, exemplars included)
//   GET /healthz  liveness: 200 "ok" while the process serves
//   GET /readyz   readiness: 503 while draining or at the in-flight
//                 ceiling, else 200 "ready"
//   GET /statusz  one JSON object: build provenance, uptime, phase,
//                 sliding-window qps / error rate / latency quantiles,
//                 SLO burn rates, and the slowest recent requests with
//                 their correlation ids and solver provenance
//
// Tail capture: with trace_sample = N, one in every N solve requests runs
// under a private TraceSession whose Chrome trace is written to
// trace_dir/trace-<id>.json — the id being the request's correlation id.
// The file write is asynchronous: the pool worker hands the finished
// session to a dedicated writer thread (serializing and writing costs
// several solves' worth of CPU — ~150 us measured in E23 — so doing it
// inline would make every 1-in-N request a tail-latency outlier of
// exactly the kind the sampler exists to catch). The hand-off queue is
// bounded; at the cap a trace is dropped with a `trace.error` journal
// event rather than ever blocking a solve. FlushTraces() (called at
// drain) makes every enqueued trace durable before drain.end.
//
// Thread-safety: everything here is called concurrently from connection
// threads and pool workers. The runner is immutable, the limiter locks,
// the drain gate is an acquire/release atomic, metrics handles and window
// rings are atomic cells, and the recent-request ring takes a short
// mutex. Journal events for rejections are the caller's job (connections
// own the per-connection EventLogs); completion and trace-sample events
// go straight to the thread-safe Journal.

#ifndef PEBBLEJOIN_SERVE_REQUEST_ROUTER_H_
#define PEBBLEJOIN_SERVE_REQUEST_ROUTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/admission.h"
#include "engine/jsonl_request.h"
#include "engine/solve_engine.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "serve/serve_options.h"

namespace pebblejoin {

class RequestRouter {
 public:
  // What one raw input line is.
  enum class LineClass { kBlank, kHttp, kSolve };

  // One completed request as the /statusz slow-request table remembers it.
  struct RecentRequest {
    std::string id;
    int64_t wall_us = 0;
    std::string provenance;  // comma-joined solvers that produced it
    bool degraded = false;
    int64_t ts_ms = 0;  // completion time on the serve clock
  };

  // The engine is borrowed and must outlive the router; `options` is
  // copied (only the request-shaping and observability fields are read).
  // `start_ms` is the server's start time on the serve clock — the zero
  // point of the /statusz uptime.
  RequestRouter(SolveEngine* engine, const ServeOptions& options,
                int64_t start_ms = 0);

  // Flushes and joins the trace writer; traces still queued are written.
  ~RequestRouter();

  static LineClass Classify(const std::string& line);

  // Takes an in-flight slot for connection `conn_id`, or says why not
  // ("server draining" / "server overloaded" / "per-connection in-flight
  // cap"). A true return must be paired with exactly one ReleaseSolve.
  bool AdmitSolve(int64_t conn_id, std::string* denied_reason);
  void ReleaseSolve(int64_t conn_id);

  // Parses and solves one admitted line; returns the response line (no
  // trailing newline). During drain the request's deadline is additionally
  // clamped to the remaining drain budget. `fallback_id` is the generated
  // correlation id used when the line carries no client "id"
  // ("c<conn>-<line>"); when this request is trace-sampled, the Chrome
  // trace lands in trace_dir under the effective id. Safe from any thread.
  std::string RunSolve(const std::string& line, int64_t line_number,
                       int64_t now_ms, const std::string& fallback_id,
                       JsonlRequestRunner::Outcome* outcome);

  // The rejection record for a shed line (also counts it, cumulatively and
  // in the sliding window at `now_ms`). Matches the batch spelling:
  // {"line":N,"error":"rejected: <reason>"}.
  std::string RejectRecord(int64_t line_number, const std::string& reason,
                           int64_t now_ms);

  // Folds one finished solve into the request counters, the cumulative
  // histogram, the sliding windows, the exemplar, and the recent-request
  // ring. `wall_us` is the connection-observed wall clock (queue time
  // included).
  void RecordCompletion(const JsonlRequestRunner::Outcome& outcome,
                        int64_t wall_us, int64_t now_ms);

  // Full HTTP response bytes for an HTTP request line (/metrics, /healthz,
  // /readyz, /statusz; 404 otherwise). The connection closes after writing
  // it (Connection: close). `now_ms` anchors the window aggregation.
  std::string HttpResponse(const std::string& request_line, int64_t now_ms);

  // The /statusz document body alone (one JSON object, no HTTP framing).
  std::string StatusJson(int64_t now_ms);

  // Flips the drain gate: every later AdmitSolve is denied and every
  // already-admitted solve is clamped to the `drain_ms` pool starting at
  // `now_ms`. Idempotent (the first call wins).
  void BeginDrain(int64_t now_ms);
  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  // Readiness as /readyz reports it: false while draining or while the
  // server-wide in-flight ceiling is reached. `reason` (optional) gets
  // "draining" / "saturated".
  bool Ready(std::string* reason = nullptr) const;

  int in_flight() const { return limiter_.in_flight(); }
  MetricsRegistry* metrics() const { return metrics_; }

  // Blocks until every trace enqueued so far is on disk (the writer queue
  // is empty and the writer idle). Called by the server at drain so
  // sampled traces are durable before drain.end; safe from any thread.
  void FlushTraces();

 private:
  // One sampled trace waiting for the writer thread: the finished session
  // (moved off the solve path unserialized — serialization happens on the
  // writer) plus the identity the journal event needs.
  struct PendingTrace {
    std::string id;
    std::string path;
    TraceSession session;
  };

  // Counts one answered request, by disposition, in the cumulative
  // counters and their sliding-window twins: the one place either set is
  // bumped.
  void Count(JsonlRequestRunner::Disposition disposition, int64_t now_ms);

  // Pushes the current window aggregates into the serve.window_* gauges so
  // a /metrics scrape exposes them alongside the cumulative series.
  void RefreshWindowGauges(int64_t now_ms);

  // Hands a finished sampled session to the writer thread; at the queue
  // cap the trace is dropped (journaled as trace.error), never blocking
  // the calling pool worker.
  void EnqueueTrace(PendingTrace pending);

  // The writer thread: pops, serializes, writes, journals. Exits when
  // `trace_stop_` is set and the queue is empty.
  void TraceWriterLoop();

  // Serializes one pending trace to its file and emits the
  // trace.sampled / trace.error journal event. Writer thread only.
  void WriteTraceFile(const PendingTrace& pending);

  JsonlRequestRunner runner_;
  InflightLimiter limiter_;
  int64_t drain_ms_;
  int max_inflight_;
  int64_t start_ms_;

  // Observability knobs, copied from ServeOptions.
  int64_t slo_p99_ms_;
  double slo_error_rate_;
  int64_t trace_sample_;
  std::string trace_dir_;

  // Written once by BeginDrain (under mutex), then published through
  // `draining_` with release ordering; readers acquire-load the flag
  // before touching the pool.
  std::mutex drain_mutex_;
  std::optional<DeadlineAdmission> drain_pool_;
  std::atomic<bool> draining_{false};

  MetricsRegistry* metrics_;  // borrowed (the engine's registry)
  Counter requests_;
  Counter solved_;
  Counter errors_;
  Counter rejected_;
  Counter http_requests_;
  Counter traces_sampled_;
  Gauge inflight_gauge_;
  Histogram request_wall_us_;

  // Sliding-window twins of the cumulative counters above, plus the
  // window latency histogram /statusz quantiles come from.
  WindowedCounter win_requests_;
  WindowedCounter win_solved_;
  WindowedCounter win_errors_;
  WindowedCounter win_rejected_;
  WindowedHistogram win_wall_us_;

  // Monotone solve sequence driving the 1-in-N trace sampler.
  std::atomic<int64_t> solve_seq_{0};

  // The async trace writer: a bounded hand-off queue drained by one
  // dedicated thread (started only when sampling is configured).
  // `trace_busy_` marks a trace popped but not yet on disk, so
  // FlushTraces can wait for "queue empty AND writer idle".
  static constexpr size_t kMaxPendingTraces = 64;
  std::mutex trace_mutex_;
  std::condition_variable trace_cv_;
  std::deque<PendingTrace> trace_queue_;
  bool trace_busy_ = false;
  bool trace_stop_ = false;
  std::thread trace_writer_;

  // Ring of the most recent completions (solved lines only); /statusz
  // surfaces the slowest of them.
  static constexpr size_t kRecentCapacity = 128;
  mutable std::mutex recent_mutex_;
  std::vector<RecentRequest> recent_;
  size_t recent_next_ = 0;
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_SERVE_REQUEST_ROUTER_H_
