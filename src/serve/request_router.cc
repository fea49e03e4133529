#include "serve/request_router.h"

#include <algorithm>
#include <utility>

#include "obs/build_info.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace pebblejoin {
namespace {

JsonlRequestRunner::Defaults DefaultsFrom(const ServeOptions& options) {
  JsonlRequestRunner::Defaults defaults;
  defaults.predicate = options.predicate;
  defaults.deadline_cap_ms = options.request_deadline_cap_ms;
  defaults.max_line_bytes = options.max_line_bytes;
  return defaults;
}

// A correlation id as a filename fragment: anything outside
// [A-Za-z0-9._-] becomes '_', so a hostile id cannot escape trace_dir.
std::string SanitizeForFilename(const std::string& id) {
  std::string out;
  out.reserve(id.size());
  for (const char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

RequestRouter::RequestRouter(SolveEngine* engine, const ServeOptions& options,
                             int64_t start_ms)
    : runner_(engine, DefaultsFrom(options)),
      limiter_(options.max_inflight, options.per_conn_inflight),
      drain_ms_(options.drain_ms),
      max_inflight_(options.max_inflight),
      start_ms_(start_ms),
      slo_p99_ms_(options.slo_p99_ms),
      slo_error_rate_(options.slo_error_rate),
      trace_sample_(options.trace_sample),
      trace_dir_(options.trace_dir),
      metrics_(engine->metrics()),
      requests_(metrics_->FindOrCreateCounter("serve.requests")),
      solved_(metrics_->FindOrCreateCounter("serve.solved")),
      errors_(metrics_->FindOrCreateCounter("serve.errors")),
      rejected_(metrics_->FindOrCreateCounter("serve.rejected")),
      http_requests_(metrics_->FindOrCreateCounter("serve.http_requests")),
      traces_sampled_(metrics_->FindOrCreateCounter("serve.traces_sampled")),
      inflight_gauge_(metrics_->FindOrCreateGauge("serve.inflight")),
      request_wall_us_(
          metrics_->FindOrCreateHistogram("serve.request_wall_us")) {
  if (trace_sample_ > 0) {
    trace_writer_ = std::thread([this] { TraceWriterLoop(); });
  }
}

RequestRouter::~RequestRouter() {
  if (trace_writer_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(trace_mutex_);
      trace_stop_ = true;
    }
    trace_cv_.notify_all();
    trace_writer_.join();
  }
}

RequestRouter::LineClass RequestRouter::Classify(const std::string& line) {
  if (JsonlLineIsBlank(line)) return LineClass::kBlank;
  if (line.rfind("GET ", 0) == 0) return LineClass::kHttp;
  return LineClass::kSolve;
}

bool RequestRouter::AdmitSolve(int64_t conn_id, std::string* denied_reason) {
  if (draining()) {
    if (denied_reason != nullptr) *denied_reason = "server draining";
    return false;
  }
  const char* denied_by = nullptr;
  if (!limiter_.TryAcquire(conn_id, &denied_by)) {
    if (denied_reason != nullptr) *denied_reason = denied_by;
    return false;
  }
  inflight_gauge_.Set(limiter_.in_flight());
  return true;
}

void RequestRouter::ReleaseSolve(int64_t conn_id) {
  limiter_.Release(conn_id);
  inflight_gauge_.Set(limiter_.in_flight());
}

std::string RequestRouter::RunSolve(const std::string& line,
                                    int64_t line_number, int64_t now_ms,
                                    const std::string& fallback_id,
                                    JsonlRequestRunner::Outcome* outcome) {
  // During drain the remaining drain budget is one aggregate pool (kQueue:
  // clamp, never shed — admission already stopped new lines), so a solve
  // that started just before the gate flipped still lands inside the
  // drain window.
  JsonlRequestRunner::LineContext context;
  if (draining()) context.admission = &*drain_pool_;
  context.now_ms = now_ms;
  context.reject_reason = "server draining";
  context.fallback_id = fallback_id;

  // 1-in-N tail sampling: a sampled request runs under a private
  // TraceSession (the session is not thread-safe, so sharing one across
  // concurrent requests is not an option) and its Chrome trace is written
  // under the request's effective correlation id.
  std::optional<TraceSession> trace;
  if (trace_sample_ > 0 &&
      solve_seq_.fetch_add(1, std::memory_order_relaxed) % trace_sample_ ==
          0) {
    trace.emplace();
    context.trace = &*trace;
  }

  std::string response = runner_.Run(line, line_number, context, outcome);

  if (trace.has_value() &&
      outcome->disposition == JsonlRequestRunner::Disposition::kSolved) {
    // Hand the finished session to the writer thread unserialized:
    // serialization plus the file write cost several solves' worth of
    // CPU, and doing them here would turn every sampled request into
    // the tail outlier the sampler is looking for.
    PendingTrace pending;
    pending.id = outcome->request_id;
    pending.path = trace_dir_ + "/trace-" +
                   SanitizeForFilename(outcome->request_id) + ".json";
    pending.session = std::move(*trace);
    EnqueueTrace(std::move(pending));
  }
  return response;
}

void RequestRouter::EnqueueTrace(PendingTrace pending) {
  {
    std::lock_guard<std::mutex> lock(trace_mutex_);
    if (trace_queue_.size() < kMaxPendingTraces) {
      trace_queue_.push_back(std::move(pending));
      trace_cv_.notify_all();
      return;
    }
  }
  // Queue full: shed the trace, never the solve. Journal the loss so a
  // silent gap in trace_dir has an explanation.
  if (Journal* journal = runner_.engine()->defaults().journal) {
    journal->Emit(LogLevel::kWarn, "trace.error",
                  {LogField::Str("id", pending.id),
                   LogField::Str("error", "trace writer backlog; dropped")});
  }
}

void RequestRouter::TraceWriterLoop() {
  std::unique_lock<std::mutex> lock(trace_mutex_);
  for (;;) {
    trace_cv_.wait(lock,
                   [this] { return trace_stop_ || !trace_queue_.empty(); });
    if (trace_queue_.empty()) return;  // stop requested, queue drained
    PendingTrace pending = std::move(trace_queue_.front());
    trace_queue_.pop_front();
    trace_busy_ = true;
    lock.unlock();
    WriteTraceFile(pending);
    lock.lock();
    trace_busy_ = false;
    trace_cv_.notify_all();  // FlushTraces waiters
  }
}

void RequestRouter::WriteTraceFile(const PendingTrace& pending) {
  std::string error;
  Journal* journal = runner_.engine()->defaults().journal;
  if (pending.session.WriteFile(pending.path, &error)) {
    traces_sampled_.Increment();
    if (journal != nullptr) {
      journal->Emit(LogLevel::kInfo, "trace.sampled",
                    {LogField::Str("id", pending.id),
                     LogField::Str("path", pending.path)});
    }
  } else if (journal != nullptr) {
    journal->Emit(LogLevel::kWarn, "trace.error",
                  {LogField::Str("id", pending.id),
                   LogField::Str("error", error)});
  }
}

void RequestRouter::FlushTraces() {
  std::unique_lock<std::mutex> lock(trace_mutex_);
  trace_cv_.wait(lock,
                 [this] { return trace_queue_.empty() && !trace_busy_; });
}

std::string RequestRouter::RejectRecord(int64_t line_number,
                                        const std::string& reason,
                                        int64_t now_ms) {
  Count(JsonlRequestRunner::Disposition::kRejected, now_ms);
  return JsonlErrorRecord(line_number, "rejected: " + reason);
}

void RequestRouter::Count(JsonlRequestRunner::Disposition disposition,
                          int64_t now_ms) {
  requests_.Increment();
  win_requests_.Add(now_ms);
  switch (disposition) {
    case JsonlRequestRunner::Disposition::kSolved:
      solved_.Increment();
      win_solved_.Add(now_ms);
      break;
    case JsonlRequestRunner::Disposition::kError:
      errors_.Increment();
      win_errors_.Add(now_ms);
      break;
    case JsonlRequestRunner::Disposition::kRejected:
      rejected_.Increment();
      win_rejected_.Add(now_ms);
      break;
  }
}

void RequestRouter::RecordCompletion(
    const JsonlRequestRunner::Outcome& outcome, int64_t wall_us,
    int64_t now_ms) {
  Count(outcome.disposition, now_ms);
  request_wall_us_.Record(wall_us);
  win_wall_us_.Record(now_ms, wall_us);
  metrics_->RecordExemplar("serve.request_wall_us", wall_us,
                           outcome.request_id);
  if (outcome.disposition != JsonlRequestRunner::Disposition::kSolved) return;
  RecentRequest entry;
  entry.id = outcome.request_id;
  entry.wall_us = wall_us;
  entry.provenance = outcome.provenance;
  entry.degraded = outcome.degraded;
  entry.ts_ms = now_ms;
  std::lock_guard<std::mutex> lock(recent_mutex_);
  if (recent_.size() < kRecentCapacity) {
    recent_.push_back(std::move(entry));
  } else {
    recent_[recent_next_] = std::move(entry);
  }
  recent_next_ = (recent_next_ + 1) % kRecentCapacity;
}

bool RequestRouter::Ready(std::string* reason) const {
  if (draining()) {
    if (reason != nullptr) *reason = "draining";
    return false;
  }
  if (limiter_.in_flight() >= max_inflight_) {
    if (reason != nullptr) *reason = "saturated";
    return false;
  }
  return true;
}

void RequestRouter::RefreshWindowGauges(int64_t now_ms) {
  const int64_t span_ms = win_requests_.window_span_ms();
  metrics_->FindOrCreateGauge("serve.window_span_ms").Set(span_ms);
  metrics_->FindOrCreateGauge("serve.window_requests")
      .Set(win_requests_.WindowSum(now_ms));
  metrics_->FindOrCreateGauge("serve.window_solved")
      .Set(win_solved_.WindowSum(now_ms));
  metrics_->FindOrCreateGauge("serve.window_errors")
      .Set(win_errors_.WindowSum(now_ms));
  metrics_->FindOrCreateGauge("serve.window_rejected")
      .Set(win_rejected_.WindowSum(now_ms));
  const WindowedHistogram::Snapshot latency =
      win_wall_us_.Aggregate(now_ms, span_ms);
  metrics_->FindOrCreateGauge("serve.window_p50_us").Set(latency.p50);
  metrics_->FindOrCreateGauge("serve.window_p95_us").Set(latency.p95);
  metrics_->FindOrCreateGauge("serve.window_p99_us").Set(latency.p99);
}

std::string RequestRouter::StatusJson(int64_t now_ms) {
  const int64_t span_ms = win_requests_.window_span_ms();
  const int64_t requests = win_requests_.WindowSum(now_ms);
  const int64_t solved = win_solved_.WindowSum(now_ms);
  const int64_t errors = win_errors_.WindowSum(now_ms);
  const int64_t rejected = win_rejected_.WindowSum(now_ms);
  const WindowedHistogram::Snapshot latency =
      win_wall_us_.Aggregate(now_ms, span_ms);
  // Rates divide by the elapsed portion of the window: a server younger
  // than the ring would otherwise understate its qps.
  const int64_t elapsed_ms = std::max<int64_t>(
      1, std::min<int64_t>(span_ms, now_ms - start_ms_));
  const double qps =
      static_cast<double>(requests) * 1000.0 / static_cast<double>(elapsed_ms);
  const double error_rate =
      requests > 0
          ? static_cast<double>(errors) / static_cast<double>(requests)
          : 0.0;
  const double shed_rate =
      requests > 0
          ? static_cast<double>(rejected) / static_cast<double>(requests)
          : 0.0;
  const double p99_ms =
      latency.p99 >= 0 ? static_cast<double>(latency.p99) / 1000.0 : -1.0;

  JsonWriter json;
  json.BeginObject();
  json.Key("build");
  WriteBuildInfoJson(&json);
  json.Field("uptime_ms", now_ms - start_ms_);
  json.Field("phase", draining() ? "draining" : "serving");
  json.Field("inflight", in_flight());
  json.Field("max_inflight", max_inflight_);

  json.Key("window");
  json.BeginObject();
  json.Field("span_ms", span_ms);
  json.Field("requests", requests);
  json.Field("solved", solved);
  json.Field("errors", errors);
  json.Field("rejected", rejected);
  json.Field("qps", qps);
  json.Field("error_rate", error_rate);
  json.Field("shed_rate", shed_rate);
  json.Key("latency_us");
  json.BeginObject();
  json.Field("count", latency.count);
  json.Field("p50", latency.p50);
  json.Field("p95", latency.p95);
  json.Field("p99", latency.p99);
  json.EndObject();
  json.EndObject();

  // Burn rate: observed / target. > 1.0 means the SLO is being violated
  // right now; -1 wherever the target is unset or the window is empty.
  json.Key("slo");
  json.BeginObject();
  json.Field("p99_target_ms", slo_p99_ms_);
  json.Field("p99_ms", p99_ms);
  json.Field("p99_burn", slo_p99_ms_ > 0 && p99_ms >= 0
                             ? p99_ms / static_cast<double>(slo_p99_ms_)
                             : -1.0);
  json.Field("error_rate_target", slo_error_rate_);
  json.Field("error_rate", error_rate);
  json.Field("error_burn",
             slo_error_rate_ > 0 ? error_rate / slo_error_rate_ : -1.0);
  json.EndObject();

  // The slowest of the last kRecentCapacity solved requests, worst first —
  // each with the correlation id that finds it in journals and traces.
  std::vector<RecentRequest> snapshot;
  {
    std::lock_guard<std::mutex> lock(recent_mutex_);
    snapshot = recent_;
  }
  std::sort(snapshot.begin(), snapshot.end(),
            [](const RecentRequest& a, const RecentRequest& b) {
              return a.wall_us > b.wall_us;
            });
  constexpr size_t kTopSlow = 10;
  if (snapshot.size() > kTopSlow) snapshot.resize(kTopSlow);
  json.Key("slow_requests");
  json.BeginArray();
  for (const RecentRequest& entry : snapshot) {
    json.BeginObject();
    json.Field("id", entry.id);
    json.Field("wall_us", entry.wall_us);
    json.Field("solvers", entry.provenance);
    json.Field("degraded", entry.degraded);
    json.Field("age_ms", now_ms - entry.ts_ms);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.TakeString();
}

std::string RequestRouter::HttpResponse(const std::string& request_line,
                                        int64_t now_ms) {
  http_requests_.Increment();
  // "GET <target> [HTTP/x.y]" — tolerate a bare "GET /metrics" and the
  // CRLF a real HTTP client sends.
  std::string target;
  const size_t start = 4;  // past "GET "
  size_t end = request_line.find(' ', start);
  if (end == std::string::npos) end = request_line.size();
  target = request_line.substr(start, end - start);
  while (!target.empty() && target.back() == '\r') target.pop_back();

  std::string body;
  std::string status;
  std::string content_type = "text/plain; charset=utf-8";
  const size_t query = target.find('?');
  if (query != std::string::npos) target.resize(query);
  if (target == "/metrics") {
    // Push the current window aggregates into the serve.window_* gauges so
    // the scrape carries them next to the cumulative series.
    RefreshWindowGauges(now_ms);
    status = "200 OK";
    content_type =
        "application/openmetrics-text; version=1.0.0; charset=utf-8";
    body = metrics_->OpenMetricsText();
  } else if (target == "/healthz") {
    // Liveness: reachable and answering — even while draining.
    status = "200 OK";
    body = "ok\n";
  } else if (target == "/readyz") {
    std::string reason;
    if (Ready(&reason)) {
      status = "200 OK";
      body = "ready\n";
    } else {
      status = "503 Service Unavailable";
      body = reason + "\n";
    }
  } else if (target == "/statusz") {
    status = "200 OK";
    content_type = "application/json; charset=utf-8";
    body = StatusJson(now_ms) + "\n";
  } else {
    status = "404 Not Found";
    body = "not found\n";
  }
  std::string response;
  response.reserve(body.size() + 160);
  response += "HTTP/1.1 " + status + "\r\n";
  response += "Content-Type: " + content_type + "\r\n";
  response += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  response += "Connection: close\r\n\r\n";
  response += body;
  return response;
}

void RequestRouter::BeginDrain(int64_t now_ms) {
  std::lock_guard<std::mutex> lock(drain_mutex_);
  if (draining_.load(std::memory_order_relaxed)) return;
  drain_pool_.emplace(drain_ms_, AdmissionPolicy::kQueue, now_ms);
  draining_.store(true, std::memory_order_release);
}

}  // namespace pebblejoin
