#include "serve/line_server.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "obs/build_info.h"
#include "obs/log.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace pebblejoin {

LineServer::LineServer(SolveEngine* engine, ServeOptions options)
    : engine_(engine),
      options_(std::move(options)),
      injector_(options_.injector != nullptr ? options_.injector
                                             : &default_injector_),
      conns_opened_(
          engine->metrics()->FindOrCreateCounter("serve.conns_opened")),
      conns_closed_(
          engine->metrics()->FindOrCreateCounter("serve.conns_closed")),
      conn_rejected_(
          engine->metrics()->FindOrCreateCounter("serve.conn_rejected")),
      accept_failures_(
          engine->metrics()->FindOrCreateCounter("serve.accept_failures")),
      conns_active_(
          engine->metrics()->FindOrCreateGauge("serve.conns_active")) {
  JP_CHECK(engine_ != nullptr);
  router_.emplace(engine_, options_, NowMs());
}

LineServer::~LineServer() {
  if (started_ && !waited_) {
    Abort();
    Wait();
  }
}

bool LineServer::Start(std::string* error) {
  JP_CHECK_MSG(!started_, "Start() called twice");
  if (!listener_.Open(options_.host, options_.port, error)) return false;
  if (options_.threads > 1) {
    pool_ = engine_->EnsurePool(std::max(2, options_.threads));
  }
  started_ = true;
  acceptor_ = std::thread(&LineServer::AcceptLoop, this);
  return true;
}

void LineServer::BeginDrain() {
  int expected = static_cast<int>(ServePhase::kServing);
  if (!phase_.compare_exchange_strong(expected,
                                      static_cast<int>(ServePhase::kDraining),
                                      std::memory_order_acq_rel)) {
    return;  // already draining or aborting
  }
  const int64_t now_ms = NowMs();
  drain_deadline_ms_.store(
      options_.drain_ms >= 0 ? now_ms + options_.drain_ms : int64_t{-1},
      std::memory_order_release);
  router_->BeginDrain(now_ms);
  accept_wake_.Wake();
}

void LineServer::Abort() {
  // Forward-only: serving or draining -> aborting.
  int phase = phase_.load(std::memory_order_acquire);
  while (phase != static_cast<int>(ServePhase::kAborting)) {
    if (phase_.compare_exchange_weak(phase,
                                     static_cast<int>(ServePhase::kAborting),
                                     std::memory_order_acq_rel)) {
      // The router gate must be closed even when drain never began.
      router_->BeginDrain(NowMs());
      break;
    }
  }
  accept_wake_.Wake();
}

LineServer::Summary LineServer::Wait() {
  JP_CHECK_MSG(started_, "Wait() before Start()");
  if (acceptor_.joinable()) acceptor_.join();
  waited_ = true;
  return summary_;
}

void LineServer::Reap() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (it->conn->done()) {
      it->thread.join();
      summary_.lines += it->conn->lines();
      summary_.responses += it->conn->responses();
      summary_.rejected_lines += it->conn->rejected();
      conns_closed_.Increment();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
  conns_active_.Set(static_cast<int64_t>(conns_.size()));
}

void LineServer::AcceptLoop() {
  EventLog log(engine_->defaults().journal, engine_->defaults().flight_recorder);
  // Build provenance on the start event, so any journal can attribute its
  // numbers to an exact build (SHA + compiler) without external context.
  const BuildInfo& build = GetBuildInfo();
  log.Emit(LogLevel::kInfo, "serve.start",
           {LogField::Str("host", options_.host),
            LogField::Num("port", listener_.port()),
            LogField::Num("threads", options_.threads),
            LogField::Num("max_connections", options_.max_connections),
            LogField::Num("max_inflight", options_.max_inflight),
            LogField::Str("git_sha", build.git_sha),
            LogField::Str("compiler", build.compiler),
            LogField::Str("build_type", build.build_type)});

  ConnectionEnv env;
  env.options = &options_;
  env.router = &*router_;
  env.injector = injector_;
  env.journal = engine_->defaults().journal;
  env.flight_recorder = engine_->defaults().flight_recorder;
  env.pool = pool_;
  env.clock = options_.clock;
  env.phase = &phase_;
  env.drain_deadline_ms = &drain_deadline_ms_;

  while (phase_.load(std::memory_order_acquire) ==
         static_cast<int>(ServePhase::kServing)) {
    Reap();

    pollfd fds[2];
    fds[0].fd = accept_wake_.fd();
    fds[0].events = POLLIN;
    fds[0].revents = 0;
    fds[1].fd = listener_.fd();
    fds[1].events = POLLIN;
    fds[1].revents = 0;
    ::poll(fds, 2, options_.poll_tick_ms);
    if (fds[0].revents & POLLIN) accept_wake_.Drain();
    if ((fds[1].revents & POLLIN) == 0) continue;

    for (;;) {
      const int cfd = injector_->Accept(listener_.fd());
      if (cfd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        // Transient accept failure (ECONNABORTED, EMFILE, an injected
        // fault): count it, journal it, keep serving. Never crash.
        ++summary_.accept_failures;
        accept_failures_.Increment();
        log.Emit(LogLevel::kWarn, "accept.failed",
                 {LogField::Str("error", std::strerror(errno))});
        break;
      }
      if (static_cast<int>(conns_.size()) >= options_.max_connections) {
        // Connection-level shed: one structured line, then close. The
        // write is best-effort — the kernel buffer takes a short line
        // even on a blocking fresh socket.
        static const char kShed[] =
            "{\"error\":\"rejected: too many connections\"}\n";
        (void)!injector_->Write(cfd, kShed, sizeof(kShed) - 1);
        ::close(cfd);
        ++summary_.conn_rejected;
        conn_rejected_.Increment();
        log.Emit(LogLevel::kWarn, "request.reject",
                 {LogField::Str("reason", "too many connections")});
        continue;
      }
      const int64_t id = next_conn_id_++;
      ConnEntry entry;
      entry.conn = std::make_unique<Connection>(cfd, id, env);
      Connection* conn = entry.conn.get();
      entry.thread = std::thread([conn] { conn->Run(); });
      conns_.push_back(std::move(entry));
      ++summary_.connections;
      conns_opened_.Increment();
      conns_active_.Set(static_cast<int64_t>(conns_.size()));
    }
  }

  // Drain / abort epilogue: stop accepting, tell every connection, then
  // wait for all of them — connections self-bound via the drain deadline
  // and the request deadline cap, so this terminates.
  listener_.Close();
  const bool aborting = phase_.load(std::memory_order_acquire) ==
                        static_cast<int>(ServePhase::kAborting);
  log.Emit(aborting ? LogLevel::kWarn : LogLevel::kInfo,
           aborting ? "serve.abort" : "drain.begin",
           {LogField::Num("drain_ms", options_.drain_ms),
            LogField::Num("connections",
                          static_cast<int64_t>(conns_.size())),
            LogField::Num("inflight", router_->in_flight())});
  const int64_t drain_begin_ms = NowMs();
  while (!conns_.empty()) {
    for (auto& entry : conns_) entry.conn->Wake();
    Reap();
    if (conns_.empty()) break;
    pollfd wake;
    wake.fd = accept_wake_.fd();
    wake.events = POLLIN;
    wake.revents = 0;
    ::poll(&wake, 1, std::min(options_.poll_tick_ms, 10));
    if (wake.revents & POLLIN) accept_wake_.Drain();
  }
  summary_.aborted = phase_.load(std::memory_order_acquire) ==
                     static_cast<int>(ServePhase::kAborting);
  // Sampled trace files are written asynchronously; make every trace
  // enqueued by the drained requests durable before announcing drain.end.
  router_->FlushTraces();
  log.Emit(LogLevel::kInfo, "drain.end",
           {LogField::Num("elapsed_ms", NowMs() - drain_begin_ms),
            LogField::Num("connections", summary_.connections),
            LogField::Num("lines", summary_.lines),
            LogField::Num("responses", summary_.responses),
            LogField::Num("rejected_lines", summary_.rejected_lines),
            LogField::Flag("aborted", summary_.aborted)});
}

}  // namespace pebblejoin
