// LineServer: `pebblejoin serve` — the long-lived JSONL solve service.
//
// One server multiplexes any number of concurrent TCP clients onto one
// shared SolveEngine. The wire protocol is exactly the batch runner's:
// one JSON request object per line in, one `analyze --json`-shaped
// response per line out, in per-connection request order, byte-identical
// to `pebblejoin batch` output for the same lines (both surfaces run the
// same JsonlRequestRunner). `GET /metrics` on the same port answers with
// the OpenMetrics exposition and closes.
//
// Thread model:
//   - one acceptor thread (owns the listener, the connection registry,
//     and the server-level EventLog; polls the listener and a WakePipe,
//     util/wake_pipe.h, that BeginDrain() and Abort() write);
//   - one event-loop thread per connection (owns that socket and frames
//     its lines with util/line_framer.h — see serve/connection.h for why a
//     stalled client can never wedge a pool worker);
//   - the engine's shared ThreadPool carries the solve fan-out when
//     Options::threads > 1.
//
// Lifecycle: Start() binds and spawns the acceptor; Wait() blocks until
// the server has fully stopped. BeginDrain() (first SIGTERM/SIGINT in the
// CLI) stops accepting, sheds new lines with "rejected: server draining",
// clamps in-flight work to the `drain_ms` budget, flushes, and lets
// Wait() return gracefully; past the budget, sockets are force-closed.
// Abort() (second signal) force-closes everything as fast as bounded
// in-flight work allows. Both are safe from any thread, idempotent in the
// forward direction (serving -> draining -> aborting).
//
// Journal events: serve.start / serve.listening / accept.failed /
// drain.begin / drain.end / serve.abort at the server level, plus each
// connection's conn.open / request.reject / conn.timeout / conn.close
// (see docs/serving.md for the schema). Metrics land under serve.* in the
// engine's registry (pebblejoin_serve_* once exposed).

#ifndef PEBBLEJOIN_SERVE_LINE_SERVER_H_
#define PEBBLEJOIN_SERVE_LINE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/solve_engine.h"
#include "obs/metrics.h"
#include "serve/connection.h"
#include "serve/fault_injector.h"
#include "serve/listener.h"
#include "serve/request_router.h"
#include "serve/serve_options.h"
#include "util/wake_pipe.h"

namespace pebblejoin {

class LineServer {
 public:
  struct Summary {
    int64_t connections = 0;      // accepted and served
    int64_t conn_rejected = 0;    // shed at accept (connection cap)
    int64_t accept_failures = 0;  // transient accept errors survived
    int64_t lines = 0;            // complete request lines received
    int64_t responses = 0;        // response lines produced
    int64_t rejected_lines = 0;   // lines shed by admission
    bool aborted = false;
  };

  // The engine is borrowed and must outlive the server.
  LineServer(SolveEngine* engine, ServeOptions options);
  ~LineServer();

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  // Binds host:port and spawns the acceptor. False (with a one-line
  // reason) when the bind fails. Call at most once.
  bool Start(std::string* error);

  // The bound port, valid after a successful Start() — the kernel's pick
  // when options.port was 0.
  int port() const { return listener_.port(); }

  // Graceful shutdown: stop accepting, shed new lines, finish or shed
  // in-flight work within options.drain_ms, then stop. Thread-safe,
  // idempotent.
  void BeginDrain();

  // Force-close everything; Wait() returns as soon as bounded in-flight
  // work has finished. Thread-safe.
  void Abort();

  // Blocks until the server has fully stopped (every connection thread
  // joined). Call once, after Start(); returns the totals.
  Summary Wait();

  bool draining() const {
    return phase_.load(std::memory_order_acquire) !=
           static_cast<int>(ServePhase::kServing);
  }

  RequestRouter* router() { return &*router_; }
  FaultInjector* injector() { return injector_; }

 private:
  void AcceptLoop();
  // Joins finished connections, folding their stats into summary_.
  // Acceptor thread only.
  void Reap();
  int64_t NowMs() const { return pebblejoin::NowMs(options_.clock); }

  SolveEngine* engine_;  // borrowed
  ServeOptions options_;
  FaultInjector default_injector_;
  FaultInjector* injector_;  // borrowed or &default_injector_
  std::optional<RequestRouter> router_;
  Listener listener_;
  ThreadPool* pool_ = nullptr;  // engine's, when options_.threads > 1

  std::atomic<int> phase_{static_cast<int>(ServePhase::kServing)};
  std::atomic<int64_t> drain_deadline_ms_{-1};

  WakePipe accept_wake_;  // pokes the acceptor out of poll()
  std::thread acceptor_;
  bool started_ = false;
  bool waited_ = false;

  // Connection registry: acceptor thread only.
  struct ConnEntry {
    std::unique_ptr<Connection> conn;
    std::thread thread;
  };
  std::vector<ConnEntry> conns_;
  int64_t next_conn_id_ = 1;
  Summary summary_;  // acceptor thread until Wait() joins it

  Counter conns_opened_;
  Counter conns_closed_;
  Counter conn_rejected_;
  Counter accept_failures_;
  Gauge conns_active_;
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_SERVE_LINE_SERVER_H_
