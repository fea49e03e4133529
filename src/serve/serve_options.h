// Tunables of the `pebblejoin serve` network layer, shared by the
// listener, the per-connection event loops, and the request router.
//
// Every knob is a robustness control (docs/serving.md has the failure-mode
// table the knobs map onto):
//
//   - admission: `max_connections`, `max_inflight`, `per_conn_inflight`
//     bound the server-wide request queue — when a ceiling is hit the
//     server sheds load with a structured rejection instead of queueing
//     unboundedly;
//   - slow clients: `idle_timeout_ms`, `write_stall_timeout_ms`,
//     `max_line_bytes` make sure one stalled, silent, or babbling socket
//     costs one connection, never a pool worker;
//   - drain: `drain_ms` is the graceful-shutdown budget, and
//     `request_deadline_cap_ms` clamps every admitted solve so no request
//     can outlive it — the invariant that makes drain finite;
//   - determinism: `clock` and `injector` are the fault-injection seams
//     the torture tests drive (util/clock.h FakeClock and
//     serve/fault_injector.h).

#ifndef PEBBLEJOIN_SERVE_SERVE_OPTIONS_H_
#define PEBBLEJOIN_SERVE_SERVE_OPTIONS_H_

#include <cstdint>
#include <string>

#include "join/predicates.h"
#include "util/clock.h"

namespace pebblejoin {

class FaultInjector;

struct ServeOptions {
  // --- Listener -----------------------------------------------------------
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = ephemeral; LineServer::port() has the real one

  // --- Admission (the bounded request queue) ------------------------------
  int max_connections = 64;  // concurrent sockets; beyond: reject-and-close
  int max_inflight = 128;    // server-wide queued+running solves
  int per_conn_inflight = 8; // pipelined solves one client may have open

  // --- Slow-client defenses ----------------------------------------------
  // No bytes read and nothing in flight for this long: the connection is
  // closed as idle. Non-positive = never.
  int64_t idle_timeout_ms = 30000;
  // Pending output and no write progress for this long: the client has
  // stalled its receive window; the connection is closed. Non-positive =
  // never.
  int64_t write_stall_timeout_ms = 5000;
  // Longest accepted request line, bytes. Beyond it the line is answered
  // with a structured error and discarded as it streams in — the reader
  // never buffers more than this per line.
  int64_t max_line_bytes = int64_t{1} << 20;
  // Outbound bytes buffered before the loop stops reading new requests
  // from that socket (write backpressure).
  static constexpr int64_t kMaxOutbufBytes = int64_t{4} << 20;

  // --- Deadlines and drain -----------------------------------------------
  // Ceiling clamped onto every admitted request's deadline. This is what
  // bounds graceful drain: no in-flight solve outlives the cap. Negative
  // disables the clamp (and with it the drain-time guarantee).
  int64_t request_deadline_cap_ms = 10000;
  // Graceful-drain budget: after BeginDrain, in-flight work must finish or
  // be shed within this window; past it, sockets are force-closed.
  int64_t drain_ms = 2000;

  // --- Engine -------------------------------------------------------------
  // Worker threads for the solve fan-out (the engine's shared pool).
  // 1 = solves run inline on the connection threads.
  int threads = 1;
  // Predicate for every request that does not name its own. Solver,
  // planner, and budget defaults are the engine's (SolveEngine::defaults).
  PredicateClass predicate = PredicateClass::kGeneral;

  // --- Observability -------------------------------------------------------
  // SLO targets the /statusz burn rates are computed against: window p99
  // versus `slo_p99_ms`, window error rate versus `slo_error_rate`.
  // Negative = unset (reported as -1, burn omitted as -1).
  int64_t slo_p99_ms = -1;
  double slo_error_rate = -1.0;
  // Tail capture: a full Chrome trace for one in every `trace_sample`
  // solve requests (0 = off), written to `trace_dir`/trace-<id>.json with
  // the request's correlation id in the filename and stream.
  int64_t trace_sample = 0;
  std::string trace_dir = ".";
  // The /statusz window series and gauges cover the default WindowOptions
  // ring (obs/timeseries.h): the trailing 60 buckets of 10 s.

  // --- Determinism seams --------------------------------------------------
  // The server clock: timeouts, drain, admission, the windows and request
  // wall times. Borrowed, must outlive the server; tests inject a
  // FakeClock (clock skew included — skew is just a clock that jumps).
  // nullptr uses the steady clock.
  const Clock* clock = nullptr;
  // Syscall seam for the accept/read/write paths. Borrowed, may be null
  // (real syscalls). Must outlive the server.
  FaultInjector* injector = nullptr;
  // Event-loop tick, real milliseconds: the longest a connection sleeps in
  // poll() before rechecking timeouts and drain state.
  int poll_tick_ms = 20;
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_SERVE_SERVE_OPTIONS_H_
