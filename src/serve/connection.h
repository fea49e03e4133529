// One accepted socket: a poll()-based event loop on its own thread.
//
// The threading contract that keeps a stalled socket from ever wedging a
// pool worker: the connection thread does ALL socket I/O. Solves run as
// tasks of the connection's OrderedWindow (util/ordered_window.h) — on the
// engine pool, or inline when the server is single-threaded — that only
// compute, land their response in the window, and poke the loop through a
// wake pipe. The loop takes responses back in submission order and writes
// them as the socket drains — a worker never blocks on a client, and a
// client never sees responses out of order.
//
// Robustness mechanics, each bounded by a ServeOptions knob or constant
// and exercised by the fault-injection tests:
//   - line framing with a streaming byte cap: a line past
//     `max_line_bytes` is answered with a structured error the moment the
//     cap trips and the rest of it is discarded as it arrives — the
//     buffer never grows past the cap;
//   - write backpressure: past `kMaxOutbufBytes` of pending output the
//     loop stops reading new requests until the client drains;
//   - idle and write-stall timeouts close connections that go silent or
//     stop consuming;
//   - drain/abort phases (from LineServer) stop reads, let bounded
//     in-flight work finish, then close; past the drain deadline the
//     socket is force-closed but the loop still waits for its in-flight
//     solves (memory safety — pool tasks hold a pointer to this).
//
// Every accepted line gets exactly one response line; blank lines get
// none; bytes after the last newline were never a request and are dropped
// (counted in conn.close). The per-connection EventLog stamps a "conn"
// base field on conn.open/close and request.reject events, merging the
// connection's story into the shared journal.

#ifndef PEBBLEJOIN_SERVE_CONNECTION_H_
#define PEBBLEJOIN_SERVE_CONNECTION_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "serve/serve_options.h"
#include "util/ordered_window.h"

namespace pebblejoin {

class FaultInjector;
class Journal;
class RequestRouter;

// The server phase a connection keys its lifecycle off (LineServer owns
// the atomic).
enum class ServePhase : int { kServing = 0, kDraining = 1, kAborting = 2 };

// Everything a connection borrows from the server. All pointers outlive
// the connection.
struct ConnectionEnv {
  const ServeOptions* options = nullptr;
  RequestRouter* router = nullptr;
  FaultInjector* injector = nullptr;      // never null (server owns one)
  Journal* journal = nullptr;             // may be null
  int flight_recorder = 64;
  ThreadPool* pool = nullptr;             // null = solve inline
  const Clock* clock = nullptr;           // null = the steady clock
  const std::atomic<int>* phase = nullptr;
  const std::atomic<int64_t>* drain_deadline_ms = nullptr;
};

class Connection {
 public:
  // Takes ownership of `fd` (closed by Run's epilogue or the destructor).
  Connection(int fd, int64_t id, const ConnectionEnv& env);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // Thread body. Returns only when the socket is closed AND every solve
  // this connection submitted has landed its result.
  void Run();

  // Pokes the event loop out of poll() (thread-safe; server threads call
  // it on drain/abort).
  void Wake();

  bool done() const { return done_.load(std::memory_order_acquire); }
  int64_t id() const { return id_; }

  // Stats for the server summary; stable once done().
  int64_t lines() const { return lines_; }
  int64_t responses() const { return responses_; }
  int64_t rejected() const { return rejected_; }

 private:
  // Feeds freshly read bytes through the line framer.
  void HandleBytes(const char* data, size_t n);
  // Dispatches one complete line (cur_line_, newline stripped).
  void HandleLine();
  // Queues one solve on the window.
  void SubmitSolve(std::string line, int64_t line_number);
  // Moves in-order completions into the write buffer.
  void CollectCompletions();
  // One write attempt; false on a fatal socket error.
  bool FlushSome();

  int64_t NowUs() const { return pebblejoin::NowUs(env_.clock); }
  int64_t NowMs() const { return pebblejoin::NowMs(env_.clock); }
  ServePhase Phase() const {
    return static_cast<ServePhase>(env_.phase->load(std::memory_order_acquire));
  }

  const int fd_;
  const int64_t id_;
  const ConnectionEnv env_;

  int wake_fds_[2] = {-1, -1};  // pipe; [0] polled, [1] written by Wake()
  bool fd_closed_ = false;      // set by Run's epilogue (conn thread only)
  class EventLog* log_ = nullptr;  // Run's per-connection log, while alive

  // --- Line framing (connection thread only) -----------------------------
  std::string cur_line_;
  bool discarding_line_ = false;  // past the byte cap; eat until newline
  bool discard_input_ = false;    // drain/HTTP: ignore all further input
  bool eof_ = false;
  bool fatal_ = false;            // socket error; stop reads AND writes
  bool close_after_flush_ = false;

  // --- Responses in submission order (solves land here from the pool) ---
  // Every response line, newline included; Wake() is the landing hook.
  OrderedWindow<std::string> window_;

  // --- Write side (connection thread only) -------------------------------
  std::string outbuf_;
  size_t outbuf_off_ = 0;

  // --- Timers, on the injectable clock -----------------------------------
  int64_t last_read_ms_ = 0;
  int64_t last_write_progress_ms_ = 0;

  // --- Stats -------------------------------------------------------------
  int64_t lines_ = 0;      // lines seen, blank included: the "line" number
  int64_t responses_ = 0;  // response lines written into outbuf
  int64_t rejected_ = 0;
  int64_t partial_tail_bytes_ = 0;  // bytes after the last newline at close
  std::string close_reason_ = "eof";

  std::atomic<bool> done_{false};
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_SERVE_CONNECTION_H_
