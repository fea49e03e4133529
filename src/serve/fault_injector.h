// Deterministic fault injection for the serve layer's syscall boundary.
//
// Every accept/read/write the server performs goes through one
// FaultInjector, so the torture tests can force the failure modes a
// network delivers in production — accept failures, peers vanishing
// mid-request, short writes, broken pipes — at exact, repeatable points,
// without root, tc(8), or flaky timing. The default instance is a pure
// passthrough to the real syscalls; tests arm counters that override the
// next N calls. Clock skew, the remaining fault class, is injected through
// ServeOptions::clock: a skewed clock is a FakeClock (util/clock.h) the
// test advances in jumps, the same Clock every other layer reads.
//
// All knobs are atomics: arm them from the test thread while server
// threads run — the counter decrements are exact, so "the next two accepts
// fail" means exactly two, even under concurrency.

#ifndef PEBBLEJOIN_SERVE_FAULT_INJECTOR_H_
#define PEBBLEJOIN_SERVE_FAULT_INJECTOR_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>

namespace pebblejoin {

class FaultInjector {
 public:
  FaultInjector() = default;
  virtual ~FaultInjector() = default;

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // --- Syscall seam (server side) ----------------------------------------
  // Same contracts as the raw syscalls (including errno on failure), with
  // armed faults taking precedence.

  // accept(2) on `listen_fd`. An armed accept failure returns -1 with
  // errno = ECONNABORTED — the transient class a server must survive.
  virtual int Accept(int listen_fd);

  // read(2). An armed disconnect makes reads report end-of-stream (0) once
  // the byte allowance runs out — the peer vanished mid-request.
  virtual ssize_t Read(int fd, char* data, size_t len);

  // write(2). A short-write cap truncates `len` (the partial-write path
  // every writer must loop over); an armed write failure returns -1 with
  // errno = EPIPE — the peer closed its receive side.
  virtual ssize_t Write(int fd, const char* data, size_t len);

  // --- Knobs (test side; thread-safe) ------------------------------------

  // The next `n` Accept calls fail with ECONNABORTED.
  void FailNextAccepts(int n) { fail_accepts_.store(n); }

  // After `n` more bytes have been read (across all connections), every
  // later Read reports end-of-stream. Negative disarms.
  void DisconnectAfterReadBytes(int64_t n) { read_allowance_.store(n); }

  // Caps every Write to at most `chunk` bytes, forcing the short-write
  // path on each call. Non-positive disarms.
  void ShortWriteChunk(int chunk) { short_write_chunk_.store(chunk); }

  // The next `n` Write calls fail with EPIPE.
  void FailNextWrites(int n) { fail_writes_.store(n); }

  // While set, every Write reports EAGAIN without moving a byte — the
  // stalled-receive-window client whose responses pile up behind the
  // write-backpressure and write-stall-timeout defenses.
  void StallWrites(bool stalled) { stall_writes_.store(stalled); }

  // --- Telemetry (what actually fired) -----------------------------------
  int64_t accepts_failed() const { return accepts_failed_.load(); }
  int64_t disconnects_forced() const { return disconnects_forced_.load(); }
  int64_t writes_failed() const { return writes_failed_.load(); }
  int64_t writes_shortened() const { return writes_shortened_.load(); }

 private:
  // Decrements a countdown if positive; true when this call consumed one.
  static bool ConsumeArm(std::atomic<int>* counter);

  std::atomic<int> fail_accepts_{0};
  std::atomic<int64_t> read_allowance_{-1};  // negative = disarmed
  std::atomic<int> short_write_chunk_{0};
  std::atomic<int> fail_writes_{0};
  std::atomic<bool> stall_writes_{false};

  std::atomic<int64_t> accepts_failed_{0};
  std::atomic<int64_t> disconnects_forced_{0};
  std::atomic<int64_t> writes_failed_{0};
  std::atomic<int64_t> writes_shortened_{0};
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_SERVE_FAULT_INJECTOR_H_
