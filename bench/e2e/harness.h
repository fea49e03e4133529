// Load-side machinery of the end-to-end benchmark: child processes for the
// `pebblejoin serve` and `pebblejoin batch` surfaces, loopback sockets, and
// the open- and closed-loop request drivers. All load comes from this one
// process, on at most two threads per phase.

#ifndef PEBBLEJOIN_BENCH_E2E_HARNESS_H_
#define PEBBLEJOIN_BENCH_E2E_HARNESS_H_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "corpus.h"

namespace pebblejoin::e2e {

// Steady-clock nanoseconds.
int64_t NowNs();

// Nearest-rank quantile `q` in [0, 1] of `samples`; 0 when empty.
double Quantile(std::vector<double> samples, double q);

// A spawned program with its three standard streams on pipes. The
// destructor kills and reaps a child that is still running, so no process
// outlives the benchmark.
class ChildProcess {
 public:
  // argv[0] is the program path. Returns null and sets *error on failure.
  static std::unique_ptr<ChildProcess> Spawn(
      const std::vector<std::string>& argv, std::string* error);
  ~ChildProcess();

  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  int stdin_fd() const { return in_; }
  int stdout_fd() const { return out_; }
  int stderr_fd() const { return err_; }
  void CloseStdin();
  void Signal(int signum);
  // Reads and discards stderr until end of file.
  void DrainStderr();
  // The child's peak resident set so far (VmHWM), in MB; 0 once it has
  // exited. Its ru_maxrss would not do: a spawned child starts out with its
  // parent's peak.
  double PeakRssMb() const;
  // Waits for exit. Returns true on exit code 0.
  bool Wait();

 private:
  ChildProcess() = default;

  pid_t pid_ = -1;
  int in_ = -1;
  int out_ = -1;
  int err_ = -1;
};

// A running `pebblejoin serve` on an ephemeral loopback port.
struct ServeProcess {
  std::unique_ptr<ChildProcess> child;
  int port = 0;
};

// Spawns `cli serve --port 0 <args>` and returns once GET /readyz answers
// 200. *setup_s receives the time from spawn to that answer.
bool StartServe(const std::string& cli, const std::vector<std::string>& args,
                ServeProcess* serve, double* setup_s, std::string* error);

// SIGTERM, drain, reap. True when the server exited 0. *peak_rss_mb
// receives the server's peak resident set, read just before the signal.
bool StopServe(ServeProcess* serve, double* peak_rss_mb);

// A blocking TCP connection to 127.0.0.1:port with Nagle off; -1 on error.
int ConnectLoopback(int port);

// Writes `line` and a newline; false on a write error.
bool WriteLine(int fd, const std::string& line);

// Reads `fd` to end of file, handing each complete line (no newline) to
// `on_line`. False when `deadline_ns` passes first.
bool ReadLines(int fd, int64_t deadline_ns,
               const std::function<void(const std::string&)>& on_line);

// One response as a driver delivers it.
// Valid only for the duration of the sink call.
struct Response {
  const RequestLine* line;
  const std::string& text;  // the response line, no newline
  int64_t latency_ns;       // from the scheduled (open) or actual (closed) send
};
using ResponseSink = std::function<void(const Response&)>;

// One scheduled request of an open-loop phase.
struct Scheduled {
  int64_t due_ns = 0;  // offset from the phase start
  const RequestLine* line = nullptr;
};

// Poisson arrivals at `rate_per_s` over `seconds`, cycling through `lines`
// from a seeded random start.
std::vector<Scheduled> PoissonSchedule(uint64_t seed, double rate_per_s,
                                       double seconds,
                                       const std::vector<RequestLine>& lines);

struct OpenLoopResult {
  double seconds = 0;          // from the phase start to the last answer
  std::vector<double> lag_us;  // how late the sender ran, per request
};

// Sends schedule[c] on fds[c] at its due times from one sender thread while
// one receiver thread hands every response to `sink` (on the receiver
// thread) with its latency counted from the due time. Returns once every
// request is answered or `grace_s` after the last send.
OpenLoopResult RunOpenLoop(const std::vector<int>& fds,
                           const std::vector<std::vector<Scheduled>>& schedule,
                           double grace_s, const ResponseSink& sink);

struct ClosedLoopResult {
  int64_t sent = 0;
  int64_t answered = 0;
  double seconds = 0;  // from the first send to the last answer
};

// Keeps `window` requests outstanding on every connection for `seconds`,
// cycling through `lines` from per-connection offsets, then collects the
// stragglers. One thread.
ClosedLoopResult RunClosedLoop(const std::vector<int>& fds, int window,
                               double seconds,
                               const std::vector<RequestLine>& lines,
                               const ResponseSink& sink);

}  // namespace pebblejoin::e2e

#endif  // PEBBLEJOIN_BENCH_E2E_HARNESS_H_
