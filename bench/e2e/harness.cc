#include "harness.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <fstream>
#include <thread>

#include "util/random.h"

extern char** environ;

namespace pebblejoin::e2e {

namespace {

constexpr int64_t kNsPerSecond = 1'000'000'000;

void CloseFd(int* fd) {
  if (*fd >= 0) ::close(*fd);
  *fd = -1;
}

// Splits newly read bytes into complete lines; keeps the partial tail.
class LineSplitter {
 public:
  // Reads what `fd` has. False on end of file or a read error.
  template <typename OnLine>
  bool ReadFrom(int fd, const OnLine& on_line) {
    char buf[65536];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) return true;
    if (n <= 0) return false;
    size_t start = 0;
    for (size_t i = 0; i < static_cast<size_t>(n); ++i) {
      if (buf[i] != '\n') continue;
      partial_.append(buf + start, i - start);
      on_line(partial_);
      partial_.clear();
      start = i + 1;
    }
    partial_.append(buf + start, static_cast<size_t>(n) - start);
    return true;
  }

 private:
  std::string partial_;
};

// GET /readyz on a fresh connection; true on a 200 answer.
bool Ready(int port) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return false;
  std::string reply;
  if (WriteLine(fd, "GET /readyz HTTP/1.0\r\n\r")) {
    char buf[512];
    ssize_t n = 0;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0) reply.append(buf, n);
  }
  ::close(fd);
  return reply.rfind("HTTP/1.1 200", 0) == 0;
}

}  // namespace

int64_t NowNs() {
  timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return ts.tv_sec * kNsPerSecond + ts.tv_nsec;
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

// --- ChildProcess -----------------------------------------------------------

std::unique_ptr<ChildProcess> ChildProcess::Spawn(
    const std::vector<std::string>& argv, std::string* error) {
  int in[2];
  int out[2];
  int err[2];
  if (::pipe2(in, O_CLOEXEC) != 0) {
    *error = "pipe2 failed";
    return nullptr;
  }
  if (::pipe2(out, O_CLOEXEC) != 0) {
    ::close(in[0]);
    ::close(in[1]);
    *error = "pipe2 failed";
    return nullptr;
  }
  if (::pipe2(err, O_CLOEXEC) != 0) {
    for (int fd : {in[0], in[1], out[0], out[1]}) ::close(fd);
    *error = "pipe2 failed";
    return nullptr;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, in[0], STDIN_FILENO);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_adddup2(&actions, err[1], STDERR_FILENO);
  // The benchmark ignores SIGPIPE; the child starts with the default.
  posix_spawnattr_t attr;
  posix_spawnattr_init(&attr);
  sigset_t defaults;
  sigemptyset(&defaults);
  sigaddset(&defaults, SIGPIPE);
  posix_spawnattr_setsigdefault(&attr, &defaults);
  posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETSIGDEF);

  std::vector<char*> args;
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);
  pid_t pid = -1;
  const int rc =
      ::posix_spawn(&pid, args[0], &actions, &attr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  posix_spawnattr_destroy(&attr);
  ::close(in[0]);
  ::close(out[1]);
  ::close(err[1]);
  if (rc != 0) {
    ::close(in[1]);
    ::close(out[0]);
    ::close(err[0]);
    *error = "cannot spawn " + argv[0] + ": " + std::strerror(rc);
    return nullptr;
  }
  std::unique_ptr<ChildProcess> child(new ChildProcess());
  child->pid_ = pid;
  child->in_ = in[1];
  child->out_ = out[0];
  child->err_ = err[0];
  return child;
}

ChildProcess::~ChildProcess() {
  CloseFd(&in_);
  CloseFd(&out_);
  CloseFd(&err_);
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
}

void ChildProcess::CloseStdin() { CloseFd(&in_); }

void ChildProcess::Signal(int signum) {
  if (pid_ > 0) ::kill(pid_, signum);
}

void ChildProcess::DrainStderr() {
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::read(err_, buf, sizeof(buf))) != 0) {
    if (n < 0 && errno != EINTR) break;
  }
}

double ChildProcess::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

bool ChildProcess::Wait() {
  int status = 0;
  pid_t rc = -1;
  do {
    rc = ::waitpid(pid_, &status, 0);
  } while (rc < 0 && errno == EINTR);
  pid_ = -1;
  return rc > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// --- serve ------------------------------------------------------------------

bool StartServe(const std::string& cli, const std::vector<std::string>& args,
                ServeProcess* serve, double* setup_s, std::string* error) {
  const int64_t start = NowNs();
  std::vector<std::string> argv = {cli, "serve", "--port", "0"};
  argv.insert(argv.end(), args.begin(), args.end());
  serve->child = ChildProcess::Spawn(argv, error);
  if (serve->child == nullptr) return false;

  // The last banner line announces the bound address: "serving on H:P".
  std::string banner;
  const int64_t give_up = start + 20 * kNsPerSecond;
  size_t at = std::string::npos;
  while ((at = banner.find("serving on ")) == std::string::npos ||
         banner.find('\n', at) == std::string::npos) {
    pollfd p = {serve->child->stderr_fd(), POLLIN, 0};
    char buf[1024];
    ssize_t n = 0;
    if (NowNs() > give_up || ::poll(&p, 1, 100) < 0 ||
        ((p.revents & (POLLIN | POLLHUP)) != 0 &&
         (n = ::read(p.fd, buf, sizeof(buf))) <= 0)) {
      *error = "serve did not announce its port: " + banner;
      return false;
    }
    banner.append(buf, static_cast<size_t>(n));
  }
  const size_t colon = banner.rfind(':', banner.find('\n', at));
  serve->port = std::atoi(banner.c_str() + colon + 1);
  while (!Ready(serve->port)) {
    if (NowNs() > give_up) {
      *error = "serve never answered /readyz 200";
      return false;
    }
    ::usleep(200);
  }
  *setup_s = static_cast<double>(NowNs() - start) / kNsPerSecond;
  return true;
}

bool StopServe(ServeProcess* serve, double* peak_rss_mb) {
  *peak_rss_mb = serve->child->PeakRssMb();
  serve->child->Signal(SIGTERM);
  serve->child->DrainStderr();
  const bool ok = serve->child->Wait();
  serve->child.reset();
  return ok;
}

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool WriteLine(int fd, const std::string& line) {
  static const char kNewline = '\n';
  size_t done = 0;
  const size_t total = line.size() + 1;
  while (done < total) {
    iovec parts[2];
    int count = 0;
    if (done < line.size()) {
      parts[count++] = {const_cast<char*>(line.data()) + done,
                        line.size() - done};
    }
    parts[count++] = {const_cast<char*>(&kNewline), 1};
    const ssize_t n = ::writev(fd, parts, count);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

bool ReadLines(int fd, int64_t deadline_ns,
               const std::function<void(const std::string&)>& on_line) {
  LineSplitter splitter;
  while (NowNs() < deadline_ns) {
    pollfd p = {fd, POLLIN, 0};
    if (::poll(&p, 1, 100) <= 0) continue;
    if (!splitter.ReadFrom(fd, on_line)) return true;
  }
  return false;
}

// --- load drivers -----------------------------------------------------------

std::vector<Scheduled> PoissonSchedule(uint64_t seed, double rate_per_s,
                                       double seconds,
                                       const std::vector<RequestLine>& lines) {
  Rng rng(seed);
  std::vector<Scheduled> schedule;
  size_t next = static_cast<size_t>(rng.UniformInt(lines.size()));
  double t = 0;
  while (true) {
    t += -std::log(1.0 - rng.UniformDouble()) / rate_per_s;
    if (t >= seconds) break;
    schedule.push_back({static_cast<int64_t>(t * kNsPerSecond), &lines[next]});
    next = (next + 1) % lines.size();
  }
  return schedule;
}

OpenLoopResult RunOpenLoop(const std::vector<int>& fds,
                           const std::vector<std::vector<Scheduled>>& schedule,
                           double grace_s, const ResponseSink& sink) {
  struct Send {
    int64_t due_ns;
    int conn;
    const RequestLine* line;
  };
  std::vector<Send> order;
  for (size_t c = 0; c < schedule.size(); ++c) {
    for (const Scheduled& s : schedule[c]) {
      order.push_back({s.due_ns, static_cast<int>(c), s.line});
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Send& a, const Send& b) {
                     return a.due_ns < b.due_ns;
                   });

  OpenLoopResult result;
  const int64_t start = NowNs() + 2'000'000;
  std::atomic<int64_t> last_send_ns{start};
  std::atomic<bool> sender_done{false};
  std::atomic<int64_t> answered{0};
  int64_t last_answer = start;  // receiver thread only until the join
  const int64_t grace_ns = static_cast<int64_t>(grace_s * kNsPerSecond);

  std::thread receiver([&] {
    std::vector<LineSplitter> splitters(fds.size());
    std::vector<size_t> next(fds.size(), 0);
    std::vector<pollfd> polls;
    for (int fd : fds) polls.push_back({fd, POLLIN, 0});
    const int64_t expected = static_cast<int64_t>(order.size());
    while (answered.load() < expected) {
      if (sender_done.load() && NowNs() > last_send_ns.load() + grace_ns) {
        break;
      }
      if (::poll(polls.data(), polls.size(), 20) <= 0) continue;
      for (size_t c = 0; c < polls.size(); ++c) {
        if (polls[c].revents == 0) continue;
        const auto on_line = [&](const std::string& text) {
          const int64_t now = NowNs();
          if (next[c] >= schedule[c].size()) return;  // unsolicited: dropped
          const Scheduled& s = schedule[c][next[c]++];
          sink({s.line, text, now - (start + s.due_ns)});
          answered.fetch_add(1);
          last_answer = now;
        };
        const bool open = splitters[c].ReadFrom(fds[c], on_line);
        if (!open) polls[c].fd = -1;
      }
    }
  });

  // The sender sleeps to each due time rather than spinning: a spinning
  // sender would take a core from the server it measures. Timer slack is
  // cut to the minimum so wake-ups come as close to due as the kernel can.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  result.lag_us.reserve(order.size());
  for (const Send& send : order) {
    const int64_t due = start + send.due_ns;
    if (NowNs() < due) {
      timespec ts = {static_cast<time_t>(due / kNsPerSecond),
                     static_cast<long>(due % kNsPerSecond)};
      while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
             EINTR) {
      }
    }
    const int64_t now = NowNs();
    result.lag_us.push_back(static_cast<double>(now - due) / 1000.0);
    if (!WriteLine(fds[send.conn], send.line->text)) break;
    last_send_ns.store(NowNs());
  }
  sender_done.store(true);
  receiver.join();
  result.seconds = static_cast<double>(last_answer - start) / kNsPerSecond;
  return result;
}

ClosedLoopResult RunClosedLoop(const std::vector<int>& fds, int window,
                               double seconds,
                               const std::vector<RequestLine>& lines,
                               const ResponseSink& sink) {
  struct Inflight {
    int64_t sent_ns;
    const RequestLine* line;
  };
  ClosedLoopResult result;
  const size_t n = fds.size();
  std::vector<std::deque<Inflight>> inflight(n);
  std::vector<size_t> next(n);
  std::vector<LineSplitter> splitters(n);
  std::vector<pollfd> polls;
  for (size_t c = 0; c < n; ++c) {
    next[c] = c * lines.size() / n;
    polls.push_back({fds[c], POLLIN, 0});
  }
  const int64_t start = NowNs();
  const int64_t stop_sending =
      start + static_cast<int64_t>(seconds * kNsPerSecond);
  const int64_t give_up = stop_sending + 10 * kNsPerSecond;
  int64_t last_answer = start;
  const auto send = [&](size_t c) {
    const RequestLine* line = &lines[next[c]++ % lines.size()];
    inflight[c].push_back({NowNs(), line});
    if (WriteLine(fds[c], line->text)) {
      ++result.sent;
    } else {
      inflight[c].pop_back();
      polls[c].fd = -1;
    }
  };
  for (size_t c = 0; c < n; ++c) {
    for (int w = 0; w < window; ++w) send(c);
  }
  while (result.answered < result.sent && NowNs() < give_up) {
    if (::poll(polls.data(), polls.size(), 20) <= 0) continue;
    for (size_t c = 0; c < n; ++c) {
      if (polls[c].revents == 0) continue;
      const auto on_line = [&](const std::string& text) {
        const int64_t now = NowNs();
        if (inflight[c].empty()) return;  // unsolicited: dropped
        const Inflight done = inflight[c].front();
        inflight[c].pop_front();
        sink({done.line, text, now - done.sent_ns});
        ++result.answered;
        last_answer = now;
        if (now < stop_sending) send(c);
      };
      const bool open = splitters[c].ReadFrom(fds[c], on_line);
      if (!open) polls[c].fd = -1;
    }
  }
  result.seconds = static_cast<double>(last_answer - start) / kNsPerSecond;
  return result;
}

}  // namespace pebblejoin::e2e
