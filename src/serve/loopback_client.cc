#include "serve/loopback_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <string_view>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/line_framer.h"

namespace pebblejoin {
namespace {

// The longest one poll() waits, so a client re-reads the clock (and so
// notices its timeout) at least this often.
constexpr int64_t kPollCapMs = 50;

// One connection's share of the run.
struct ClientRun {
  std::vector<std::string> lines;  // this client's share, ids stamped
  std::vector<std::string> ids;    // the id of each line; empty without ids
  std::vector<LoadReply> replies;  // in this connection's order
  std::string error;               // empty when every response came back
};

class ScopedFd {
 public:
  explicit ScopedFd(int fd) : fd_(fd) {}
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
  ~ScopedFd() {
    if (fd_ >= 0) ::close(fd_);
  }
  int get() const { return fd_; }

 private:
  int fd_;
};

std::string Progress(size_t received, size_t total) {
  return " (" + std::to_string(received) + "/" + std::to_string(total) + ")";
}

// One client: non-blocking socket, window-bounded pipelining, poll loop.
// Line k is enqueued only while fewer than `window` lines are
// unanswered; its latency runs from that enqueue to the arrival of the
// k-th response line.
void RunClient(const LoadOptions& options, ClientRun* run) {
  const ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (fd.get() < 0) {
    run->error = std::string("socket: ") + std::strerror(errno);
    return;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options.port));
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    run->error = "not an IPv4 address: '" + options.host + "'";
    return;
  }
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    run->error = std::string("connect: ") + std::strerror(errno);
    return;
  }
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd.get(), F_SETFL, ::fcntl(fd.get(), F_GETFL, 0) | O_NONBLOCK);

  const size_t total = run->lines.size();
  const size_t window = static_cast<size_t>(options.window);
  size_t enqueued = 0;  // lines moved into the outbox
  std::string outbox;
  size_t outbox_off = 0;
  LineFramer inbox;  // response lines
  std::deque<int64_t> enqueued_us;  // enqueue times of unanswered lines
  const int64_t deadline_us =
      Clock::SteadyNowUs() + options.timeout_ms * 1000;

  while (run->replies.size() < total) {
    const size_t received = run->replies.size();
    const int64_t now_us = Clock::SteadyNowUs();
    if (now_us >= deadline_us) {
      run->error = "timed out waiting for responses" +
                   Progress(received, total);
      return;
    }
    while (enqueued < total && enqueued - received < window) {
      outbox += run->lines[enqueued];
      outbox += '\n';
      enqueued_us.push_back(now_us);
      ++enqueued;
    }

    pollfd pfd{};
    pfd.fd = fd.get();
    pfd.events = POLLIN;
    if (outbox_off < outbox.size()) pfd.events |= POLLOUT;
    const int64_t wait_ms =
        std::min((deadline_us - now_us + 999) / 1000, kPollCapMs);
    ::poll(&pfd, 1, static_cast<int>(wait_ms));

    if ((pfd.revents & POLLOUT) != 0 && outbox_off < outbox.size()) {
      const ssize_t n = ::send(fd.get(), outbox.data() + outbox_off,
                               outbox.size() - outbox_off, MSG_NOSIGNAL);
      if (n > 0) {
        outbox_off += static_cast<size_t>(n);
        if (outbox_off == outbox.size()) {
          outbox.clear();
          outbox_off = 0;
        }
      } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                 errno != EINTR) {
        run->error = std::string("send: ") + std::strerror(errno);
        return;
      }
    }
    if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    char buf[4096];
    bool closed = false;
    for (;;) {
      const ssize_t n = ::read(fd.get(), buf, sizeof(buf));
      if (n > 0) {
        inbox.Feed(std::string_view(buf, static_cast<size_t>(n)));
        continue;
      }
      if (n == 0) closed = true;
      if (n == 0 || errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      run->error = std::string("read: ") + std::strerror(errno);
      return;
    }
    // Consume the complete response lines.
    const int64_t arrived_us = Clock::SteadyNowUs();
    std::string response;
    while (inbox.Next(&response) == LineFramer::Frame::kLine) {
      if (enqueued_us.empty()) {
        run->error = "response for a line never sent" +
                     Progress(run->replies.size(), total);
        return;
      }
      LoadReply reply;
      if (!run->ids.empty()) reply.id = run->ids[run->replies.size()];
      reply.response = std::move(response);
      reply.latency_us = arrived_us - enqueued_us.front();
      enqueued_us.pop_front();
      run->replies.push_back(std::move(reply));
    }
    if (closed && run->replies.size() < total) {
      run->error = "server closed the connection early" +
                   Progress(run->replies.size(), total);
      return;
    }
  }
}

}  // namespace

LoadResult RunLoad(const std::vector<std::string>& corpus,
                   const LoadOptions& options) {
  JP_CHECK(options.clients >= 1 && options.window >= 1);
  const size_t clients = static_cast<size_t>(options.clients);
  std::vector<ClientRun> runs(clients);
  size_t global = 0;
  for (int64_t r = 0; r < options.repeat; ++r) {
    for (const std::string& line : corpus) {
      runs[global % clients].lines.push_back(line);
      ++global;
    }
  }
  if (options.ids) {
    for (size_t c = 0; c < clients; ++c) {
      ClientRun& run = runs[c];
      for (size_t k = 0; k < run.lines.size(); ++k) {
        // Built by appending: GCC 12 at -O2 raises a false -Wrestrict on
        // the `"c" + std::to_string(...)` chain.
        std::string id = "c";
        id += std::to_string(c);
        id += 'x';
        id += std::to_string(k);
        const size_t brace = run.lines[k].rfind('}');
        if (brace != std::string::npos) {
          run.lines[k].insert(brace, ", \"id\": \"" + id + "\"");
        }
        run.ids.push_back(std::move(id));
      }
    }
  }

  LoadResult result;
  result.lines = static_cast<int64_t>(global);
  const int64_t start_us = Clock::SteadyNowUs();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (ClientRun& run : runs) {
    threads.emplace_back([&options, &run] { RunClient(options, &run); });
  }
  for (std::thread& t : threads) t.join();
  result.wall_us = Clock::SteadyNowUs() - start_us;

  std::vector<int64_t> latencies;
  for (size_t c = 0; c < clients; ++c) {
    if (!runs[c].error.empty()) {
      result.client_errors.push_back("client " + std::to_string(c) + ": " +
                                     runs[c].error);
    }
    for (LoadReply& reply : runs[c].replies) {
      reply.error = reply.response.find("\"error\"") != std::string::npos;
      if (reply.error) ++result.errors;
      if (options.ids &&
          reply.response.find("\"id\":\"" + reply.id + "\"") ==
              std::string::npos) {
        ++result.id_mismatches;
      }
      latencies.push_back(reply.latency_us);
    }
  }
  result.responses = static_cast<int64_t>(latencies.size());
  result.p50_us = PercentileOfSamples(latencies, 0.50);
  result.p95_us = PercentileOfSamples(std::move(latencies), 0.95);

  // Global line g was client g % clients's next line.
  if (result.client_errors.empty()) {
    result.replies.reserve(global);
    std::vector<size_t> cursor(clients, 0);
    for (size_t g = 0; g < global; ++g) {
      ClientRun& run = runs[g % clients];
      result.replies.push_back(std::move(run.replies[cursor[g % clients]++]));
    }
  }
  return result;
}

}  // namespace pebblejoin
