// pebblejoin_loadgen — loopback load generator for `pebblejoin serve`.
//
// Replays a JSONL request corpus against a running server from N
// concurrent clients, each on its own TCP connection with a bounded
// pipelining window, and verifies the core serving contract: every
// non-blank line sent receives exactly one response line, in order, per
// connection. Responses can be captured with --out, reassembled into the
// original corpus order (the round-robin split is deterministic, and
// per-connection ordering is guaranteed by the server), which is what the
// CI smoke job diffs against `pebblejoin batch` output via
// tools/json_normalize.py.
//
//   pebblejoin_loadgen --port P --jsonl REQS.jsonl [--host H]
//                      [--clients N] [--window W] [--repeat R]
//                      [--out FILE] [--timeout-ms N] [--ids]
//                      [--latency-out FILE]
//
// --ids stamps every outgoing line with a client-chosen correlation id
// ("c<client>x<k>", spliced into the request object as its "id" key) and
// verifies each response echoes the id its line was sent with — the
// client-side half of the serve id round-trip. Any echo mismatch fails
// the run. --latency-out writes one JSONL record per request, in corpus
// order: {"id":...,"latency_ms":N,"error":bool}.
//
// Exit code 0 iff every client connected, sent its share, received
// every response inside --timeout-ms, and (under --ids) every id echoed
// correctly. A latency summary (p50/p95 per line, measured
// enqueue-to-response) prints on stderr.
//
// Keep --window at or below the server's --per-conn-inflight: the server
// sheds lines beyond that cap with rejection records (by design), which
// this tool counts as errors.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "util/clock.h"

namespace {

int64_t NowMs() { return pebblejoin::NowMs(nullptr); }

bool ParseI64(const char* token, int64_t* out) {
  if (token == nullptr || *token == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(token, &end, 10);
  if (errno == ERANGE || end == token || *end != '\0') return false;
  *out = value;
  return true;
}

int64_t Percentile(std::vector<int64_t> samples, double q) {
  if (samples.empty()) return -1;
  std::sort(samples.begin(), samples.end());
  const size_t rank = static_cast<size_t>(q * (samples.size() - 1) + 0.5);
  return samples[std::min(rank, samples.size() - 1)];
}

struct ClientResult {
  bool ok = false;
  std::string error;
  std::vector<std::string> responses;   // per-connection order
  std::vector<int64_t> latencies_ms;    // enqueue-to-response
  std::vector<uint8_t> response_errors; // 1 iff that response carried "error"
  int64_t errors = 0;                   // responses carrying "error"
  int64_t id_mismatches = 0;            // responses missing their sent id
};

// One client: nonblocking socket, window-bounded pipelining, poll loop.
// `ids` (nullable) holds the correlation id sent with each line, in line
// order; responses are verified against it positionally — the server
// guarantees per-connection ordering, so response k must echo ids[k].
void RunClient(const std::string& host, int port,
               const std::vector<std::string>* lines,
               const std::vector<std::string>* ids, int window,
               int64_t timeout_ms, ClientResult* result) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    result->error = std::string("socket: ") + std::strerror(errno);
    return;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0) {
    result->error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);

  const size_t total = lines->size();
  size_t enqueued = 0;   // lines moved into the outbox
  size_t received = 0;   // response lines consumed
  std::string outbox;
  size_t outbox_off = 0;
  std::string inbox;
  std::deque<int64_t> send_times_ms;
  const int64_t deadline_ms = NowMs() + timeout_ms;

  while (received < total) {
    const int64_t now_ms = NowMs();
    if (now_ms >= deadline_ms) {
      result->error = "timed out waiting for responses (" +
                      std::to_string(received) + "/" +
                      std::to_string(total) + ")";
      ::close(fd);
      return;
    }
    // Top up the pipeline window.
    while (enqueued < total &&
           enqueued - received < static_cast<size_t>(window)) {
      outbox += (*lines)[enqueued];
      outbox += '\n';
      send_times_ms.push_back(now_ms);
      ++enqueued;
    }

    pollfd pfd;
    pfd.fd = fd;
    pfd.events =
        static_cast<short>(POLLIN | (outbox_off < outbox.size() ? POLLOUT : 0));
    pfd.revents = 0;
    const int64_t wait_ms = std::min<int64_t>(deadline_ms - now_ms, 50);
    ::poll(&pfd, 1, static_cast<int>(wait_ms));

    if ((pfd.revents & POLLOUT) != 0 && outbox_off < outbox.size()) {
      const ssize_t n =
          ::write(fd, outbox.data() + outbox_off, outbox.size() - outbox_off);
      if (n > 0) {
        outbox_off += static_cast<size_t>(n);
        if (outbox_off >= outbox.size()) {
          outbox.clear();
          outbox_off = 0;
        }
      } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                 errno != EINTR) {
        result->error = std::string("write: ") + std::strerror(errno);
        ::close(fd);
        return;
      }
    }
    if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      char buf[4096];
      for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n > 0) {
          inbox.append(buf, static_cast<size_t>(n));
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        if (n == 0) {
          result->error = "server closed the connection early (" +
                          std::to_string(received) + "/" +
                          std::to_string(total) + ")";
        } else {
          result->error = std::string("read: ") + std::strerror(errno);
        }
        ::close(fd);
        return;
      }
      // Consume complete response lines.
      size_t start = 0;
      for (;;) {
        const size_t nl = inbox.find('\n', start);
        if (nl == std::string::npos) break;
        std::string line = inbox.substr(start, nl - start);
        start = nl + 1;
        result->latencies_ms.push_back(NowMs() - send_times_ms.front());
        send_times_ms.pop_front();
        if (ids != nullptr) {
          const std::string needle = "\"id\":\"" + (*ids)[received] + "\"";
          if (line.find(needle) == std::string::npos) ++result->id_mismatches;
        }
        const bool is_error =
            line.find("\"error\"") != std::string::npos;
        if (is_error) ++result->errors;
        result->response_errors.push_back(is_error ? 1 : 0);
        result->responses.push_back(std::move(line));
        ++received;
      }
      inbox.erase(0, start);
    }
  }
  ::close(fd);
  result->ok = true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int64_t port = -1;
  std::string jsonl_path;
  std::string out_path;
  int64_t clients = 4;
  int64_t window = 4;
  int64_t repeat = 1;
  int64_t timeout_ms = 60000;
  bool use_ids = false;
  std::string latency_out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    auto need_i64 = [&](int64_t* out, int64_t lo, int64_t hi) {
      if (!ParseI64(value, out) || *out < lo || *out > hi) {
        std::fprintf(stderr, "error: %s needs an integer in [%lld, %lld]\n",
                     flag.c_str(), static_cast<long long>(lo),
                     static_cast<long long>(hi));
        return false;
      }
      ++i;
      return true;
    };
    if (flag == "--host" && value != nullptr) {
      host = value;
      ++i;
    } else if (flag == "--port") {
      if (!need_i64(&port, 1, 65535)) return 2;
    } else if (flag == "--jsonl" && value != nullptr) {
      jsonl_path = value;
      ++i;
    } else if (flag == "--out" && value != nullptr) {
      out_path = value;
      ++i;
    } else if (flag == "--clients") {
      if (!need_i64(&clients, 1, 1024)) return 2;
    } else if (flag == "--window") {
      if (!need_i64(&window, 1, 1024)) return 2;
    } else if (flag == "--repeat") {
      if (!need_i64(&repeat, 1, 100000)) return 2;
    } else if (flag == "--timeout-ms") {
      if (!need_i64(&timeout_ms, 1, int64_t{1} << 40)) return 2;
    } else if (flag == "--ids") {
      use_ids = true;
    } else if (flag == "--latency-out" && value != nullptr) {
      latency_out_path = value;
      ++i;
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", flag.c_str());
      return 2;
    }
  }
  if (port < 0 || jsonl_path.empty()) {
    std::fprintf(stderr,
                 "usage: pebblejoin_loadgen --port P --jsonl REQS.jsonl "
                 "[--host H] [--clients N] [--window W] [--repeat R] "
                 "[--out FILE] [--timeout-ms N] [--ids] "
                 "[--latency-out FILE]\n");
    return 2;
  }

  std::ifstream in(jsonl_path);
  if (!in.is_open()) {
    std::fprintf(stderr, "error: cannot open '%s'\n", jsonl_path.c_str());
    return 66;
  }
  std::vector<std::string> corpus;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    corpus.push_back(line);
  }
  if (corpus.empty()) {
    std::fprintf(stderr, "error: no non-blank lines in '%s'\n",
                 jsonl_path.c_str());
    return 1;
  }

  // Deterministic round-robin split over the repeated corpus: global line
  // g goes to client g % clients — invertible, so --out can reassemble
  // the original order from the per-connection streams.
  const size_t n_clients = static_cast<size_t>(clients);
  std::vector<std::vector<std::string>> shares(n_clients);
  size_t global = 0;
  for (int64_t r = 0; r < repeat; ++r) {
    for (const std::string& l : corpus) {
      shares[global % n_clients].push_back(l);
      ++global;
    }
  }

  // --ids: stamp each outgoing line with a client-unique correlation id
  // spliced before the object's closing brace. Malformed lines (no brace)
  // are sent untouched — the server answers them with a parse error and
  // the positional check flags the missing echo.
  std::vector<std::vector<std::string>> ids(n_clients);
  if (use_ids) {
    for (size_t c = 0; c < n_clients; ++c) {
      ids[c].reserve(shares[c].size());
      for (size_t k = 0; k < shares[c].size(); ++k) {
        const std::string id =
            "c" + std::to_string(c) + "x" + std::to_string(k);
        ids[c].push_back(id);
        const size_t brace = shares[c][k].rfind('}');
        if (brace != std::string::npos) {
          shares[c][k].insert(brace, ", \"id\": \"" + id + "\"");
        }
      }
    }
  }

  const int64_t start_ms = NowMs();
  std::vector<ClientResult> results(n_clients);
  std::vector<std::thread> threads;
  threads.reserve(n_clients);
  for (size_t c = 0; c < n_clients; ++c) {
    threads.emplace_back(RunClient, host, static_cast<int>(port), &shares[c],
                         use_ids ? &ids[c] : nullptr, static_cast<int>(window),
                         timeout_ms, &results[c]);
  }
  for (std::thread& t : threads) t.join();
  const int64_t wall_ms = NowMs() - start_ms;

  bool ok = true;
  int64_t responses = 0;
  int64_t errors = 0;
  int64_t id_mismatches = 0;
  std::vector<int64_t> latencies;
  for (size_t c = 0; c < n_clients; ++c) {
    if (!results[c].ok) {
      std::fprintf(stderr, "error: client %zu: %s\n", c,
                   results[c].error.c_str());
      ok = false;
    }
    responses += static_cast<int64_t>(results[c].responses.size());
    errors += results[c].errors;
    id_mismatches += results[c].id_mismatches;
    latencies.insert(latencies.end(), results[c].latencies_ms.begin(),
                     results[c].latencies_ms.end());
  }
  if (id_mismatches > 0) {
    std::fprintf(stderr,
                 "error: %lld responses did not echo the id they were "
                 "sent with\n",
                 static_cast<long long>(id_mismatches));
    ok = false;
  }

  if (ok && !out_path.empty()) {
    std::ofstream out(out_path);
    if (!out.is_open()) {
      std::fprintf(stderr, "error: cannot open '%s'\n", out_path.c_str());
      return 1;
    }
    std::vector<size_t> cursor(n_clients, 0);
    for (size_t g = 0; g < global; ++g) {
      const size_t c = g % n_clients;
      out << results[c].responses[cursor[c]++] << '\n';
    }
    if (!out.good()) {
      std::fprintf(stderr, "error: writing '%s' failed\n", out_path.c_str());
      return 1;
    }
  }

  // Per-request latency records, reassembled into corpus order exactly
  // like --out (global line g was client g % n_clients's next line).
  if (ok && !latency_out_path.empty()) {
    std::ofstream lat_out(latency_out_path);
    if (!lat_out.is_open()) {
      std::fprintf(stderr, "error: cannot open '%s'\n",
                   latency_out_path.c_str());
      return 1;
    }
    std::vector<size_t> cursor(n_clients, 0);
    for (size_t g = 0; g < global; ++g) {
      const size_t c = g % n_clients;
      const size_t k = cursor[c]++;
      lat_out << "{";
      if (use_ids) lat_out << "\"id\":\"" << ids[c][k] << "\",";
      lat_out << "\"latency_ms\":" << results[c].latencies_ms[k]
              << ",\"error\":"
              << (results[c].response_errors[k] != 0 ? "true" : "false")
              << "}\n";
    }
    if (!lat_out.good()) {
      std::fprintf(stderr, "error: writing '%s' failed\n",
                   latency_out_path.c_str());
      return 1;
    }
  }

  std::fprintf(stderr,
               "loadgen: %lld clients, %zu lines, %lld responses, %lld "
               "errors, %lld id mismatches, p50=%lldms p95=%lldms, "
               "wall=%lldms\n",
               static_cast<long long>(clients), global,
               static_cast<long long>(responses),
               static_cast<long long>(errors),
               static_cast<long long>(id_mismatches),
               static_cast<long long>(Percentile(latencies, 0.50)),
               static_cast<long long>(Percentile(latencies, 0.95)),
               static_cast<long long>(wall_ms));
  return ok ? 0 : 1;
}
