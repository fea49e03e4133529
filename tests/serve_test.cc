// LineServer torture tests: loopback round-trips byte-identical to the
// single-shot engine, admission shedding (per-connection cap, server-wide
// cap, connection cap), the fault-injection matrix (accept failures,
// mid-request disconnects, short writes, broken pipes, stalled writers,
// oversized lines), fake-clock timeouts, and graceful drain under
// concurrent multi-client load. Runs under ThreadSanitizer in CI — the
// concurrency claims in serve/ are checked here, not argued.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include <fstream>

#include "core/report.h"
#include "engine/batch_runner.h"
#include "engine/solve_engine.h"
#include "serve/request_router.h"
#include "graph/bipartite_graph.h"
#include "graph/generators.h"
#include "io/graph_io.h"
#include "obs/json.h"
#include "serve/fault_injector.h"
#include "serve/line_server.h"
#include "serve/loopback_client.h"
#include "serve/serve_options.h"
#include "util/clock.h"
#include "util/ordered_window.h"

#include "json_test_util.h"

namespace pebblejoin {
namespace {

// One corpus line: {"graph": "<serialized>"<extra>} — the wire format.
std::string Line(const BipartiteGraph& g, const std::string& extra = "") {
  return "{\"graph\": \"" + JsonEscape(SerializeBipartiteGraph(g)) + "\"" +
         extra + "}";
}

// Fast-tick defaults for tests: ephemeral port, 5 ms event-loop tick.
ServeOptions TestOptions(FaultInjector* injector = nullptr) {
  ServeOptions options;
  options.port = 0;
  options.poll_tick_ms = 5;
  options.injector = injector;
  return options;
}

// A blocking loopback client with poll-based timeouts. Every operation is
// tolerant of the server closing first (that is often the point).
class TestClient {
 public:
  explicit TestClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~TestClient() { Close(); }

  bool connected() const { return fd_ >= 0; }

  // Writes all of `data`; false on any error (EPIPE included).
  bool Send(const std::string& data) {
    size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    return true;
  }

  // Reads one '\n'-terminated line (newline stripped). False on EOF, read
  // error, or timeout; `eof()` distinguishes a clean close afterwards.
  bool ReadLine(std::string* line, int timeout_ms = 20000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const size_t nl = inbox_.find('\n');
      if (nl != std::string::npos) {
        *line = inbox_.substr(0, nl);
        inbox_.erase(0, nl + 1);
        return true;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return false;
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
      char buf[4096];
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n > 0) {
        inbox_.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      eof_ = true;  // closed or reset; either way the server is done with us
      return false;
    }
  }

  // Drains the socket until EOF (or timeout); returns everything read.
  std::string ReadAll(int timeout_ms = 20000) {
    std::string all = inbox_;
    inbox_.clear();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (!eof_) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) break;
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
      char buf[4096];
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n > 0) {
        all.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      eof_ = true;
    }
    return all;
  }

  // True when no byte arrives within `window_ms` — the exactly-one-response
  // check's other half.
  bool NoDataFor(int window_ms) {
    if (!inbox_.empty()) return false;
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, window_ms) <= 0) return true;
    char buf[1];
    return ::recv(fd_, buf, 1, MSG_PEEK) <= 0 && eof_;
  }

  // Waits (bounded) for the server to close its side.
  bool WaitForEof(int timeout_ms = 20000) {
    std::string rest = ReadAll(timeout_ms);
    return eof_;
  }

  bool eof() const { return eof_; }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string inbox_;
  bool eof_ = false;
};

// Starts a server or fails the test.
#define START_SERVER(server)                      \
  do {                                            \
    std::string start_error;                      \
    ASSERT_TRUE((server).Start(&start_error)) << start_error; \
  } while (0)

TEST(ServeTest, RoundTripMatchesSingleShotEngineOutput) {
  const std::vector<BipartiteGraph> graphs = {
      WorstCaseFamily(5), CompleteBipartite(3, 3),
      RandomConnectedBipartite(5, 5, 12, /*seed=*/4)};

  SolveEngine engine;
  ServeOptions options = TestOptions();
  options.threads = 2;
  LineServer server(&engine, options);
  START_SERVER(server);

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  std::string request;
  for (const BipartiteGraph& g : graphs) request += Line(g) + "\n";
  ASSERT_TRUE(client.Send(request));

  for (size_t i = 0; i < graphs.size(); ++i) {
    std::string response;
    ASSERT_TRUE(client.ReadLine(&response)) << "response " << i;
    SolveEngine fresh;
    SolveRequest single;
    single.graph = &graphs[i];
    EXPECT_EQ(NormalizeTimings(response),
              NormalizeTimings(AnalysisJson(fresh.Solve(single).analysis)))
        << "line " << i;
  }
  // Exactly one response per line: nothing extra shows up.
  EXPECT_TRUE(client.NoDataFor(100));

  client.Close();
  server.BeginDrain();
  const LineServer::Summary summary = server.Wait();
  EXPECT_EQ(summary.connections, 1);
  EXPECT_EQ(summary.lines, 3);
  EXPECT_EQ(summary.responses, 3);
  EXPECT_EQ(summary.rejected_lines, 0);
  EXPECT_FALSE(summary.aborted);
}

// The one loopback client (`pebblejoin loadgen`, bench_serve): two
// pipelined clients with ids on. The replies come back in corpus order,
// each echoing the id it was sent with and otherwise identical to the
// single-shot engine's answer for its line's graph.
TEST(LoopbackClientTest, TwoClientsReturnCorpusOrderAndEchoEveryId) {
  std::vector<BipartiteGraph> graphs;
  std::vector<std::string> corpus;
  for (int n = 3; n < 13; ++n) {  // distinct sizes: a swap cannot pass
    graphs.push_back(WorstCaseFamily(n));
    corpus.push_back(Line(graphs.back()));
  }
  SolveEngine engine;
  ServeOptions options = TestOptions();
  options.threads = 2;
  LineServer server(&engine, options);
  START_SERVER(server);

  LoadOptions load;
  load.port = server.port();
  load.clients = 2;
  load.window = 4;
  load.ids = true;
  const LoadResult result = RunLoad(corpus, load);
  ASSERT_TRUE(result.client_errors.empty()) << result.client_errors[0];
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.lines, 10);
  EXPECT_EQ(result.responses, 10);
  EXPECT_EQ(result.errors, 0);
  EXPECT_EQ(result.id_mismatches, 0);
  ASSERT_EQ(result.replies.size(), corpus.size());
  for (size_t g = 0; g < corpus.size(); ++g) {
    // Line g was client g % 2's (g / 2)-th line.
    std::string id = "c";
    id += std::to_string(g % 2);
    id += 'x';
    id += std::to_string(g / 2);
    const LoadReply& reply = result.replies[g];
    EXPECT_EQ(reply.id, id);
    const std::string lead = "{\"id\":\"" + id + "\",";
    ASSERT_EQ(reply.response.rfind(lead, 0), 0u) << reply.response;
    std::string unstamped = "{";
    unstamped.append(reply.response, lead.size());
    SolveEngine fresh;
    SolveRequest single;
    single.graph = &graphs[g];
    EXPECT_EQ(NormalizeTimings(unstamped),
              NormalizeTimings(AnalysisJson(fresh.Solve(single).analysis)))
        << "line " << g;
  }

  server.BeginDrain();
  const LineServer::Summary summary = server.Wait();
  EXPECT_EQ(summary.connections, 2);
  EXPECT_EQ(summary.responses, 10);
}

// A server that never answers: the client gives up at its timeout with
// an error instead of hanging.
TEST(LoopbackClientTest, SilentServerTimesOutInsteadOfHanging) {
  // Nobody accepts on this socket, but the kernel completes the
  // handshake, so the client connects and sends and no response comes.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr), len),
            0);
  ASSERT_EQ(::listen(listen_fd, 4), 0);
  ASSERT_EQ(
      ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  LoadOptions load;
  load.port = ntohs(addr.sin_port);
  load.timeout_ms = 200;
  const int64_t start_us = Clock::SteadyNowUs();
  const LoadResult result = RunLoad({Line(WorstCaseFamily(3))}, load);
  const int64_t elapsed_ms = (Clock::SteadyNowUs() - start_us) / 1000;
  ::close(listen_fd);

  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.client_errors.size(), 1u);
  EXPECT_NE(result.client_errors[0].find("timed out waiting for responses"),
            std::string::npos)
      << result.client_errors[0];
  EXPECT_EQ(result.responses, 0);
  EXPECT_TRUE(result.replies.empty());
  EXPECT_GE(elapsed_ms, 200);
  EXPECT_LT(elapsed_ms, 10000);
}

TEST(ServeTest, BlankAndMalformedLinesFollowBatchSemantics) {
  SolveEngine engine;
  LineServer server(&engine, TestOptions());
  START_SERVER(server);

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  // Blank line 1 keeps its number and produces no response; malformed
  // line 2 gets an error record; line 3 solves.
  ASSERT_TRUE(client.Send("   \nnot json\n" + Line(WorstCaseFamily(4)) + "\n"));

  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_NE(response.find("\"line\":2"), std::string::npos) << response;
  EXPECT_NE(response.find("\"error\""), std::string::npos) << response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_NE(response.find("\"winner\""), std::string::npos) << response;

  client.Close();
  server.BeginDrain();
  const LineServer::Summary summary = server.Wait();
  EXPECT_EQ(summary.lines, 3);
  EXPECT_EQ(summary.responses, 2);
}

TEST(ServeTest, LineNumbersCountLinesOnTheirOwnStream) {
  // "line" counts lines, blank ones included, on the stream that sent
  // them: one connection carrying the whole corpus gets batch's records
  // byte for byte (timings aside), and a connection carrying the tail of
  // the corpus numbers its lines from 1.
  const std::vector<std::string> corpus = {
      Line(WorstCaseFamily(4)), "", "not json",
      Line(CompleteBipartite(2, 3)), "{\"graph\": \"garbage text\"}"};
  std::string all;
  for (const std::string& line : corpus) all += line + "\n";

  SolveEngine batch_engine;
  BatchRunner runner(&batch_engine, BatchRunner::Options());
  std::istringstream batch_in(all);
  std::ostringstream batch_out;
  runner.Run(batch_in, batch_out);
  std::vector<std::string> batch;
  std::istringstream batch_lines(batch_out.str());
  for (std::string line; std::getline(batch_lines, line);) {
    batch.push_back(line);
  }
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_NE(batch[1].find("{\"line\":3,\"error\":"), std::string::npos)
      << batch[1];

  SolveEngine engine;
  LineServer server(&engine, TestOptions());
  START_SERVER(server);
  {
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.Send(all));
    for (const std::string& expected : batch) {
      std::string response;
      ASSERT_TRUE(client.ReadLine(&response));
      EXPECT_EQ(NormalizeTimings(response), NormalizeTimings(expected));
      if (expected.rfind("{\"line\":", 0) == 0) {
        EXPECT_EQ(response, expected);  // error records carry no timings
      }
    }
  }
  {
    // Lines 1-2 of the corpus on one connection, lines 3-5 on another:
    // "not json" is line 1 of the second stream.
    TestClient head(server.port());
    TestClient tail(server.port());
    ASSERT_TRUE(head.connected() && tail.connected());
    ASSERT_TRUE(head.Send(corpus[0] + "\n" + corpus[1] + "\n"));
    ASSERT_TRUE(
        tail.Send(corpus[2] + "\n" + corpus[3] + "\n" + corpus[4] + "\n"));
    std::string response;
    ASSERT_TRUE(head.ReadLine(&response));
    EXPECT_EQ(NormalizeTimings(response), NormalizeTimings(batch[0]));
    ASSERT_TRUE(tail.ReadLine(&response));
    EXPECT_EQ(response.rfind("{\"line\":1,\"error\":", 0), 0u) << response;
    ASSERT_TRUE(tail.ReadLine(&response));
    EXPECT_EQ(NormalizeTimings(response), NormalizeTimings(batch[2]));
    ASSERT_TRUE(tail.ReadLine(&response));
    EXPECT_EQ(response.rfind("{\"line\":3,\"error\":", 0), 0u) << response;
  }
  server.BeginDrain();
  const LineServer::Summary summary = server.Wait();
  EXPECT_EQ(summary.responses, 8);
}

TEST(ServeTest, OversizedLineIsShedWithAStructuredError) {
  SolveEngine engine;
  ServeOptions options = TestOptions();
  options.max_line_bytes = 128;
  LineServer server(&engine, options);
  START_SERVER(server);

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  const std::string oversized(300, 'x');
  ASSERT_TRUE(client.Send(oversized + "\n" + Line(WorstCaseFamily(4)) + "\n"));

  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_NE(response.find("\"line\":1"), std::string::npos) << response;
  EXPECT_NE(response.find("rejected: line exceeds 128 bytes"),
            std::string::npos)
      << response;
  // The connection survives the babbling line; the next request solves.
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_NE(response.find("\"winner\""), std::string::npos) << response;

  client.Close();
  server.BeginDrain();
  const LineServer::Summary summary = server.Wait();
  EXPECT_EQ(summary.rejected_lines, 1);
}

// Parks `n` tasks on the engine's pool so admitted solves cannot complete
// until Release() — which makes the in-flight caps deterministic to hit.
// The destructor releases them and waits until they let go of the blocker.
class PoolBlocker {
 public:
  PoolBlocker(SolveEngine* engine, int n) : parked_(engine->EnsurePool(n)) {
    for (int i = 0; i < n; ++i) {
      parked_.Submit([this] {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return released_; });
        return true;
      });
    }
  }
  ~PoolBlocker() {
    Release();
    parked_.AwaitAll();
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool released_ = false;
  OrderedWindow<bool> parked_;
};

TEST(ServeTest, PerConnectionInflightCapShedsTheThirdPipelinedLine) {
  SolveEngine engine;
  PoolBlocker blocker(&engine, 2);  // both workers parked: solves queue

  ServeOptions options = TestOptions();
  options.threads = 2;
  options.per_conn_inflight = 2;
  LineServer server(&engine, options);
  START_SERVER(server);

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  const std::string line = Line(WorstCaseFamily(4));
  ASSERT_TRUE(client.Send(line + "\n" + line + "\n" + line + "\n"));

  // The rejection is deposited at its submission slot, so it arrives third
  // — after the two admitted solves complete.
  std::string response;
  const bool got_reject_early = client.ReadLine(&response, 500);
  EXPECT_FALSE(got_reject_early)
      << "no response should complete while the pool is parked: " << response;
  blocker.Release();

  EXPECT_TRUE(client.ReadLine(&response));
  EXPECT_NE(response.find("\"winner\""), std::string::npos) << response;
  EXPECT_TRUE(client.ReadLine(&response));
  EXPECT_NE(response.find("\"winner\""), std::string::npos) << response;
  EXPECT_TRUE(client.ReadLine(&response));
  EXPECT_NE(response.find("rejected: per-connection in-flight cap"),
            std::string::npos)
      << response;

  client.Close();
  server.BeginDrain();
  const LineServer::Summary summary = server.Wait();
  EXPECT_EQ(summary.lines, 3);
  EXPECT_EQ(summary.responses, 3);
  EXPECT_EQ(summary.rejected_lines, 1);
}

TEST(ServeTest, ServerWideInflightCapShedsWithTheOverloadReason) {
  SolveEngine engine;
  PoolBlocker blocker(&engine, 2);

  ServeOptions options = TestOptions();
  options.threads = 2;
  options.max_inflight = 1;
  options.per_conn_inflight = 8;
  LineServer server(&engine, options);
  START_SERVER(server);

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  const std::string line = Line(WorstCaseFamily(4));
  ASSERT_TRUE(client.Send(line + "\n" + line + "\n"));

  // Hold the pool until the server has read and judged both lines — only
  // then is the shed of line 2 deterministic. No response can complete
  // while the workers are parked.
  std::string response;
  EXPECT_FALSE(client.ReadLine(&response, 500)) << response;
  blocker.Release();

  EXPECT_TRUE(client.ReadLine(&response));
  EXPECT_NE(response.find("\"winner\""), std::string::npos) << response;
  EXPECT_TRUE(client.ReadLine(&response));
  EXPECT_NE(response.find("rejected: server overloaded"), std::string::npos)
      << response;

  client.Close();
  server.BeginDrain();
  server.Wait();
}

TEST(ServeTest, ConnectionCapShedsAtAcceptWithAStructuredError) {
  SolveEngine engine;
  ServeOptions options = TestOptions();
  options.max_connections = 1;
  LineServer server(&engine, options);
  START_SERVER(server);

  TestClient first(server.port());
  ASSERT_TRUE(first.connected());
  // Round-trip one line so the first connection is definitely registered
  // before the second one knocks.
  ASSERT_TRUE(first.Send(Line(WorstCaseFamily(4)) + "\n"));
  std::string response;
  ASSERT_TRUE(first.ReadLine(&response));

  TestClient second(server.port());
  ASSERT_TRUE(second.connected());
  ASSERT_TRUE(second.ReadLine(&response));
  EXPECT_EQ(response, "{\"error\":\"rejected: too many connections\"}");
  EXPECT_TRUE(second.WaitForEof());

  first.Close();
  server.BeginDrain();
  const LineServer::Summary summary = server.Wait();
  EXPECT_EQ(summary.connections, 1);
  EXPECT_EQ(summary.conn_rejected, 1);
}

TEST(ServeTest, TransientAcceptFailuresAreSurvived) {
  SolveEngine engine;
  FaultInjector injector;
  injector.FailNextAccepts(2);
  LineServer server(&engine, TestOptions(&injector));
  START_SERVER(server);

  // The kernel completes our connect via the backlog; the server's accept
  // fails twice (ECONNABORTED) before the third attempt picks us up.
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(Line(WorstCaseFamily(4)) + "\n"));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_NE(response.find("\"winner\""), std::string::npos);
  EXPECT_EQ(injector.accepts_failed(), 2);

  client.Close();
  server.BeginDrain();
  const LineServer::Summary summary = server.Wait();
  EXPECT_EQ(summary.accept_failures, 2);
  EXPECT_EQ(summary.connections, 1);
}

TEST(ServeTest, MidRequestDisconnectIsContainedToThatConnection) {
  SolveEngine engine;
  FaultInjector injector;
  LineServer server(&engine, TestOptions(&injector));
  START_SERVER(server);

  // The injector cuts the stream 10 bytes into the request: the server
  // sees a partial line then EOF, closes that connection, and keeps
  // serving others.
  injector.DisconnectAfterReadBytes(10);
  TestClient victim(server.port());
  ASSERT_TRUE(victim.connected());
  ASSERT_TRUE(victim.Send(Line(WorstCaseFamily(4)) + "\n"));
  EXPECT_TRUE(victim.WaitForEof());
  EXPECT_GE(injector.disconnects_forced(), 1);

  injector.DisconnectAfterReadBytes(-1);  // disarm
  TestClient next(server.port());
  ASSERT_TRUE(next.connected());
  ASSERT_TRUE(next.Send(Line(WorstCaseFamily(4)) + "\n"));
  std::string response;
  ASSERT_TRUE(next.ReadLine(&response));
  EXPECT_NE(response.find("\"winner\""), std::string::npos);

  next.Close();
  server.BeginDrain();
  const LineServer::Summary summary = server.Wait();
  EXPECT_EQ(summary.connections, 2);
}

TEST(ServeTest, ShortWritesStillDeliverCompleteResponses) {
  SolveEngine engine;
  FaultInjector injector;
  injector.ShortWriteChunk(7);  // every write moves at most 7 bytes
  LineServer server(&engine, TestOptions(&injector));
  START_SERVER(server);

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(Line(WorstCaseFamily(5)) + "\n" +
                          Line(CompleteBipartite(3, 3)) + "\n"));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_NE(response.find("\"winner\""), std::string::npos);
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_NE(response.find("\"winner\""), std::string::npos);
  EXPECT_GT(injector.writes_shortened(), 0);

  client.Close();
  server.BeginDrain();
  server.Wait();
}

TEST(ServeTest, BrokenPipeClosesOnlyThatConnection) {
  SolveEngine engine;
  FaultInjector injector;
  LineServer server(&engine, TestOptions(&injector));
  START_SERVER(server);

  injector.FailNextWrites(1);  // the victim's first response write EPIPEs
  TestClient victim(server.port());
  ASSERT_TRUE(victim.connected());
  ASSERT_TRUE(victim.Send(Line(WorstCaseFamily(4)) + "\n"));
  EXPECT_TRUE(victim.WaitForEof());
  EXPECT_EQ(injector.writes_failed(), 1);

  TestClient next(server.port());
  ASSERT_TRUE(next.connected());
  ASSERT_TRUE(next.Send(Line(WorstCaseFamily(4)) + "\n"));
  std::string response;
  ASSERT_TRUE(next.ReadLine(&response));
  EXPECT_NE(response.find("\"winner\""), std::string::npos);

  next.Close();
  server.BeginDrain();
  server.Wait();
}

TEST(ServeTest, StalledWriterIsTimedOutNotWedgedOn) {
  SolveEngine engine;
  FaultInjector injector;
  FakeClock clock;
  ServeOptions options = TestOptions(&injector);
  options.clock = &clock;
  options.idle_timeout_ms = -1;  // isolate the write-stall path
  options.write_stall_timeout_ms = 50;
  LineServer server(&engine, options);
  START_SERVER(server);

  injector.StallWrites(true);  // the client "stops reading": EAGAIN forever
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(Line(WorstCaseFamily(4)) + "\n"));
  // Give the solve real time to finish and the flush to hit the stall,
  // then advance the fake clock past the stall budget.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  clock.AdvanceMs(10000);

  EXPECT_TRUE(client.WaitForEof())
      << "a stalled writer must be closed, not waited on";
  injector.StallWrites(false);

  server.BeginDrain();
  const LineServer::Summary summary = server.Wait();
  EXPECT_EQ(summary.connections, 1);
}

TEST(ServeTest, IdleConnectionIsTimedOutUnderAFakeClock) {
  SolveEngine engine;
  FakeClock clock;
  ServeOptions options = TestOptions();
  options.clock = &clock;
  options.idle_timeout_ms = 100;
  LineServer server(&engine, options);
  START_SERVER(server);

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  clock.AdvanceMs(10000);
  EXPECT_TRUE(client.WaitForEof());

  server.BeginDrain();
  const LineServer::Summary summary = server.Wait();
  EXPECT_EQ(summary.connections, 1);
  EXPECT_EQ(summary.lines, 0);
}

TEST(ServeTest, RequestWallClockIsMicrosecondsNotTheMillisecondClock) {
  // The injected server clock advances 1 us per read, so the request's two
  // reads sit a few microseconds apart: a wall time measured in
  // microseconds is small but positive, while one measured on a
  // millisecond clock would be 0 or a multiple of 1000.
  class MicrosecondTickClock : public Clock {
   public:
    int64_t NowUs() const override { return next_us_.fetch_add(1) + 1; }

   private:
    mutable std::atomic<int64_t> next_us_{0};
  };
  SolveEngine engine;
  MicrosecondTickClock clock;
  ServeOptions options = TestOptions();
  options.clock = &clock;
  LineServer server(&engine, options);
  START_SERVER(server);

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(Line(WorstCaseFamily(30)) + "\n"));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  client.Close();

  const Histogram wall =
      engine.metrics()->FindOrCreateHistogram("serve.request_wall_us");
  EXPECT_EQ(wall.Count(), 1);
  EXPECT_GT(wall.Sum(), 0);
  EXPECT_LT(wall.Sum(), 1000);

  server.BeginDrain();
  server.Wait();
}

TEST(ServeTest, MetricsEndpointSpeaksOpenMetricsAndCloses) {
  SolveEngine engine;
  LineServer server(&engine, TestOptions());
  START_SERVER(server);

  // Solve something first so the serve counters are non-zero.
  TestClient solver_client(server.port());
  ASSERT_TRUE(solver_client.connected());
  ASSERT_TRUE(solver_client.Send(Line(WorstCaseFamily(4)) + "\n"));
  std::string response;
  ASSERT_TRUE(solver_client.ReadLine(&response));
  solver_client.Close();

  TestClient scraper(server.port());
  ASSERT_TRUE(scraper.connected());
  ASSERT_TRUE(scraper.Send("GET /metrics HTTP/1.1\r\n\r\n"));
  const std::string reply = scraper.ReadAll();
  EXPECT_EQ(reply.rfind("HTTP/1.1 200 OK", 0), 0u) << reply.substr(0, 200);
  EXPECT_NE(reply.find("application/openmetrics-text"), std::string::npos);
  EXPECT_NE(reply.find("pebblejoin_serve_requests_total"), std::string::npos);
  EXPECT_NE(reply.find("# EOF"), std::string::npos);
  EXPECT_TRUE(scraper.eof()) << "HTTP responses close the connection";

  TestClient lost(server.port());
  ASSERT_TRUE(lost.connected());
  ASSERT_TRUE(lost.Send("GET /nope HTTP/1.1\r\n\r\n"));
  EXPECT_NE(lost.ReadAll().find("404"), std::string::npos);

  server.BeginDrain();
  server.Wait();
}

// The mini-HTTP hardening contract scrapers depend on: every response —
// 200 and 404 alike — carries a Content-Length that matches its body
// exactly and an explicit `Connection: close`, then actually closes.
TEST(ServeTest, HttpResponsesCarryExactContentLengthAndClose) {
  SolveEngine engine;
  LineServer server(&engine, TestOptions());
  START_SERVER(server);

  // reply -> (headers, body) split at the blank line; "" on malformed.
  const auto split = [](const std::string& reply) {
    const size_t blank = reply.find("\r\n\r\n");
    return blank == std::string::npos
               ? std::pair<std::string, std::string>("", "")
               : std::pair<std::string, std::string>(
                     reply.substr(0, blank + 2), reply.substr(blank + 4));
  };
  const auto content_length = [](const std::string& headers) {
    const size_t at = headers.find("Content-Length: ");
    if (at == std::string::npos) return int64_t{-1};
    return static_cast<int64_t>(
        std::strtoll(headers.c_str() + at + 16, nullptr, 10));
  };

  TestClient scraper(server.port());
  ASSERT_TRUE(scraper.connected());
  ASSERT_TRUE(scraper.Send("GET /metrics HTTP/1.1\r\n\r\n"));
  const auto [ok_headers, ok_body] = split(scraper.ReadAll());
  ASSERT_FALSE(ok_headers.empty());
  EXPECT_EQ(content_length(ok_headers),
            static_cast<int64_t>(ok_body.size()));
  EXPECT_NE(ok_headers.find("Connection: close\r\n"), std::string::npos);
  EXPECT_TRUE(scraper.eof());

  TestClient lost(server.port());
  ASSERT_TRUE(lost.connected());
  ASSERT_TRUE(lost.Send("GET /nope HTTP/1.1\r\n\r\n"));
  const auto [nf_headers, nf_body] = split(lost.ReadAll());
  ASSERT_FALSE(nf_headers.empty());
  EXPECT_EQ(nf_headers.rfind("HTTP/1.1 404 Not Found", 0), 0u)
      << nf_headers.substr(0, 200);
  EXPECT_EQ(content_length(nf_headers),
            static_cast<int64_t>(nf_body.size()));
  EXPECT_GT(nf_body.size(), 0u) << "404 must carry a diagnostic body";
  EXPECT_NE(nf_headers.find("Connection: close\r\n"), std::string::npos);
  EXPECT_TRUE(lost.eof());

  server.BeginDrain();
  server.Wait();
}

TEST(ServeTest, RequestIdIsEchoedOnlyWhenClientSupplied) {
  SolveEngine engine;
  LineServer server(&engine, TestOptions());
  START_SERVER(server);

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(Line(WorstCaseFamily(4), ", \"id\": \"req-42\"") +
                          "\n" + Line(WorstCaseFamily(4)) + "\n"));

  // The client-supplied id leads the response document; the id-less line's
  // response carries no "id" key at all (byte-identity with batch).
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(response.rfind("{\"id\":\"req-42\",", 0), 0u) << response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(response.find("\"id\""), std::string::npos) << response;
  EXPECT_NE(response.find("\"winner\""), std::string::npos) << response;

  client.Close();
  server.BeginDrain();
  server.Wait();
}

TEST(ServeTest, ReadyzReports503WhileDraining) {
  SolveEngine engine;
  ServeOptions options;
  RequestRouter router(&engine, options, /*start_ms=*/0);

  std::string reply = router.HttpResponse("GET /readyz HTTP/1.1", 0);
  EXPECT_EQ(reply.rfind("HTTP/1.1 200 OK", 0), 0u) << reply.substr(0, 200);
  EXPECT_NE(reply.find("ready"), std::string::npos);

  router.BeginDrain(0);
  reply = router.HttpResponse("GET /readyz HTTP/1.1", 0);
  EXPECT_EQ(reply.rfind("HTTP/1.1 503 Service Unavailable", 0), 0u)
      << reply.substr(0, 200);
  EXPECT_NE(reply.find("draining"), std::string::npos);
  // Liveness is unaffected: a draining process is still alive.
  reply = router.HttpResponse("GET /healthz HTTP/1.1", 0);
  EXPECT_EQ(reply.rfind("HTTP/1.1 200 OK", 0), 0u) << reply.substr(0, 200);
}

TEST(ServeTest, ReadyzReports503AtTheInflightCeiling) {
  SolveEngine engine;
  ServeOptions options;
  options.max_inflight = 1;
  RequestRouter router(&engine, options, /*start_ms=*/0);

  std::string denied;
  ASSERT_TRUE(router.AdmitSolve(/*conn_id=*/1, &denied)) << denied;
  std::string reply = router.HttpResponse("GET /readyz HTTP/1.1", 0);
  EXPECT_EQ(reply.rfind("HTTP/1.1 503 Service Unavailable", 0), 0u)
      << reply.substr(0, 200);
  EXPECT_NE(reply.find("saturated"), std::string::npos);

  router.ReleaseSolve(/*conn_id=*/1);
  reply = router.HttpResponse("GET /readyz HTTP/1.1", 0);
  EXPECT_EQ(reply.rfind("HTTP/1.1 200 OK", 0), 0u) << reply.substr(0, 200);
}

TEST(ServeTest, StatuszReportsWindowSloAndSlowRequests) {
  SolveEngine engine;
  ServeOptions options = TestOptions();
  options.slo_p99_ms = 1000;
  options.slo_error_rate = 0.1;
  LineServer server(&engine, options);
  START_SERVER(server);

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(
      client.Send(Line(WorstCaseFamily(4), ", \"id\": \"slowest-1\"") + "\n"));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  client.Close();

  TestClient scraper(server.port());
  ASSERT_TRUE(scraper.connected());
  ASSERT_TRUE(scraper.Send("GET /statusz HTTP/1.1\r\n\r\n"));
  const std::string reply = scraper.ReadAll();
  EXPECT_EQ(reply.rfind("HTTP/1.1 200 OK", 0), 0u) << reply.substr(0, 200);
  EXPECT_NE(reply.find("application/json"), std::string::npos);
  EXPECT_NE(reply.find("\"build\""), std::string::npos);
  EXPECT_NE(reply.find("\"uptime_ms\""), std::string::npos);
  EXPECT_NE(reply.find("\"window\""), std::string::npos);
  EXPECT_NE(reply.find("\"qps\""), std::string::npos);
  EXPECT_NE(reply.find("\"slo\""), std::string::npos);
  EXPECT_NE(reply.find("\"p99_burn\""), std::string::npos);
  // The completed request surfaces in the slow-request table by its
  // correlation id, with solver provenance attached.
  EXPECT_NE(reply.find("\"slow_requests\""), std::string::npos);
  EXPECT_NE(reply.find("\"slowest-1\""), std::string::npos);
  EXPECT_NE(reply.find("\"solvers\""), std::string::npos);

  server.BeginDrain();
  server.Wait();
}

TEST(ServeTest, TraceSampleWritesAChromeTracePerSampledRequest) {
  SolveEngine engine;
  ServeOptions options = TestOptions();
  options.trace_sample = 1;  // sample every request
  options.trace_dir = ::testing::TempDir();
  LineServer server(&engine, options);
  START_SERVER(server);

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(
      client.Send(Line(WorstCaseFamily(4), ", \"id\": \"t1\"") + "\n"));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(response.rfind("{\"id\":\"t1\",", 0), 0u) << response;

  // The trace file is written asynchronously (off the solve path); drain
  // flushes the writer, so after Wait() the file must exist, named by the
  // request's correlation id and carrying the correlate instant.
  client.Close();
  server.BeginDrain();
  server.Wait();

  std::ifstream trace(options.trace_dir + "/trace-t1.json");
  ASSERT_TRUE(trace.is_open());
  std::string trace_body((std::istreambuf_iterator<char>(trace)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(trace_body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_body.find("\"t1\""), std::string::npos);
}

TEST(ServeTest, AbortStopsTheServerImmediately) {
  SolveEngine engine;
  LineServer server(&engine, TestOptions());
  START_SERVER(server);

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  server.Abort();
  EXPECT_TRUE(client.WaitForEof());
  const LineServer::Summary summary = server.Wait();
  EXPECT_TRUE(summary.aborted);
}

TEST(ServeTest, DrainWithNoConnectionsExitsImmediately) {
  SolveEngine engine;
  LineServer server(&engine, TestOptions());
  START_SERVER(server);
  server.BeginDrain();
  const LineServer::Summary summary = server.Wait();
  EXPECT_EQ(summary.connections, 0);
  EXPECT_FALSE(summary.aborted);
}

// The drain torture: many concurrent pipelining clients, short writes
// armed, one babbling client, one vanishing client — then BeginDrain in
// the middle of the load. The server must stop cleanly (Wait returns, no
// TSan report), every line a client does receive must be well-formed, and
// nobody hangs.
TEST(ServeTest, DrainUnderConcurrentMultiClientLoadExitsCleanly) {
  SolveEngine engine;
  FaultInjector injector;
  injector.ShortWriteChunk(64);

  ServeOptions options = TestOptions(&injector);
  options.threads = 4;
  options.per_conn_inflight = 4;
  options.max_inflight = 64;
  options.max_line_bytes = 2048;
  options.drain_ms = 5000;
  options.request_deadline_cap_ms = 2000;
  LineServer server(&engine, options);
  START_SERVER(server);

  constexpr int kClients = 9;
  constexpr int kLinesPerClient = 6;
  const std::string line = Line(WorstCaseFamily(4));

  struct ClientOutcome {
    int sent = 0;
    int received = 0;
    bool malformed = false;
  };
  std::vector<ClientOutcome> outcomes(kClients);

  // Connect everyone before the load so most connections beat the drain.
  std::vector<std::unique_ptr<TestClient>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<TestClient>(server.port()));
    ASSERT_TRUE(clients[c]->connected()) << "client " << c;
  }

  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([c, &clients, &outcomes, &line] {
      TestClient& client = *clients[c];
      ClientOutcome& outcome = outcomes[c];
      std::string burst;
      for (int i = 0; i < kLinesPerClient; ++i) {
        if (c == 1 && i == 2) {
          burst += std::string(4096, 'x');  // beyond max_line_bytes
        } else {
          burst += line;
        }
        burst += '\n';
        ++outcome.sent;
      }
      if (!client.Send(burst)) return;  // drain may have beaten us; fine
      if (c == 2) {
        client.Close();  // vanishes without reading a single response
        return;
      }
      std::string response;
      while (outcome.received < outcome.sent &&
             client.ReadLine(&response, 15000)) {
        if (response.empty() || response[0] != '{') outcome.malformed = true;
        ++outcome.received;
      }
    });
  }

  // Let the load get going, then pull the plug mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.BeginDrain();
  const LineServer::Summary summary = server.Wait();

  for (std::thread& t : threads) t.join();

  EXPECT_FALSE(summary.aborted) << "drain must finish inside its budget";
  EXPECT_GE(summary.connections, 1);
  EXPECT_LE(summary.connections, kClients);
  int64_t received_total = 0;
  for (int c = 0; c < kClients; ++c) {
    EXPECT_FALSE(outcomes[c].malformed) << "client " << c;
    EXPECT_LE(outcomes[c].received, outcomes[c].sent) << "client " << c;
    if (c != 2) received_total += outcomes[c].received;
  }
  // Everything a client received was produced by the server, and every
  // line the server read got at most one response (shed or solved).
  EXPECT_LE(received_total, summary.responses);
  EXPECT_LE(summary.responses, summary.lines);
}

}  // namespace
}  // namespace pebblejoin
