// E20 — `pebblejoin serve` throughput/latency: clients x threads sweep.
// E23 — observability overhead: the same load with every request-level
// surface on (client ids on every line, sampled tracing, SLO targets,
// live /statusz + /metrics) vs everything off. Expected: a fixed ~1-2 us
// per request — low single digits of this corpus's ~50 us solves, under
// 1% of any millisecond-scale request — because the surfaces are atomic
// counters, one string field, and an async-written sampled trace, none
// of it on the solve's critical path.
//
// One in-process LineServer per configuration, driven by the loopback
// client `pebblejoin loadgen` uses (serve/loopback_client.h): TCP clients
// replaying the same mixed request corpus with a bounded pipelining
// window (below the server's per-connection in-flight cap, so nothing is
// shed and every line is solved). Reported per cell: wall clock, solved
// lines per second, and the nearest-rank p50/p95 enqueue-to-response
// latency a client observes.
//
// Expected shape: throughput grows with server threads while solve work
// is the bottleneck and with client count while the single-connection
// pipeline is (one client cannot keep the pool busy); on a small host the
// curves flatten as soon as the physical cores are covered, and p95 rises
// with concurrency — the queueing cost of sharing one engine. The
// `errors` column must stay 0: under this load profile admission never
// sheds, so every response is a solved analysis.

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/solve_engine.h"
#include "graph/bipartite_graph.h"
#include "graph/generators.h"
#include "io/graph_io.h"
#include "obs/bench_report.h"
#include "obs/json.h"
#include "serve/line_server.h"
#include "serve/loopback_client.h"
#include "serve/serve_options.h"
#include "util/table.h"

namespace pebblejoin {
namespace {

constexpr int kCorpusLines = 96;
constexpr int kWindow = 4;   // below per_conn_inflight: nothing is shed
constexpr int kRepeat = 32;  // E23: 32 x 96 = 3072 lines per pass, so the
                             // per-pass wall is ~100x any fixed cost

std::vector<std::string> MakeCorpus() {
  std::vector<std::string> corpus;
  corpus.reserve(kCorpusLines);
  for (int i = 0; i < kCorpusLines; ++i) {
    BipartiteGraph g;
    switch (i % 3) {
      case 0:
        g = WorstCaseFamily(4 + i % 3);
        break;
      case 1:
        g = RandomConnectedBipartite(5, 5, 12, /*seed=*/1 + i);
        break;
      default:
        g = DisjointUnion(CompleteBipartite(3, 3), StarGraph(4));
        break;
    }
    corpus.push_back("{\"graph\": \"" + JsonEscape(SerializeBipartiteGraph(g)) +
                     "\"}");
  }
  return corpus;
}

// Milliseconds with two decimals, from microseconds.
std::string FormatUsAsMs(int64_t us) { return FormatDouble(us / 1000.0, 2); }

void RunServeSweep(BenchReport* report) {
  std::printf(
      "E20: serve throughput/latency, clients x server threads —\n"
      "hardware threads on this host: %u, corpus: %d lines, window: %d\n\n",
      std::thread::hardware_concurrency(), kCorpusLines, kWindow);
  TablePrinter table({"clients", "threads", "lines", "wall_ms", "lines_per_s",
                      "p50_ms", "p95_ms", "errors"});

  const std::vector<std::string> corpus = MakeCorpus();
  for (int threads : {1, 2, 4}) {
    for (int clients : {1, 4, 8}) {
      SolveEngine engine;
      ServeOptions options;
      options.port = 0;
      options.threads = threads;
      options.poll_tick_ms = 5;
      LineServer server(&engine, options);
      std::string error;
      if (!server.Start(&error)) {
        std::fprintf(stderr, "bench_serve: %s\n", error.c_str());
        return;
      }

      LoadOptions load;
      load.port = server.port();
      load.clients = clients;
      load.window = kWindow;
      const LoadResult result = RunLoad(corpus, load);
      server.BeginDrain();
      server.Wait();
      if (!result.ok()) {
        std::fprintf(stderr, "bench_serve: a client failed mid-run\n");
        return;
      }
      const double wall_ms = result.wall_us / 1000.0;
      table.AddRow({FormatInt(clients), FormatInt(threads),
                    FormatInt(kCorpusLines), FormatDouble(wall_ms, 2),
                    FormatDouble(wall_ms > 0
                                     ? kCorpusLines / (wall_ms / 1000.0)
                                     : 0.0,
                                 1),
                    FormatUsAsMs(result.p50_us), FormatUsAsMs(result.p95_us),
                    FormatInt(result.errors)});
    }
  }
  std::fputs(table.Render().c_str(), stdout);
  report->AddTable("serve_sweep", table);
  std::printf(
      "\nExpected shape: errors = 0 everywhere; lines_per_s grows with\n"
      "clients (one pipeline cannot saturate the engine) and with threads\n"
      "until the host's cores are covered; p95_ms grows with concurrency —\n"
      "the queueing cost of multiplexing one shared engine.\n");
}

// Minimal blocking HTTP GET against the serve listener (one request per
// connection, the server closes after responding).
std::string HttpGet(int port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + target + " HTTP/1.1\r\n\r\n";
  (void)!::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  std::string reply;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    reply.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return reply;
}

// One measured pass of the fixed load profile (1 client x 1 engine
// thread, `corpus` replayed kRepeat times); with `trace_sample` > 0, every
// surface is armed (client ids on every line, window accounting,
// 1-in-`trace_sample` tracing, SLO targets) and
// /statusz + /metrics are scraped outside the timed region to confirm
// they render from the freshly written rings. Scrapes are deliberately
// NOT concurrent with the timed window: a scrape is a cadence cost
// (~1-2 ms each, and on a single-core host it displaces solve work 1:1),
// and at a production scrape interval (>= 10 s, matching the ring's
// bucket width) the expected number of scrapes inside a ~200 ms pass is
// zero — a fast poller would over-represent scrape frequency by ~2
// orders of magnitude. Returns nullopt when a client fails, a response
// carries an error, or a surface fails to render.
std::optional<LoadResult> RunOverheadPass(
    const std::vector<std::string>& corpus, int64_t trace_sample,
    const std::string& trace_dir) {
  // Serial profile on purpose: one client, one engine thread. Every
  // microsecond a surface spends on the request path lands directly on
  // the wall clock — concurrency would let spare cores absorb exactly
  // the cost this experiment exists to expose, and on the single-core CI
  // host the 12-thread E20 profile adds ~±7% scheduler jitter that
  // swamps a ~1% effect.
  const bool obs = trace_sample > 0;
  SolveEngine engine;
  ServeOptions options;
  options.port = 0;
  options.threads = 1;
  options.poll_tick_ms = 5;
  if (obs) {
    options.trace_sample = trace_sample;
    options.trace_dir = trace_dir;
    options.slo_p99_ms = 1000;
    options.slo_error_rate = 0.01;
  }
  LineServer server(&engine, options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "bench_serve: %s\n", error.c_str());
    return std::nullopt;
  }

  if (obs) {
    // Warm the HTTP path (first-scrape allocations) before the clock runs.
    (void)HttpGet(server.port(), "/statusz");
  }

  LoadOptions load;
  load.port = server.port();
  load.window = kWindow;
  load.repeat = kRepeat;
  load.ids = obs;
  LoadResult result = RunLoad(corpus, load);

  if (obs) {
    // Post-pass scrape: the surfaces must render from the rings the pass
    // just filled. A failure here voids the pass.
    const std::string status = HttpGet(server.port(), "/statusz");
    const std::string metrics = HttpGet(server.port(), "/metrics");
    if (status.find("\"window\"") == std::string::npos ||
        metrics.find("pebblejoin_serve_window_requests") ==
            std::string::npos) {
      std::fprintf(stderr, "bench_serve: live surfaces failed to render\n");
      return std::nullopt;
    }
  }
  server.BeginDrain();
  server.Wait();

  if (!result.ok() || result.errors != 0) {
    std::fprintf(stderr, "bench_serve: overhead client failed\n");
    return std::nullopt;
  }
  return result;
}

void RunObsOverhead(BenchReport* report) {
  constexpr int kPasses = 9;  // best-of-9 per mode: noise only ever adds
                              // wall time, so min converges to true cost
                              // (the single-core CI host jitters ~5%)
  const std::vector<std::string> corpus = MakeCorpus();
  const int64_t lines = kRepeat * static_cast<int64_t>(corpus.size());

  char trace_dir_template[] = "/tmp/pebblejoin-bench-traces-XXXXXX";
  const char* trace_dir = ::mkdtemp(trace_dir_template);
  if (trace_dir == nullptr) trace_dir = "/tmp";

  std::printf(
      "\nE23: observability overhead — ids on every line, sliding-window\n"
      "accounting, SLO targets, /statusz and /metrics verified live after\n"
      "each pass — vs all surfaces off. Two sampled-tracing rates: the\n"
      "production-shaped 1-in-1024 (~0.1%%, ~20 traces/s at this\n"
      "throughput) and the aggressive 1-in-64, which prices the sampling\n"
      "knob itself: one trace costs ~150 us to serialize and write —\n"
      "several solves' worth of CPU — so its share is sample_rate-bound.\n"
      "%lld lines per pass, best of %d passes per mode.\n\n",
      static_cast<long long>(lines), kPasses);

  // Mode 0: all surfaces off. Mode 1: the realistic config the <2% claim
  // is about. Mode 2: same but sampling 16x hotter.
  constexpr int kModes = 3;
  const int64_t kTraceSample[kModes] = {0, 1024, 64};
  const char* kModeNames[kModes] = {"off", "on", "on-trace64"};
  // Modes interleave within each pass iteration, and the reported delta
  // compares per-mode minima: noise (scheduler preemption, a noisy
  // neighbor) only ever adds wall time, so the min over passes converges
  // on each mode's noise-free floor. (A paired per-iteration median was
  // tried and rejected: the first mode of an iteration runs coldest, and
  // that position bias skews every pairwise delta the same way.)
  std::optional<LoadResult> best[kModes];
  for (int pass = 0; pass < kPasses; ++pass) {
    for (int mode = 0; mode < kModes; ++mode) {
      std::optional<LoadResult> result =
          RunOverheadPass(corpus, kTraceSample[mode], trace_dir);
      if (!result.has_value()) return;
      if (!best[mode].has_value() || result->wall_us < best[mode]->wall_us) {
        best[mode] = std::move(result);
      }
    }
  }

  // Sampled traces are scratch output; sweep the temp dir.
  if (DIR* dir = ::opendir(trace_dir)) {
    while (dirent* entry = ::readdir(dir)) {
      const std::string name = entry->d_name;
      if (name.rfind("trace-", 0) == 0) {
        ::unlink((std::string(trace_dir) + "/" + name).c_str());
      }
    }
    ::closedir(dir);
    ::rmdir(trace_dir);
  }

  TablePrinter table({"mode", "lines", "wall_ms", "lines_per_s", "p50_ms",
                      "p95_ms", "delta_pct"});
  const double off_ms = best[0]->wall_us / 1000.0;
  for (int mode = 0; mode < kModes; ++mode) {
    const double wall_ms = best[mode]->wall_us / 1000.0;
    const double delta_pct =
        (mode > 0 && off_ms > 0) ? (wall_ms - off_ms) / off_ms * 100.0 : 0.0;
    table.AddRow({kModeNames[mode], FormatInt(lines),
                  FormatDouble(wall_ms, 2),
                  FormatDouble(wall_ms > 0 ? lines / (wall_ms / 1000.0) : 0.0,
                               1),
                  FormatUsAsMs(best[mode]->p50_us),
                  FormatUsAsMs(best[mode]->p95_us),
                  FormatDouble(delta_pct, 2)});
  }
  std::fputs(table.Render().c_str(), stdout);
  report->AddTable("obs_overhead", table);
  std::printf(
      "\nExpected shape: `on` delta_pct in the low single digits — the\n"
      "fixed per-request cost is ~1-2 us (parsing one extra key, echoing\n"
      "one string field; window updates are relaxed atomics and sampled\n"
      "trace writes are handed to the async writer thread), which is\n"
      "~2-4%% of the ~50 us solves in this corpus and under 1%% of any\n"
      "millisecond-scale request. `on-trace64` prices aggressive\n"
      "sampling: ~48 traces x ~150 us each is real CPU that a\n"
      "single-core host pays on the wall clock (a spare core absorbs it\n"
      "elsewhere). Scrape cost is a cadence cost, not a per-request\n"
      "cost: ~1-2 ms per scrape, zero expected scrapes inside a pass at\n"
      "a >= 10 s production interval.\n");
}

}  // namespace
}  // namespace pebblejoin

int main(int argc, char** argv) {
  pebblejoin::BenchReport report("serve", argc, argv);
  pebblejoin::RunServeSweep(&report);
  pebblejoin::RunObsOverhead(&report);
  return report.Finish() ? 0 : 1;
}
