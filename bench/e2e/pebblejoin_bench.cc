// pebblejoin_bench — the end-to-end benchmark (bench/e2e/README.md).
//
//   pebblejoin_bench --seed S [--workload NAME] [--scale full|smoke]
//                    [--seconds N] [--trace 0|1] [--out FILE]
//                    [--trace-out FILE]
//
// Generates every input from the seed, drives the real user surfaces —
// `pebblejoin serve` and `pebblejoin batch` as child processes, and
// SolveEngine::Solve in-process — checks every answer with the oracle
// (oracle.h), and prints every metric by name and unit. The untraced
// phases give the end-to-end metrics; then, unless --trace 0, the traced
// replay (replay.h) gives the per-layer ones. The last line of stdout is
// one JSON object:
//
//   {"correct":true,"attempted":N,"failed":0,"metrics":{...}}
//
// holding the end-to-end metrics with --trace 0 and the per-layer metrics
// with --trace 1 (the default). Without --workload all four workloads run
// and its metric names carry a "<workload>." prefix. --seconds sets each
// workload's measured time (default: 30/15/20/30 s at full scale). --out
// writes every metric of every workload as JSON for compare.py;
// --trace-out writes the replay's spans as a Chrome trace.
//
// Exit code 0 iff every answer passed the oracle and the replay answered
// like the real call; 2 on bad flags. A run whose layer-sum residual or
// generator lag breaks its gate still exits 0 but is marked invalid in
// the --out file and on stderr.

#include <signal.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "corpus.h"
#include "engine/jsonl_request.h"
#include "engine/solve_engine.h"
#include "harness.h"
#include "obs/json.h"
#include "oracle.h"
#include "replay.h"

namespace pebblejoin::e2e {
namespace {

// Validity gates: beyond these the run's timings do not mean what they
// say. A run that trips one is marked invalid, not incorrect: its answers
// can still all be right on a machine too busy to time them.
constexpr double kMaxResidualShare = 0.05;
// The generator's lateness is part of every latency it reports; past the
// 2 ms service-level limit it would swamp the percentiles it measures.
constexpr double kMaxGenLagP99Us = 2000;
// An unbudgeted request meets its service-level objective within 2 ms.
constexpr double kSloUs = 2000;
// A budgeted request meets its deadline within this slack.
constexpr double kDeadlineSlackMs = 5;
// Connections and engine width everywhere, sized for a 4-core machine.
constexpr int kConnections = 4;
constexpr int kThreads = 4;
constexpr double kGraceS = 10;
// Serve-small measures in rounds, each against a freshly started server,
// and reports medians over them. Small requests are mostly thread hand-offs,
// so a round's numbers move by 10-15% with the machine's other load, and
// one long phase would carry one such disturbance whole.
constexpr int kServeRounds = 10;
// The pebblejoin CLI this benchmark was built with.
constexpr const char* kCli = PEBBLEJOIN_CLI_PATH;

enum class Scale { kFull, kSmoke };

struct Options {
  uint64_t seed = 1;
  std::string workload;  // empty: all four
  Scale scale = Scale::kFull;
  double seconds = 0;    // 0: the workload's default for the scale
  bool trace = true;
  std::string out = "BENCH_e2e.json";
  std::string trace_out = "trace-e2e.json";

  bool smoke() const { return scale == Scale::kSmoke; }
  double Seconds(double full) const {
    return seconds > 0 ? seconds : (smoke() ? 1.2 : full);
  }
  // Set-up is timed this many times per run and reported as the median;
  // one spawn or pool start alone jitters by tens of percent.
  int SetupRepeats(int full) const { return smoke() ? 3 : full; }
};

// Latency and cost accounting of the answers to one class of requests.
struct Tally {
  std::vector<double> latency_us;
  int64_t correct = 0;
  int64_t wrong = 0;
  int64_t edges = 0;  // m of the correct answers
  int64_t cost = 0;   // pi of the correct answers
  int64_t within_slo = 0;
  std::string first_problem;

  void Add(const Verdict& verdict, int64_t m, double latency) {
    if (!verdict.ok) {
      if (wrong++ == 0) first_problem = verdict.problem;
      return;
    }
    ++correct;
    edges += m;
    cost += verdict.cost;
    latency_us.push_back(latency);
    if (latency <= kSloUs) ++within_slo;
  }

  void Merge(const Tally& other) {
    latency_us.insert(latency_us.end(), other.latency_us.begin(),
                      other.latency_us.end());
    correct += other.correct;
    wrong += other.wrong;
    edges += other.edges;
    cost += other.cost;
    within_slo += other.within_slo;
    if (first_problem.empty()) first_problem = other.first_problem;
  }
};

struct EndToEnd {
  double setup_s = 0;
  double edges_per_s = 0;
  double cost_ratio = 0;
  double peak_rss_mb = 0;
};

// Per-layer metrics; zero where the workload leaves a layer idle.
struct PerLayer {
  // End-to-end latency. Kept here, without a bound: on a shared 4-core
  // virtual machine serve latency follows the host's load, by 30% within a
  // few minutes, more than any bound the benchmark may set.
  double p50_us = 0;
  double p99_us = 0;
  ReplayReport replay;
  double fanout_speedup = 0;
  double fanout_tasks = 0;
  double ladder_exact_us = 0;
  double ladder_waste_share = 0;
  double ladder_overshoot_ms = 0;
  double ladder_deadline_met_share = 0;
  double light_p50_us = 0;
  double light_p99_us = 0;
  double capacity_rps = 0;
  double slo_attainment = 0;
  double load_delay_us = 0;
  double gen_lag_p99_us = 0;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct WorkloadResult {
  explicit WorkloadResult(std::string workload) : name(std::move(workload)) {}

  std::string name;
  int64_t attempted = 0;
  int64_t failed = 0;
  bool broken = false;  // the benchmark could not run or check something
  bool valid = true;    // every timing validity gate held
  std::vector<std::string> problems;
  EndToEnd e2e;
  bool traced = false;
  PerLayer layers;

  bool correct() const { return failed == 0 && !broken; }
  void Problem(const std::string& what) {
    if (problems.size() < 8) problems.push_back(what);
  }
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    broken = true;
    Problem(what);
  }
  void Validity(bool ok, const std::string& what) {
    if (ok) return;
    valid = false;
    Problem("invalid timing: " + what);
  }
  // `sent` requests of one class were answered as `tally` records; the
  // rest never came back.
  void Account(int64_t sent, const Tally& tally) {
    attempted += sent;
    failed += sent - tally.correct;
    if (!tally.first_problem.empty()) Problem(tally.first_problem);
    if (tally.correct + tally.wrong < sent) {
      Problem(std::to_string(sent - tally.correct - tally.wrong) +
              " requests unanswered");
    }
  }
};

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
double P99(const std::vector<double>& v) { return Quantile(v, 0.99); }
double Ratio(double num, double den) { return den > 0 ? num / den : 0; }
double Us(int64_t ns) { return static_cast<double>(ns) / 1000.0; }
double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

std::vector<Metric> EndToEndMetrics(const EndToEnd& e) {
  return {{"setup_s", e.setup_s, "s"},
          {"edges_per_s", e.edges_per_s, "edges/s"},
          {"cost_ratio", e.cost_ratio, "ratio"},
          {"peak_rss_mb", e.peak_rss_mb, "MB"}};
}

std::vector<Metric> LayerMetrics(const PerLayer& l) {
  const ReplayReport& r = l.replay;
  std::vector<Metric> metrics;
  const auto layer = [&](const char* name) -> LayerTimes {
    const auto it = r.layers.find(name);
    return it == r.layers.end() ? LayerTimes() : it->second;
  };
  const auto per_request = [&](const char* name) {
    return Ratio(layer(name).count, static_cast<double>(r.requests));
  };
  for (const char* name : kLayers) {
    const LayerTimes t = layer(name);
    metrics.push_back({std::string(name) + ".p50_us", Median(t.us), "us"});
    metrics.push_back({std::string(name) + ".share",
                       Ratio(t.total_us, r.request_us), "share"});
  }
  const double run_line_p50 = Median(r.run_line_us);
  metrics.insert(
      metrics.end(),
      {{"e2e.p50_us", l.p50_us, "us"},
       {"e2e.p99_us", l.p99_us, "us"},
       {"obs.json_parse.bytes_in", per_request("obs.json_parse"), "bytes"},
       {"io.graph_parse.edges", per_request("io.graph_parse"), "count"},
       {"graph.partition.components", per_request("graph.partition"), "count"},
       {"solver.solve.us_per_edge",
        Ratio(layer("solver.solve").total_us, static_cast<double>(r.edges)),
        "us"},
       {"core.report.bytes_out", per_request("core.report"), "bytes"},
       {"solver.fanout.speedup", l.fanout_speedup, "x"},
       {"solver.fanout.tasks", l.fanout_tasks, "count"},
       {"solver.ladder.exact_us", l.ladder_exact_us, "us"},
       {"solver.ladder.waste_share", l.ladder_waste_share, "share"},
       {"solver.ladder.deadline_overshoot_ms", l.ladder_overshoot_ms, "ms"},
       {"solver.ladder.deadline_met_share", l.ladder_deadline_met_share,
        "share"},
       {"engine.run_line.p50_us", run_line_p50, "us"},
       {"engine.residual_share", r.residual_share, "share"},
       {"serve.light_p50_us", l.light_p50_us, "us"},
       {"serve.light_p99_us", l.light_p99_us, "us"},
       {"serve.capacity_rps", l.capacity_rps, "req/s"},
       {"serve.slo_attainment", l.slo_attainment, "share"},
       {"serve.overhead_us",
        l.light_p50_us > 0 ? l.light_p50_us - run_line_p50 : 0, "us"},
       {"serve.load_delay_us", l.load_delay_us, "us"},
       {"bench.gen_lag_p99_us", l.gen_lag_p99_us, "us"},
       {"bench.trace_overhead_share", r.trace_overhead_share, "share"}});
  return metrics;
}

// Records a replay: its answers must be the real call's, and its layers
// must add up to the real call's time.
void AddReplay(ReplayReport replay, WorkloadResult* result) {
  result->traced = true;
  result->Check(replay.mismatches == 0,
               std::to_string(replay.mismatches) +
                   " replayed answers differ from the real call: " +
                   replay.first_mismatch);
  result->Validity(replay.residual_share <= kMaxResidualShare,
               "engine.residual_share " +
                   std::to_string(replay.residual_share) + " > 0.05");
  result->layers.replay = std::move(replay);
}

// `lag_us` holds how late the sender ran for every request of one kind of
// open-loop phase.
void GateGenLag(const std::vector<double>& lag_us, const char* phase,
                WorkloadResult* result) {
  const double p99 = P99(lag_us);
  double& worst = result->layers.gen_lag_p99_us;
  worst = std::max(worst, p99);
  result->Validity(p99 <= kMaxGenLagP99Us,
               std::string("generator ran late in the ") + phase +
                   " phase: p99 " + std::to_string(p99) + " us > 2000 us");
}

// --- serve workloads ----------------------------------------------------

// Admission ceilings high enough that overload shows as latency, never as
// shed requests: every request of a run must be answered.
std::vector<std::string> ServeArgs() {
  return {"--threads", std::to_string(kThreads), "--max-inflight", "4096",
          "--per-conn-inflight", "1024"};
}

// Starts serve `repeats` times and keeps the last; set-up time is the
// median spawn-to-ready time.
bool StartServeMedian(const Options& o, ServeProcess* serve,
                      WorkloadResult* result) {
  const std::vector<std::string> args = ServeArgs();
  std::vector<double> setups;
  for (int i = 0; i < o.SetupRepeats(31); ++i) {
    if (serve->child != nullptr) {
      double unused = 0;
      StopServe(serve, &unused);
    }
    double setup_s = 0;
    std::string error;
    if (!StartServe(kCli, args, serve, &setup_s, &error)) {
      result->Check(false, error);
      return false;
    }
    setups.push_back(setup_s);
  }
  result->e2e.setup_s = Median(setups);
  return true;
}

std::vector<int> ConnectAll(int port, WorkloadResult* result) {
  std::vector<int> fds;
  for (int c = 0; c < kConnections; ++c) {
    const int fd = ConnectLoopback(port);
    if (fd < 0) {
      result->Check(false, "cannot connect to serve");
      break;
    }
    fds.push_back(fd);
  }
  return fds;
}

void Disconnect(const std::vector<int>& fds) {
  for (int fd : fds) ::close(fd);
}

std::vector<const RequestLine*> Prefix(const std::vector<RequestLine>& lines,
                                       size_t n) {
  std::vector<const RequestLine*> prefix;
  for (size_t i = 0; i < std::min(n, lines.size()); ++i) {
    prefix.push_back(&lines[i]);
  }
  return prefix;
}

// Open-loop Poisson arrivals of `lines` on every connection, `rate` in
// total, each connection on its own seeded stream.
std::vector<std::vector<Scheduled>> Schedule(
    uint64_t seed, int phase, const std::vector<RequestLine>& lines,
    double rate, double seconds, int connections) {
  std::vector<std::vector<Scheduled>> schedule;
  for (int c = 0; c < connections; ++c) {
    schedule.push_back(PoissonSchedule(seed * 1000 + phase * 10 + c,
                                       rate / connections, seconds, lines));
  }
  return schedule;
}

int64_t Total(const std::vector<std::vector<Scheduled>>& schedule) {
  int64_t n = 0;
  for (const auto& s : schedule) n += static_cast<int64_t>(s.size());
  return n;
}

WorkloadResult RunServeSmall(const Options& o, Tracer* tracer) {
  WorkloadResult result("serve-small");
  const int rounds = o.smoke() ? 1 : kServeRounds;
  const double phase_s = o.Seconds(30) / 3 / rounds;
  const double light_rate = 4000;
  // On a 4-vCPU Xeon VM the open loop saturates near 16k req/s (the closed
  // loop pipelines and reaches twice that); 8k keeps the busy phase below.
  const double busy_rate = 8000;
  const std::vector<RequestLine> lines =
      SmallLines(o.seed, o.smoke() ? 256 : 4096);
  SolveEngine engine;
  const JsonlRequestRunner runner(&engine, {});
  const ReferenceTable reference(lines, runner);

  ServeProcess serve;
  if (!StartServeMedian(o, &serve, &result)) return result;
  // Pooled over rounds, for the tails and the cost ratio.
  Tally light;
  Tally busy;
  Tally closed;
  int64_t busy_sent = 0;
  std::vector<double> light_lag_us;
  std::vector<double> busy_lag_us;
  // Per round, for the medians.
  std::vector<double> light_p50;
  std::vector<double> busy_p50;
  std::vector<double> closed_edges_per_s;
  std::vector<double> closed_rps;
  std::vector<double> peak_rss_mb;
  for (int round = 0; round < rounds; ++round) {
    if (round > 0) {
      double unused = 0;
      std::string error;
      if (!StartServe(kCli, ServeArgs(), &serve, &unused, &error)) {
        result.Check(false, error);
        break;
      }
    }
    const std::vector<int> fds = ConnectAll(serve.port, &result);
    // Runs one open-loop phase into `pooled` and `lag_us`; returns the
    // number of requests it sent and their median latency.
    const auto open_phase = [&](int phase, double rate, Tally* pooled,
                                std::vector<double>* lag_us) {
      const auto schedule = Schedule(o.seed, 2 * round + phase, lines, rate,
                                     phase_s, kConnections);
      Tally tally;
      const OpenLoopResult run =
          RunOpenLoop(fds, schedule, kGraceS, [&](const Response& r) {
            tally.Add(reference.Check(*r.line, r.text), r.line->edges,
                      Us(r.latency_ns));
          });
      result.Account(Total(schedule), tally);
      pooled->Merge(tally);
      lag_us->insert(lag_us->end(), run.lag_us.begin(), run.lag_us.end());
      return std::make_pair(Total(schedule), Median(tally.latency_us));
    };
    if (fds.size() == kConnections) {
      light_p50.push_back(
          open_phase(1, light_rate, &light, &light_lag_us).second);
      const auto [sent, p50] = open_phase(2, busy_rate, &busy, &busy_lag_us);
      busy_sent += sent;
      busy_p50.push_back(p50);
      Tally tally;
      const ClosedLoopResult run = RunClosedLoop(
          fds, 16, phase_s, lines, [&](const Response& r) {
            tally.Add(reference.Check(*r.line, r.text), r.line->edges,
                      Us(r.latency_ns));
          });
      result.Account(run.sent, tally);
      closed.Merge(tally);
      closed_edges_per_s.push_back(
          Ratio(static_cast<double>(tally.edges), run.seconds));
      closed_rps.push_back(
          Ratio(static_cast<double>(tally.correct), run.seconds));
    }
    Disconnect(fds);
    double rss_mb = 0;
    result.Check(StopServe(&serve, &rss_mb), "serve exited non-zero");
    peak_rss_mb.push_back(rss_mb);
    if (fds.size() != kConnections) break;
  }
  GateGenLag(light_lag_us, "light", &result);
  GateGenLag(busy_lag_us, "busy", &result);

  result.layers.p50_us = Median(busy_p50);
  result.e2e.edges_per_s = Median(closed_edges_per_s);
  result.e2e.peak_rss_mb = Median(peak_rss_mb);
  result.layers.capacity_rps = Median(closed_rps);
  result.layers.p99_us = P99(busy.latency_us);
  result.e2e.cost_ratio =
      Ratio(static_cast<double>(light.cost + busy.cost + closed.cost),
            static_cast<double>(light.edges + busy.edges + closed.edges));
  result.layers.light_p50_us = Median(light_p50);
  result.layers.light_p99_us = P99(light.latency_us);
  result.layers.load_delay_us =
      result.layers.p50_us - result.layers.light_p50_us;
  result.layers.slo_attainment = Ratio(static_cast<double>(busy.within_slo),
                                       static_cast<double>(busy_sent));
  if (tracer != nullptr) {
    AddReplay(ReplayJsonl(Prefix(lines, 512), 3, runner, tracer), &result);
  }
  return result;
}

WorkloadResult RunServeDeadlineMix(const Options& o, Tracer* tracer) {
  WorkloadResult result("serve-deadline-mix");
  const double seconds = o.Seconds(30);
  const double small_rate = 3000;
  const double budgeted_rate = 6;
  const std::vector<RequestLine> small =
      SmallLines(o.seed, o.smoke() ? 256 : 4096);
  const std::vector<RequestLine> budgeted =
      BudgetedLines(o.seed, o.smoke() ? 8 : 64);
  SolveEngine engine;
  const JsonlRequestRunner runner(&engine, {});
  const ReferenceTable reference(small, runner);

  ServeProcess serve;
  if (!StartServeMedian(o, &serve, &result)) return result;
  const std::vector<int> fds = ConnectAll(serve.port, &result);
  // Budgeted lines get the last connection to themselves, so interference
  // is measured in the shared engine and not in the per-connection
  // response order the protocol requires.
  std::vector<std::vector<Scheduled>> schedule =
      Schedule(o.seed, 1, small, small_rate, seconds, kConnections - 1);
  schedule.push_back(
      Schedule(o.seed, 2, budgeted, budgeted_rate, seconds, 1).front());
  Tally fast;
  Tally slow;
  int64_t met = 0;
  std::vector<double> exact_us;
  double discarded_us = 0;
  double solve_us = 0;
  double overshoot_ms = 0;
  double answered_s = 0;
  if (fds.size() == kConnections) {
    const OpenLoopResult run =
        RunOpenLoop(fds, schedule, kGraceS, [&](const Response& r) {
          const double latency = Us(r.latency_ns);
          if (!r.line->budgeted) {
            fast.Add(reference.Check(*r.line, r.text), r.line->edges, latency);
            return;
          }
          const Verdict v = CheckBudgeted(*r.line, r.text);
          slow.Add(v, r.line->edges, latency);
          if (!v.ok) return;
          if (latency <= (kBudgetDeadlineMs + kDeadlineSlackMs) * 1000) ++met;
          exact_us.push_back(static_cast<double>(v.exact_us));
          discarded_us += static_cast<double>(v.discarded_us);
          solve_us += static_cast<double>(v.solve_us);
          overshoot_ms +=
              std::max(0.0, static_cast<double>(v.solve_us) / 1000.0 -
                                kBudgetDeadlineMs);
        });
    answered_s = run.seconds;
    GateGenLag(run.lag_us, "mixed", &result);
  }
  const int64_t fast_sent = Total(schedule) - schedule.back().size();
  const int64_t slow_sent = schedule.back().size();
  result.Account(fast_sent, fast);
  result.Account(slow_sent, slow);
  Disconnect(fds);
  result.Check(StopServe(&serve, &result.e2e.peak_rss_mb),
              "serve exited non-zero");

  result.layers.p50_us = Median(fast.latency_us);
  result.layers.p99_us = P99(fast.latency_us);
  result.e2e.edges_per_s =
      Ratio(static_cast<double>(fast.edges + slow.edges), answered_s);
  result.e2e.cost_ratio = Ratio(static_cast<double>(fast.cost + slow.cost),
                                static_cast<double>(fast.edges + slow.edges));
  result.layers.slo_attainment = Ratio(static_cast<double>(fast.within_slo),
                                       static_cast<double>(fast_sent));
  result.layers.ladder_exact_us = Median(exact_us);
  result.layers.ladder_waste_share = Ratio(discarded_us, solve_us);
  result.layers.ladder_overshoot_ms =
      Ratio(overshoot_ms, static_cast<double>(slow.correct));
  result.layers.ladder_deadline_met_share =
      Ratio(static_cast<double>(met), static_cast<double>(slow_sent));
  if (tracer != nullptr) {
    std::vector<const RequestLine*> lines = Prefix(small, 256);
    for (const RequestLine* line : Prefix(budgeted, 4)) lines.push_back(line);
    AddReplay(ReplayJsonl(lines, 3, runner, tracer), &result);
  }
  return result;
}

// --- batch --------------------------------------------------------------

WorkloadResult RunBatchEquijoin(const Options& o, Tracer* tracer) {
  WorkloadResult result("batch-equijoin");
  const double seconds = o.Seconds(15);
  const std::vector<int> keys = o.smoke() ? std::vector<int>{100, 400, 1600}
                                          : std::vector<int>{1600, 6400, 25600};
  const std::vector<RequestLine> lines =
      EquijoinLines(o.seed, keys, o.smoke() ? 2 : 4);
  const RequestLine warmup = WarmupLine();
  const std::vector<std::string> argv = {
      kCli, "batch", "--threads", std::to_string(kThreads), "--jsonl", "-"};
  const int64_t give_up = NowNs() + static_cast<int64_t>((seconds + 120) * 1e9);
  std::string error;

  // Set-up: spawn until the warm-up line's answer, several times.
  std::vector<double> setups;
  for (int i = 0; i < o.SetupRepeats(31); ++i) {
    const int64_t start = NowNs();
    std::unique_ptr<ChildProcess> child = ChildProcess::Spawn(argv, &error);
    if (child == nullptr) {
      result.Check(false, error);
      return result;
    }
    WriteLine(child->stdin_fd(), warmup.text);
    child->CloseStdin();
    Tally tally;
    ReadLines(child->stdout_fd(), give_up, [&](const std::string& text) {
      if (tally.correct + tally.wrong == 0) {
        setups.push_back(Seconds(NowNs() - start));
      }
      tally.Add(CheckEquijoin(warmup, text), warmup.edges, 0);
    });
    result.Check(child->Wait(), "batch exited non-zero");
    result.Account(1, tally);
  }
  result.e2e.setup_s = Median(setups);

  // The measured run: the warm-up line, then the corpus streamed through
  // a pipe for `seconds`, every answer checked as it streams back.
  std::unique_ptr<ChildProcess> child = ChildProcess::Spawn(argv, &error);
  if (child == nullptr) {
    result.Check(false, error);
    return result;
  }
  constexpr size_t kMaxLines = size_t{1} << 16;
  std::vector<std::atomic<int64_t>> written(kMaxLines);  // index 0: warm-up
  std::atomic<int64_t> lines_written{0};
  int64_t corpus_start = 0;
  std::thread writer([&] {
    WriteLine(child->stdin_fd(), warmup.text);
    written[0].store(NowNs());
    lines_written.store(1);
    corpus_start = NowNs();
    const int64_t stop = corpus_start + static_cast<int64_t>(seconds * 1e9);
    for (size_t i = 1; i < kMaxLines && NowNs() < stop; ++i) {
      if (!WriteLine(child->stdin_fd(), lines[(i - 1) % lines.size()].text)) {
        break;
      }
      written[i].store(NowNs());
      lines_written.store(static_cast<int64_t>(i) + 1);
    }
    child->CloseStdin();
  });
  Tally warm;
  Tally tally;
  size_t index = 0;
  int64_t last_answer = 0;
  const bool finished =
      ReadLines(child->stdout_fd(), give_up, [&](const std::string& text) {
        const int64_t now = NowNs();
        // The peak only grows while batch is alive: the reading at the last
        // answer holds it.
        result.e2e.peak_rss_mb =
            std::max(result.e2e.peak_rss_mb, child->PeakRssMb());
        if (index >= kMaxLines) return;
        const RequestLine& line =
            index == 0 ? warmup : lines[(index - 1) % lines.size()];
        const Verdict verdict = CheckEquijoin(line, text);
        (index == 0 ? warm : tally)
            .Add(verdict, line.edges, Us(now - written[index].load()));
        ++index;
        last_answer = now;
      });
  if (!finished) {
    result.Check(false, "batch did not finish in time");
    child->Signal(SIGKILL);
  }
  writer.join();
  result.Check(child->Wait(), "batch exited non-zero");
  result.Account(1, warm);
  result.Account(lines_written.load() - 1, tally);

  result.layers.p50_us = Median(tally.latency_us);
  result.layers.p99_us = P99(tally.latency_us);
  result.e2e.edges_per_s = Ratio(static_cast<double>(tally.edges),
                                 Seconds(last_answer - corpus_start));
  result.e2e.cost_ratio = Ratio(static_cast<double>(tally.cost),
                                static_cast<double>(tally.edges));
  if (tracer != nullptr) {
    SolveEngine engine;
    const JsonlRequestRunner runner(&engine, {});
    AddReplay(ReplayJsonl(Prefix(lines, keys.size()), 5, runner, tracer),
              &result);
  }
  return result;
}

// --- library ------------------------------------------------------------

SolveEngine::Options EngineOptions() {
  SolveEngine::Options options;
  options.defaults.threads = kThreads;
  return options;
}

WorkloadResult RunLibraryComponents(const Options& o, Tracer* tracer) {
  WorkloadResult result("library-components");
  const double seconds = o.Seconds(20);
  const std::vector<BipartiteGraph> graphs =
      ComponentGraphs(o.seed, o.smoke() ? 4 : 16, o.smoke() ? 64 : 1024);
  BipartiteGraph one_edge(1, 1);
  one_edge.AddEdge(0, 0);
  SolveRequest warmup;
  warmup.graph = &one_edge;

  // References solve sequentially: the answer must not depend on threads.
  std::vector<uint64_t> expected;
  {
    SolveEngine sequential;
    for (const BipartiteGraph& g : graphs) {
      SolveRequest request;
      request.graph = &g;
      expected.push_back(SolutionHash(sequential.Solve(request).analysis));
    }
  }

  // Set-up: engine construction plus the first Solve, which creates the
  // worker pool.
  std::vector<double> setups;
  for (int i = 0; i < o.SetupRepeats(101); ++i) {
    const int64_t start = NowNs();
    SolveEngine engine(EngineOptions());
    engine.Solve(warmup);
    setups.push_back(Seconds(NowNs() - start));
  }
  result.e2e.setup_s = Median(setups);

  SolveEngine engine(EngineOptions());
  engine.Solve(warmup);
  Tally tally;
  int64_t solve_ns = 0;
  int64_t calls = 0;
  const int64_t stop = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (size_t i = 0; NowNs() < stop; ++i) {
    const size_t g = i % graphs.size();
    SolveRequest request;
    request.graph = &graphs[g];
    const int64_t start = NowNs();
    const SolveResult solved = engine.Solve(request);
    const int64_t took = NowNs() - start;
    solve_ns += took;
    ++calls;
    Verdict verdict;
    verdict.ok = SolutionHash(solved.analysis) == expected[g];
    verdict.cost = solved.analysis.solution.effective_cost;
    if (!verdict.ok) {
      verdict.problem = "solution differs from the threads=1 reference";
    }
    tally.Add(verdict, graphs[g].num_edges(), Us(took));
  }
  result.Account(calls, tally);
  rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  result.e2e.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  result.layers.p50_us = Median(tally.latency_us);
  result.layers.p99_us = P99(tally.latency_us);
  result.e2e.edges_per_s =
      Ratio(static_cast<double>(tally.edges), Seconds(solve_ns));
  result.e2e.cost_ratio = Ratio(static_cast<double>(tally.cost),
                                static_cast<double>(tally.edges));

  if (tracer != nullptr) {
    // Fan-out pays when the same graphs solve faster at kThreads than at 1.
    int64_t sequential_ns = 0;
    int64_t parallel_ns = 0;
    for (const BipartiteGraph& g : graphs) {
      SolveRequest request;
      request.graph = &g;
      request.threads = 1;
      int64_t start = NowNs();
      engine.Solve(request);
      sequential_ns += NowNs() - start;
      request.threads = kThreads;
      start = NowNs();
      const SolveResult solved = engine.Solve(request);
      parallel_ns += NowNs() - start;
      result.layers.fanout_tasks += solved.analysis.solution.num_components;
    }
    result.layers.fanout_speedup = Ratio(static_cast<double>(sequential_ns),
                                         static_cast<double>(parallel_ns));
    // Fan-out timings jitter more than sequential ones: more repetitions.
    AddReplay(ReplayGraphs(graphs, 9, &engine, tracer), &result);
  }
  return result;
}

// --- output -------------------------------------------------------------

struct Workload {
  const char* name;
  WorkloadResult (*run)(const Options&, Tracer*);
};

// The library workload runs first: its peak_rss_mb is this process's own,
// which earlier workloads would inflate.
constexpr Workload kWorkloads[] = {
    {"library-components", RunLibraryComponents},
    {"serve-small", RunServeSmall},
    {"batch-equijoin", RunBatchEquijoin},
    {"serve-deadline-mix", RunServeDeadlineMix},
};

// Shortest round-trip form: every digit measured, none invented.
std::string Number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  const auto end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  return std::string(buf, end);
}

std::string MetricsJson(const std::vector<Metric>& metrics,
                        const std::string& prefix) {
  std::string json;
  for (const Metric& m : metrics) {
    if (!json.empty()) json += ",";
    json += "\"" + prefix + m.name + "\":{\"value\":" + Number(m.value) +
            ",\"unit\":\"" + m.unit + "\"}";
  }
  return json;
}

// Every metric a run measured: the traced replay adds the per-layer ones.
std::vector<Metric> AllMetrics(const WorkloadResult& r) {
  std::vector<Metric> metrics = EndToEndMetrics(r.e2e);
  if (r.traced) {
    const std::vector<Metric> layers = LayerMetrics(r.layers);
    metrics.insert(metrics.end(), layers.begin(), layers.end());
  }
  return metrics;
}

std::string ResultFileJson(const Options& o,
                           const std::vector<WorkloadResult>& results,
                           int64_t started_unix) {
  std::string json = "{\"seed\":" + std::to_string(o.seed) +
                     ",\"scale\":\"" + (o.smoke() ? "smoke" : "full") +
                     "\",\"trace\":" + (o.trace ? "1" : "0") +
                     ",\"started_unix\":" + std::to_string(started_unix) +
                     ",\"workloads\":{";
  for (size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    std::string problems;
    for (const std::string& p : r.problems) {
      problems += (problems.empty() ? "\"" : ",\"") + JsonEscape(p) + "\"";
    }
    json += std::string(i == 0 ? "" : ",") + "\"" + r.name +
            "\":{\"correct\":" + (r.correct() ? "true" : "false") +
            ",\"valid\":" + (r.valid ? "true" : "false") +
            ",\"attempted\":" + std::to_string(r.attempted) +
            ",\"failed\":" + std::to_string(r.failed) + ",\"problems\":[" +
            problems + "],\"metrics\":{" + MetricsJson(AllMetrics(r), "") +
            "}}";
  }
  return json + "}}";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: pebblejoin_bench --seed S [--workload NAME] "
               "[--scale full|smoke]\n"
               "                        [--seconds N] [--trace 0|1] "
               "[--out FILE]\n"
               "                        [--trace-out FILE]\n"
               "workloads: library-components serve-small batch-equijoin "
               "serve-deadline-mix\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) {
        return Usage("--seed needs an integer");
      }
    } else if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--scale") {
      if (value != "full" && value != "smoke") {
        return Usage("--scale full|smoke");
      }
      o.scale = value == "smoke" ? Scale::kSmoke : Scale::kFull;
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0)) {
        return Usage("--seconds needs N > 0");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace 0|1");
      o.trace = value == "1";
    } else if (flag == "--out") {
      o.out = value;
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  std::vector<Workload> selected;
  for (const Workload& w : kWorkloads) {
    if (o.workload.empty() || o.workload == w.name) selected.push_back(w);
  }
  if (selected.empty()) {
    return Usage(("unknown workload " + o.workload).c_str());
  }

  const int64_t started_unix = static_cast<int64_t>(std::time(nullptr));
  Tracer tracer;
  std::vector<WorkloadResult> results;
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string metrics;
  for (const Workload& w : selected) {
    results.push_back(w.run(o, o.trace ? &tracer : nullptr));
    const WorkloadResult& r = results.back();
    correct = correct && r.correct();
    attempted += r.attempted;
    failed += r.failed;
    for (const Metric& m : AllMetrics(r)) {
      std::printf("%-20s %-40s %14.6g %s\n", r.name.c_str(), m.name.c_str(),
                  m.value, m.unit);
    }
    std::printf("%-20s attempted %lld, failed %lld, %s%s\n", r.name.c_str(),
                static_cast<long long>(r.attempted),
                static_cast<long long>(r.failed),
                r.correct() ? "correct" : "NOT correct",
                r.valid ? "" : ", timings INVALID");
    for (const std::string& p : r.problems) {
      std::fprintf(stderr, "%s: %s\n", r.name.c_str(), p.c_str());
    }
    if (!metrics.empty()) metrics += ",";
    metrics +=
        MetricsJson(o.trace ? LayerMetrics(r.layers) : EndToEndMetrics(r.e2e),
                    selected.size() > 1 ? r.name + "." : "");
  }

  if (!o.out.empty()) {
    std::ofstream out(o.out);
    out << ResultFileJson(o, results, started_unix) << "\n";
    if (!out.good()) {
      std::fprintf(stderr, "error: cannot write %s\n", o.out.c_str());
      correct = false;
    }
  }
  std::string error;
  if (o.trace && !o.trace_out.empty() &&
      !tracer.WriteChromeTrace(o.trace_out, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    correct = false;
  }
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
              "\"metrics\":{%s}}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pebblejoin::e2e

int main(int argc, char** argv) { return pebblejoin::e2e::Main(argc, argv); }
