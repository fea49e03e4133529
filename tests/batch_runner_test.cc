// BatchRunner: JSONL round-trip against the single-shot engine path,
// per-line error records that never abort the batch, thread-count
// invariance of the output, and budget admission (queue vs reject) against
// a deterministic fake clock. Runs under ThreadSanitizer in CI.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/analyzer.h"
#include "core/report.h"
#include "engine/batch_runner.h"
#include "engine/solve_engine.h"
#include "graph/bipartite_graph.h"
#include "graph/generators.h"
#include "io/graph_io.h"
#include "obs/json.h"
#include "util/budget.h"
#include "util/fd_reader.h"

#include "json_test_util.h"

namespace pebblejoin {
namespace {

// One corpus line: {"graph": "<serialized>"<extra>}.
std::string Line(const BipartiteGraph& g, const std::string& extra = "") {
  return "{\"graph\": \"" + JsonEscape(SerializeBipartiteGraph(g)) + "\"" +
         extra + "}";
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::vector<std::string> RunBatch(
    const std::string& input, BatchRunner::Options options,
    BatchRunner::Summary* summary = nullptr,
    const AnalyzerOptions& engine_defaults = AnalyzerOptions()) {
  SolveEngine engine(SolveEngine::Options{engine_defaults});
  BatchRunner runner(&engine, options);
  std::istringstream in(input);
  std::ostringstream out;
  const BatchRunner::Summary s = runner.Run(in, out);
  if (summary != nullptr) *summary = s;
  return SplitLines(out.str());
}

TEST(BatchRunnerTest, GoldenRoundTripMatchesSingleShot) {
  const std::vector<BipartiteGraph> graphs = {
      WorstCaseFamily(5), CompleteBipartite(3, 3),
      RandomConnectedBipartite(5, 5, 12, /*seed=*/4),
      DisjointUnion(StarGraph(4), EvenCycle(4))};
  std::string input;
  for (const BipartiteGraph& g : graphs) input += Line(g) + "\n";

  BatchRunner::Summary summary;
  const std::vector<std::string> lines =
      RunBatch(input, BatchRunner::Options(), &summary);
  ASSERT_EQ(lines.size(), graphs.size());
  EXPECT_EQ(summary.solved, static_cast<int64_t>(graphs.size()));
  EXPECT_EQ(summary.errors, 0);

  for (size_t i = 0; i < graphs.size(); ++i) {
    SolveEngine fresh;
    SolveRequest request;
    request.graph = &graphs[i];
    const std::string single =
        AnalysisJson(fresh.Solve(request).analysis);
    EXPECT_EQ(NormalizeTimings(lines[i]), NormalizeTimings(single))
        << "line " << i;
  }
}

TEST(BatchRunnerTest, PerLineOverridesApply) {
  const BipartiteGraph g = WorstCaseFamily(5);
  const std::string input =
      Line(g, ", \"solver\": \"greedy\"") + "\n" +
      Line(g, ", \"predicate\": \"sets\"") + "\n" +
      // A budget without a solver selects the ladder (CLI convention).
      Line(g, ", \"deadline_ms\": 1000") + "\n";
  const std::vector<std::string> lines =
      RunBatch(input, BatchRunner::Options());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"greedy-walk\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"predicate\":\"set-containment\""),
            std::string::npos);
  EXPECT_NE(lines[2].find("\"winner\":"), std::string::npos);
}

// The single-shot answer a line must reproduce byte for byte.
std::string AnalyzerJson(const BipartiteGraph& g,
                         const AnalyzerOptions& options) {
  return NormalizeTimings(AnalysisJson(
      JoinAnalyzer(options).AnalyzeJoinGraph(g, PredicateClass::kGeneral)));
}

TEST(BatchRunnerTest, LinesAreSeededFromTheEngineRequestDefaults) {
  // Solver and budget defaults live in the engine's AnalyzerOptions only;
  // every line starts from them and overrides key by key.
  AnalyzerOptions defaults;
  defaults.solver = SolverChoice::kDfsTree;
  defaults.budget.node_budget = 50;
  // Sparse and tree-like: the exact rung cannot prove optimality inside
  // 50 nodes here, so the default budget shows in the ladder's provenance.
  const BipartiteGraph g = RandomConnectedBipartite(14, 14, 27, /*seed=*/1);
  const std::string input =
      Line(g) + "\n" + Line(g, ", \"solver\": \"greedy\"") + "\n" +
      Line(g, ", \"deadline_ms\": 1000") + "\n" +
      Line(g, ", \"solver\": \"fallback\", \"deadline_ms\": 1000") + "\n";
  const std::vector<std::string> lines =
      RunBatch(input, BatchRunner::Options(), nullptr, defaults);
  ASSERT_EQ(lines.size(), 4u);

  // A graph-only line answers exactly as JoinAnalyzer with the same options.
  EXPECT_EQ(NormalizeTimings(lines[0]), AnalyzerJson(g, defaults));
  EXPECT_NE(lines[0].find("\"dfs-tree\""), std::string::npos);

  // The line's own "solver" overrides the engine default.
  AnalyzerOptions greedy = defaults;
  greedy.solver = SolverChoice::kGreedyWalk;
  EXPECT_EQ(NormalizeTimings(lines[1]), AnalyzerJson(g, greedy));

  // A line budget does not displace a solver the engine defaults name; it
  // lands on top of the default budget.
  AnalyzerOptions deadline = defaults;
  deadline.budget.deadline_ms = 1000;
  EXPECT_EQ(NormalizeTimings(lines[2]), AnalyzerJson(g, deadline));

  // The default node budget still binds a line that names the ladder and
  // a deadline of its own.
  AnalyzerOptions ladder = deadline;
  ladder.solver = SolverChoice::kFallback;
  EXPECT_EQ(NormalizeTimings(lines[3]), AnalyzerJson(g, ladder));
  EXPECT_NE(lines[3].find("budget-exhausted"), std::string::npos);
}

TEST(BatchRunnerTest, ALineBudgetOnADefaultEngineSelectsTheLadder) {
  const BipartiteGraph g = WorstCaseFamily(5);
  const std::vector<std::string> lines = RunBatch(
      Line(g, ", \"deadline_ms\": 1000") + "\n", BatchRunner::Options());
  ASSERT_EQ(lines.size(), 1u);
  AnalyzerOptions ladder;
  ladder.solver = SolverChoice::kFallback;
  ladder.budget.deadline_ms = 1000;
  EXPECT_EQ(NormalizeTimings(lines[0]), AnalyzerJson(g, ladder));
  EXPECT_NE(lines[0].find("\"winner\":"), std::string::npos);
}

TEST(BatchRunnerTest, MalformedLinesYieldErrorRecordsAndTheRunContinues) {
  const BipartiteGraph g = WorstCaseFamily(4);
  const std::string input = Line(g) + "\n" +
                            "not json\n" +
                            "\n" +  // blank: skipped, keeps its line number
                            "{\"predicate\": \"sets\"}\n" +  // no graph
                            "{\"graph\": \"garbage text\"}\n" +
                            Line(g, ", \"frobnicate\": 1") + "\n" +
                            Line(g, ", \"deadline_ms\": -3") + "\n" +
                            Line(g) + "\n";
  BatchRunner::Summary summary;
  const std::vector<std::string> lines =
      RunBatch(input, BatchRunner::Options(), &summary);
  ASSERT_EQ(lines.size(), 7u);  // blank line produces no record
  EXPECT_EQ(summary.lines_read, 7);
  EXPECT_EQ(summary.solved, 2);
  EXPECT_EQ(summary.errors, 5);

  // Error records carry the 1-based input line number (blank included).
  EXPECT_NE(lines[1].find("\"line\":2,\"error\":"), std::string::npos);
  EXPECT_NE(lines[2].find("\"line\":4,\"error\":"), std::string::npos);
  EXPECT_NE(lines[2].find("missing required key"), std::string::npos);
  EXPECT_NE(lines[3].find("\"line\":5,\"error\":"), std::string::npos);
  EXPECT_NE(lines[4].find("unknown key"), std::string::npos);
  EXPECT_NE(lines[5].find("\"line\":7,\"error\":"), std::string::npos);
  // The last line solved even though five before it failed.
  EXPECT_NE(lines[6].find("\"edge_order\""), std::string::npos);
}

TEST(BatchRunnerTest, ThreadCountDoesNotChangeTheOutput) {
  std::string input;
  for (int seed = 0; seed < 12; ++seed) {
    input += Line(RandomConnectedBipartite(4, 4, 9, seed)) + "\n";
  }
  BatchRunner::Options sequential;
  BatchRunner::Options wide;
  wide.threads = 4;
  const std::vector<std::string> a = RunBatch(input, sequential);
  const std::vector<std::string> b = RunBatch(input, wide);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(NormalizeTimings(a[i]), NormalizeTimings(b[i]))
        << "line " << i;
  }
}

TEST(BatchRunnerTest, LinesOfMixedSizesStreamInInputOrderAtEveryWidth) {
  // 40 lines, more than the window holds at 4 or 8 threads, alternating a
  // graph of a few hundred edges with tiny ones, so later lines finish
  // before earlier ones and must wait for them.
  std::string input;
  for (int i = 0; i < 40; ++i) {
    const BipartiteGraph g =
        i % 3 == 0 ? RandomConnectedBipartite(40, 40, 400, /*seed=*/i)
                   : RandomConnectedBipartite(3, 3, 5, /*seed=*/i);
    input += Line(g) + "\n";
  }
  const std::vector<std::string> sequential =
      RunBatch(input, BatchRunner::Options());
  ASSERT_EQ(sequential.size(), 40u);
  for (int threads : {4, 8}) {
    BatchRunner::Options wide;
    wide.threads = threads;
    BatchRunner::Summary summary;
    const std::vector<std::string> lines = RunBatch(input, wide, &summary);
    EXPECT_EQ(summary.solved, 40);
    ASSERT_EQ(lines.size(), sequential.size()) << "threads=" << threads;
    for (size_t i = 0; i < lines.size(); ++i) {
      EXPECT_EQ(NormalizeTimings(lines[i]), NormalizeTimings(sequential[i]))
          << "threads=" << threads << " line " << i;
    }
  }
}

TEST(BatchRunnerTest, AOneLineBatchStartsNoPool) {
  // The only line meets EOF before it is dispatched, so it runs on the
  // calling thread; a second line is what makes a wide batch borrow the
  // pool.
  const BipartiteGraph g = WorstCaseFamily(4);
  BatchRunner::Options options;
  options.threads = 4;
  for (int lines : {1, 2}) {
    SolveEngine engine;
    BatchRunner runner(&engine, options);
    std::string text;
    for (int i = 0; i < lines; ++i) text += Line(g) + "\n";
    std::istringstream in(text);
    std::ostringstream out;
    EXPECT_EQ(runner.Run(in, out).solved, lines);
    EXPECT_EQ(engine.pool() != nullptr, lines > 1) << "lines=" << lines;
  }
}

// An output stream whose flushes publish what was written so far, so a
// test thread can wait for answers while the runner is still running.
class FlushedOutput : public std::stringbuf {
 public:
  // True once `lines` answers were flushed; false after `timeout`.
  bool WaitForLines(size_t lines, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return flushed_.wait_for(lock, timeout, [&] {
      return static_cast<size_t>(std::count(published_.begin(),
                                            published_.end(), '\n')) >=
             lines;
    });
  }

 protected:
  int sync() override {
    std::lock_guard<std::mutex> lock(mu_);
    published_ = str();
    flushed_.notify_all();
    return 0;
  }

 private:
  std::mutex mu_;
  std::condition_variable flushed_;
  std::string published_;
};

void WriteAll(int fd, const std::string& bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    ASSERT_GT(n, 0);
    done += static_cast<size_t>(n);
  }
}

TEST(BatchRunnerTest, APipedAnswerIsWrittenWhileTheReaderWaits) {
  // Line 1 is dispatched once line 2 is read; the reader then waits for
  // line 3 on a pipe that stays open. Line 1's answer must not wait for
  // more input.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  SolveEngine engine;
  BatchRunner::Options options;
  options.threads = 4;
  BatchRunner runner(&engine, options);
  FlushedOutput out_buf;
  std::ostream out(&out_buf);
  BatchRunner::Summary summary;
  std::thread batch([&] { summary = runner.Run(fds[0], out); });
  const std::string line = Line(WorstCaseFamily(4)) + "\n";
  WriteAll(fds[1], line);
  WriteAll(fds[1], line);
  const bool answered =
      out_buf.WaitForLines(1, std::chrono::milliseconds(5000));
  ::close(fds[1]);
  batch.join();
  ::close(fds[0]);
  EXPECT_TRUE(answered) << "no answer while the pipe stayed open";
  EXPECT_EQ(summary.solved, 2);
  const std::vector<std::string> lines = SplitLines(out_buf.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(NormalizeTimings(lines[0]), NormalizeTimings(lines[1]));
}

TEST(BatchRunnerTest, APipeReadsLikeAStream) {
  // A line longer than the reader's buffer spans refills, and a pipe fed
  // in small writes answers as a stream fed all at once, blank and
  // malformed lines included.
  const BipartiteGraph big = CompleteBipartite(70, 300);
  std::string input = Line(WorstCaseFamily(4)) + "\n\n" + Line(big) +
                      "\nnot json\n" + Line(CompleteBipartite(2, 3));
  ASSERT_GT(input.size(), 2 * FdReader::kBufferBytes);
  BatchRunner::Options options;
  for (int threads : {1, 4}) {
    options.threads = threads;
    const std::vector<std::string> expected = RunBatch(input, options);
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    std::thread producer([&] {
      for (size_t at = 0; at < input.size(); at += 1000) {
        WriteAll(fds[1], input.substr(at, 1000));
      }
      ::close(fds[1]);
    });
    SolveEngine engine;
    BatchRunner runner(&engine, options);
    std::ostringstream out;
    const BatchRunner::Summary summary = runner.Run(fds[0], out);
    producer.join();
    ::close(fds[0]);
    EXPECT_EQ(summary.lines_read, 4) << "threads=" << threads;
    const std::vector<std::string> lines = SplitLines(out.str());
    ASSERT_EQ(lines.size(), expected.size()) << "threads=" << threads;
    for (size_t i = 0; i < lines.size(); ++i) {
      EXPECT_EQ(NormalizeTimings(lines[i]), NormalizeTimings(expected[i]))
          << "threads=" << threads << " line " << i;
    }
  }
}

TEST(BatchRunnerTest, RejectAdmissionDropsLinesOnceThePoolIsDry) {
  FakeClock clock;
  const BipartiteGraph g = WorstCaseFamily(4);
  const std::string input = Line(g) + "\n" + Line(g) + "\n" + Line(g) + "\n";

  BatchRunner::Options options;
  options.batch_deadline_ms = 0;  // dry from the start
  options.admission = BatchRunner::Admission::kReject;
  options.clock = &clock;
  BatchRunner::Summary summary;
  const std::vector<std::string> lines = RunBatch(input, options, &summary);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(summary.rejected, 3);
  EXPECT_EQ(summary.solved, 0);
  for (const std::string& line : lines) {
    EXPECT_NE(line.find("rejected: batch deadline exhausted"),
              std::string::npos);
  }
}

TEST(BatchRunnerTest, QueueAdmissionStillSolvesUnderADryPool) {
  FakeClock clock;
  const BipartiteGraph g = WorstCaseFamily(5);
  const std::string input = Line(g) + "\n" + Line(g) + "\n";

  BatchRunner::Options options;
  options.batch_deadline_ms = 0;
  options.admission = BatchRunner::Admission::kQueue;
  options.clock = &clock;
  BatchRunner::Summary summary;
  const std::vector<std::string> lines = RunBatch(input, options, &summary);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(summary.solved, 2);
  EXPECT_EQ(summary.rejected, 0);
  // Degraded, but every line still carries a verified scheme.
  for (const std::string& line : lines) {
    EXPECT_NE(line.find("\"edge_order\""), std::string::npos);
  }
}

TEST(BatchRunnerTest, PoolDrainsMidBatchUnderReject) {
  // 30ms pool, one 20ms tick per solved line: the third line finds the
  // pool dry and is rejected while the first two solved.
  // Every read returns the time, then advances it by one 20ms tick.
  class TickingClock : public Clock {
   public:
    int64_t NowUs() const override {
      const int64_t now = now_us_;
      now_us_ += 20000;
      return now;
    }

   private:
    mutable int64_t now_us_ = 0;
  };
  TickingClock clock;
  const BipartiteGraph g = WorstCaseFamily(4);
  const std::string input = Line(g) + "\n" + Line(g) + "\n" + Line(g) + "\n";

  BatchRunner::Options options;
  options.batch_deadline_ms = 30;
  options.admission = BatchRunner::Admission::kReject;
  options.clock = &clock;
  BatchRunner::Summary summary;
  const std::vector<std::string> lines = RunBatch(input, options, &summary);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(summary.solved + summary.rejected, 3);
  EXPECT_GE(summary.solved, 1);
  EXPECT_GE(summary.rejected, 1);
  EXPECT_NE(lines[2].find("rejected"), std::string::npos);
}

TEST(BatchRunnerTest, ProgressReportsArePinnedUnderAFakeClock) {
  // Frozen clock, cadence 0: one deterministic progress line after every
  // written line, byte-for-byte.
  FakeClock clock;
  const BipartiteGraph g = WorstCaseFamily(4);
  const std::string input = Line(g) + "\n\n" + Line(g) + "\n" + Line(g);

  BatchRunner::Options options;
  options.clock = &clock;
  options.progress_every_ms = 0;
  options.expected_lines = 3;
  std::ostringstream progress;
  options.progress = &progress;

  BatchRunner::Summary summary;
  RunBatch(input, options, &summary);
  EXPECT_EQ(summary.solved, 3);
  EXPECT_EQ(
      progress.str(),
      "batch: 1/3 solved=1 errors=0 rejected=0 degraded=0 p50=0ms p95=0ms"
      " eta=0ms\n"
      "batch: 2/3 solved=2 errors=0 rejected=0 degraded=0 p50=0ms p95=0ms"
      " eta=0ms\n"
      "batch: 3/3 solved=3 errors=0 rejected=0 degraded=0 p50=0ms p95=0ms"
      " eta=0ms\n");
  // The frozen clock makes every latency 0 and the percentiles with it.
  EXPECT_EQ(summary.latency_p50_ms, 0);
  EXPECT_EQ(summary.latency_p95_ms, 0);
  EXPECT_EQ(summary.latency_p99_ms, 0);
}

TEST(BatchRunnerTest, ProgressCadenceFollowsTheClock) {
  // A frozen clock never accumulates the 100ms cadence, so a positive
  // cadence on it produces no reports at all — the cadence runs on the
  // injected clock, not on wall time or line count.
  FakeClock clock;
  const BipartiteGraph g = WorstCaseFamily(4);
  std::string input;
  for (int i = 0; i < 5; ++i) input += Line(g) + "\n";

  BatchRunner::Options options;
  options.clock = &clock;
  options.progress_every_ms = 100;
  std::ostringstream progress;
  options.progress = &progress;

  BatchRunner::Summary summary;
  RunBatch(input, options, &summary);
  EXPECT_EQ(summary.solved, 5);
  EXPECT_EQ(progress.str(), "");
}

TEST(BatchRunnerTest, SummaryLatencyPercentilesAreExact) {
  // Latencies 10, 20, 30ms via a clock advancing a growing step per line.
  class LineLatencyClock : public Clock {
   public:
    int64_t NowUs() const override {
      const int64_t now = now_us_;
      // Reads: batch start, then per line start/end. Advance only between
      // a line's start and end read: 10ms for line 1, 20 for line 2, ...
      if (reads_ >= 1 && reads_ % 2 == 1) {
        now_us_ += 10000 * ((reads_ + 1) / 2);
      }
      ++reads_;
      return now;
    }

   private:
    mutable int64_t now_us_ = 0;
    mutable int64_t reads_ = 0;
  };
  LineLatencyClock clock;
  const BipartiteGraph g = WorstCaseFamily(4);
  const std::string input = Line(g) + "\n" + Line(g) + "\n" + Line(g) + "\n";

  BatchRunner::Options options;
  options.clock = &clock;
  BatchRunner::Summary summary;
  RunBatch(input, options, &summary);
  EXPECT_EQ(summary.latency_p50_ms, 20);
  EXPECT_EQ(summary.latency_p95_ms, 30);
  EXPECT_EQ(summary.latency_p99_ms, 30);
}

}  // namespace
}  // namespace pebblejoin
