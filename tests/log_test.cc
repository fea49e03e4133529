// Tests for the event journal and flight recorder (obs/log.h): golden
// JSONL lines under a fake clock, level filtering, ring eviction, worker
// merge ordering, flight-recorder dumps, thread-safe sink writes, and the
// engine integration (a degraded solve dumps its postmortem trail; the
// journal is identical across thread counts modulo worker tags and
// timings).

#include "obs/log.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/analyzer.h"
#include "graph/generators.h"
#include "obs/json_value.h"
#include "util/budget.h"

namespace pebblejoin {
namespace {

// A journal writing into a string, on a microsecond tick clock that
// advances by `step_us` per read — byte-stable golden lines.
struct TestJournal {
  explicit TestJournal(LogLevel min_level = LogLevel::kDebug,
                       int64_t step_us = 10)
      : journal(MakeOptions(min_level, step_us)) {
    journal.AttachStream(&sink);
  }

  Journal::Options MakeOptions(LogLevel min_level, int64_t step_us) {
    Journal::Options options;
    options.min_level = min_level;
    options.clock_us = [this, step_us] {
      return next_us.fetch_add(step_us);
    };
    return options;
  }

  std::vector<std::string> Lines() const {
    std::vector<std::string> lines;
    std::istringstream in(sink.str());
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    return lines;
  }

  // Atomic: concurrent writers read the clock outside the journal lock.
  std::atomic<int64_t> next_us{0};
  std::ostringstream sink;
  Journal journal;
};

// --- LogLevel -------------------------------------------------------------

TEST(LogLevelTest, ParseRoundTripsEveryName) {
  for (const char* name : {"debug", "info", "warn", "error", "off"}) {
    LogLevel level = LogLevel::kInfo;
    ASSERT_TRUE(ParseLogLevel(name, &level)) << name;
    EXPECT_STREQ(LogLevelName(level), name);
  }
}

TEST(LogLevelTest, ParseRejectsUnknownSpellings) {
  LogLevel level = LogLevel::kWarn;
  EXPECT_FALSE(ParseLogLevel("verbose", &level));
  EXPECT_FALSE(ParseLogLevel("", &level));
  EXPECT_FALSE(ParseLogLevel("INFO", &level));
  EXPECT_EQ(level, LogLevel::kWarn);  // untouched on failure
}

// --- Journal --------------------------------------------------------------

TEST(JournalTest, GoldenJsonlLines) {
  TestJournal t;
  t.journal.Emit(LogLevel::kInfo, "solve.end",
                 {LogField::Num("cost", 42), LogField::Str("stop", "none"),
                  LogField::Flag("degraded", false)});
  t.journal.Emit(LogLevel::kError, "verify.failed",
                 {LogField::Str("error", "bad \"scheme\"")});
  const std::vector<std::string> lines = t.Lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0],
            "{\"ts_us\":0,\"level\":\"info\",\"event\":\"solve.end\","
            "\"cost\":42,\"stop\":\"none\",\"degraded\":false}");
  EXPECT_EQ(lines[1],
            "{\"ts_us\":10,\"level\":\"error\",\"event\":\"verify.failed\","
            "\"error\":\"bad \\\"scheme\\\"\"}");
  EXPECT_EQ(t.journal.lines_written(), 2);
}

TEST(JournalTest, MinLevelFiltersAndOffSilencesEverything) {
  TestJournal t(LogLevel::kWarn);
  EXPECT_FALSE(t.journal.Passes(LogLevel::kDebug));
  EXPECT_FALSE(t.journal.Passes(LogLevel::kInfo));
  EXPECT_TRUE(t.journal.Passes(LogLevel::kWarn));
  EXPECT_TRUE(t.journal.Passes(LogLevel::kError));
  EXPECT_FALSE(t.journal.Passes(LogLevel::kOff));
  t.journal.Emit(LogLevel::kInfo, "dropped", {});
  t.journal.Emit(LogLevel::kWarn, "kept", {});
  ASSERT_EQ(t.Lines().size(), 1u);
  EXPECT_EQ(t.journal.lines_written(), 1);

  TestJournal off(LogLevel::kOff);
  off.journal.Emit(LogLevel::kError, "dropped", {});
  EXPECT_EQ(off.journal.lines_written(), 0);
}

TEST(JournalTest, NoSinkDropsEverything) {
  Journal journal;
  EXPECT_FALSE(journal.enabled());
  EXPECT_FALSE(journal.Passes(LogLevel::kError));
  journal.Emit(LogLevel::kError, "dropped", {});
  EXPECT_EQ(journal.lines_written(), 0);
}

TEST(JournalTest, ConcurrentWritersNeverTearALine) {
  TestJournal t;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&t, w] {
      for (int i = 0; i < kPerThread; ++i) {
        t.journal.Emit(LogLevel::kInfo, "tick",
                       {LogField::Num("thread", w), LogField::Num("i", i)});
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const std::vector<std::string> lines = t.Lines();
  ASSERT_EQ(lines.size(), static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ(t.journal.lines_written(), kThreads * kPerThread);
  for (const std::string& line : lines) {
    std::string error;
    ASSERT_TRUE(JsonValue::Parse(line, &error).has_value()) << line;
  }
}

// --- EventLog: ring + merge ----------------------------------------------

TEST(EventLogTest, RingEvictsOldestAndCountsDrops) {
  EventLog log(/*journal=*/nullptr, /*capacity=*/3);
  for (int i = 0; i < 5; ++i) {
    log.Emit(LogLevel::kDebug, "e", {LogField::Num("i", i)});
  }
  EXPECT_EQ(log.emitted(), 5);
  EXPECT_EQ(log.dropped(), 2);
  ASSERT_EQ(log.events().size(), 3u);
  EXPECT_EQ(log.events().front().fields[0].num, 2);
  EXPECT_EQ(log.events().back().fields[0].num, 4);
}

TEST(EventLogTest, RingRetainsLevelsTheJournalFilteredOut) {
  TestJournal t(LogLevel::kWarn);
  EventLog log(&t.journal, /*capacity=*/8);
  log.Emit(LogLevel::kDebug, "quiet", {});
  log.Emit(LogLevel::kWarn, "loud", {});
  EXPECT_EQ(t.journal.lines_written(), 1);  // only the warn passed
  EXPECT_EQ(log.events().size(), 2u);       // the ring kept both
}

TEST(EventLogTest, BaseFieldStampsEveryEvent) {
  TestJournal t;
  EventLog log(&t.journal, 8);
  log.AddBaseField(LogField::Num("line", 7));
  log.Emit(LogLevel::kInfo, "solve.begin", {LogField::Num("edges", 3)});
  const std::vector<std::string> lines = t.Lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"line\":7"), std::string::npos);
  EXPECT_NE(lines[0].find("\"edges\":3"), std::string::npos);
}

TEST(EventLogTest, MergeTagsWorkersAndTeesInMergeOrder) {
  TestJournal t;
  EventLog parent(&t.journal, 8);
  // Buffer-only children on the parent's timeline: nothing reaches the
  // journal until the merge, so the journal order is the merge order.
  EventLog child_a(8, [&parent] { return parent.NowUs(); });
  EventLog child_b(8, [&parent] { return parent.NowUs(); });
  child_b.Emit(LogLevel::kInfo, "b.first", {});
  child_a.Emit(LogLevel::kInfo, "a.first", {});
  EXPECT_EQ(t.journal.lines_written(), 0);
  parent.MergeFrom(child_a, /*worker=*/0);
  parent.MergeFrom(child_b, /*worker=*/1);
  const std::vector<std::string> lines = t.Lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"event\":\"a.first\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"worker\":0"), std::string::npos);
  EXPECT_NE(lines[1].find("\"event\":\"b.first\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"worker\":1"), std::string::npos);
  EXPECT_EQ(parent.events().size(), 2u);
}

TEST(EventLogTest, MergeCarriesChildDropCounts) {
  EventLog parent(/*journal=*/nullptr, /*capacity=*/8);
  EventLog child(/*capacity=*/2, [] { return int64_t{0}; });
  for (int i = 0; i < 5; ++i) child.Emit(LogLevel::kDebug, "e", {});
  parent.MergeFrom(child, /*worker=*/3);
  EXPECT_EQ(parent.events().size(), 2u);  // only what the child retained
  EXPECT_EQ(parent.emitted(), 5);         // 2 merged + 3 the child lost
  EXPECT_EQ(parent.dropped(), 3);
}

// --- Flight recorder ------------------------------------------------------

TEST(FlightRecorderTest, DumpReplaysRingAtWarnWithOriginalLevels) {
  TestJournal t(LogLevel::kWarn);
  EventLog log(&t.journal, 4);
  log.Emit(LogLevel::kDebug, "ladder.rung", {LogField::Num("cost", 9)});
  log.Emit(LogLevel::kInfo, "component.done", {});
  EXPECT_EQ(t.journal.lines_written(), 0);  // both below the live filter
  log.DumpFlightRecorder("deadline-expired");
  const std::vector<std::string> lines = t.Lines();
  ASSERT_EQ(lines.size(), 4u);  // header + 2 replays + footer
  EXPECT_NE(lines[0].find("\"event\":\"flight_recorder.dump\""),
            std::string::npos);
  EXPECT_NE(lines[0].find("\"reason\":\"deadline-expired\""),
            std::string::npos);
  EXPECT_NE(lines[0].find("\"retained\":2"), std::string::npos);
  EXPECT_NE(lines[1].find("\"level\":\"warn\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"replay\":\"debug\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"cost\":9"), std::string::npos);
  EXPECT_NE(lines[2].find("\"replay\":\"info\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"event\":\"flight_recorder.end\""),
            std::string::npos);
}

TEST(FlightRecorderTest, DumpReportsDropsAndIsANoOpWithoutASink) {
  TestJournal t;
  EventLog log(&t.journal, 2);
  for (int i = 0; i < 5; ++i) log.Emit(LogLevel::kDebug, "e", {});
  log.DumpFlightRecorder("node-budget-exhausted");
  ASSERT_FALSE(t.Lines().empty());
  EXPECT_NE(t.Lines()[t.Lines().size() - 4].find("\"dropped\":3"),
            std::string::npos);

  EventLog orphan(/*journal=*/nullptr, 2);
  orphan.Emit(LogLevel::kDebug, "e", {});
  orphan.DumpFlightRecorder("ignored");  // must not crash
}

// --- Engine integration ---------------------------------------------------

// Parses a journal line and strips everything that may legitimately vary
// across thread counts: timestamps, worker tags, wall clocks, and the
// echoed thread count itself.
std::string NormalizeJournalLine(const std::string& line) {
  std::string error;
  std::optional<JsonValue> doc = JsonValue::Parse(line, &error);
  EXPECT_TRUE(doc.has_value()) << error;
  std::string out;
  for (const auto& [key, value] : doc->object_members()) {
    if (key == "ts_us" || key == "worker" || key == "threads") continue;
    if (key.size() > 3 && key.compare(key.size() - 3, 3, "_us") == 0) {
      continue;
    }
    out += key + "=";
    if (value.is_string()) {
      out += value.string_value();
    } else if (value.is_number()) {
      out += std::to_string(value.int64_value().value_or(0));
    } else {
      out += value.is_bool() ? (value.bool_value() ? "true" : "false") : "?";
    }
    out += ";";
  }
  return out;
}

std::vector<std::string> SolveJournal(const BipartiteGraph& g, int threads) {
  std::ostringstream sink;
  Journal::Options journal_options;
  journal_options.min_level = LogLevel::kDebug;
  Journal journal(journal_options);
  journal.AttachStream(&sink);
  AnalyzerOptions options;
  options.solver = SolverChoice::kFallback;
  options.threads = threads;
  options.journal = &journal;
  const JoinAnalyzer analyzer(options);
  analyzer.AnalyzeJoinGraph(g, PredicateClass::kGeneral);
  std::vector<std::string> lines;
  std::istringstream in(sink.str());
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(NormalizeJournalLine(line));
  }
  return lines;
}

TEST(JournalEngineTest, ZeroDeadlineDumpsTheFlightRecorder) {
  std::ostringstream sink;
  Journal journal;
  journal.AttachStream(&sink);
  AnalyzerOptions options;
  options.solver = SolverChoice::kFallback;
  options.budget.deadline_ms = 0;
  options.journal = &journal;
  const JoinAnalyzer analyzer(options);
  const JoinAnalysis analysis =
      analyzer.AnalyzeJoinGraph(WorstCaseFamily(8), PredicateClass::kGeneral);
  // The ladder was cut short...
  ASSERT_FALSE(analysis.solution.outcomes.empty());
  EXPECT_TRUE(analysis.solution.outcomes[0].degraded());
  // ...and the journal carries the postmortem: the dump markers plus the
  // replayed debug-level rung trail the info filter would have hidden.
  const std::string text = sink.str();
  EXPECT_NE(text.find("\"event\":\"flight_recorder.dump\""),
            std::string::npos);
  EXPECT_NE(text.find("\"reason\":\"deadline-expired\""), std::string::npos);
  EXPECT_NE(text.find("\"event\":\"ladder.rung\""), std::string::npos);
  EXPECT_NE(text.find("\"replay\":\"debug\""), std::string::npos);
  EXPECT_NE(text.find("\"event\":\"flight_recorder.end\""),
            std::string::npos);
}

TEST(JournalEngineTest, HealthySolveStaysQuietAtInfo) {
  std::ostringstream sink;
  Journal journal;  // default min level: info
  journal.AttachStream(&sink);
  AnalyzerOptions options;
  options.journal = &journal;
  const JoinAnalyzer analyzer(options);
  analyzer.AnalyzeJoinGraph(WorstCaseFamily(6), PredicateClass::kGeneral);
  // One solve.end line, no dump, no debug-level noise.
  const std::vector<std::string> lines = [&] {
    std::vector<std::string> out;
    std::istringstream in(sink.str());
    std::string line;
    while (std::getline(in, line)) out.push_back(line);
    return out;
  }();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"event\":\"solve.end\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"degraded\":false"), std::string::npos);
}

TEST(JournalEngineTest, JournalIsDeterministicAcrossThreadCounts) {
  // A sparse multi-component random graph: real fan-out, many worker
  // slices, each small enough that every rung completes — the solve is
  // deterministic, so any journal difference is a merge-ordering bug.
  // (A wall-clock deadline would make the outcomes themselves depend on
  // timing; that is the solve's nondeterminism, not the journal's.)
  const BipartiteGraph g = RandomBipartiteWithEdges(30, 30, 25, 7);
  const std::vector<std::string> seq = SolveJournal(g, 1);
  const std::vector<std::string> par = SolveJournal(g, 4);
  EXPECT_EQ(seq, par);
  EXPECT_GT(seq.size(), 2u);
}

}  // namespace
}  // namespace pebblejoin
