// Tests for the observability layer: JsonWriter, SolveStats,
// MetricsRegistry, TraceSession, and the end-to-end stats threading
// (deterministic counters under a FakeClock, trace golden output).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/analyzer.h"
#include "core/report.h"
#include "graph/generators.h"
#include "obs/json.h"
#include "obs/json_value.h"
#include "obs/metrics.h"
#include "obs/probe.h"
#include "obs/solve_stats.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "solver/exact_pebbler.h"
#include "tsp/tsp12.h"
#include "util/budget.h"
#include "util/clock.h"

#ifndef PEBBLEJOIN_STATS_GOLDEN_FILE
#error "PEBBLEJOIN_STATS_GOLDEN_FILE must name tests/golden/solve_stats_golden.txt"
#endif

namespace pebblejoin {
namespace {

// --- JsonWriter -----------------------------------------------------------

TEST(JsonWriterTest, NestedDocument) {
  JsonWriter json;
  json.BeginObject();
  json.Field("name", "pebble");
  json.Field("count", int64_t{42});
  json.Field("ratio", 1.25);
  json.Field("ok", true);
  json.Key("items");
  json.BeginArray();
  json.Int(1);
  json.Int(2);
  json.EndArray();
  json.Key("empty");
  json.BeginObject();
  json.EndObject();
  json.EndObject();
  EXPECT_EQ(json.str(),
            "{\"name\":\"pebble\",\"count\":42,\"ratio\":1.25,\"ok\":true,"
            "\"items\":[1,2],\"empty\":{}}");
}

TEST(JsonWriterTest, EscapesControlCharactersAndQuotes) {
  JsonWriter json;
  json.String("a\"b\\c\nd");
  EXPECT_EQ(json.str(), "\"a\\\"b\\\\c\\nd\"");
}

TEST(JsonWriterTest, LongKeysAndEscapesInKeysAndValues) {
  JsonWriter json;
  json.BeginObject();
  // Longer than a short-string buffer.
  json.Field("a_key_longer_than_fifteen_bytes", int64_t{1});
  // Quotes, backslashes and every class of control byte, in a key and in
  // a value; DEL and bytes >= 0x80 pass through.
  json.Field("k\"\\\x01\x1f\b\f\n\r\t", "v\"\\\x02\x1e\x7f\xc3\xa9");
  json.Key(std::string("nul\0key", 7));
  json.String(std::string("nul\0value", 9));
  json.EndObject();
  EXPECT_EQ(json.str(),
            "{\"a_key_longer_than_fifteen_bytes\":1,"
            "\"k\\\"\\\\\\u0001\\u001f\\b\\f\\n\\r\\t\":"
            "\"v\\\"\\\\\\u0002\\u001e\x7f\xc3\xa9\","
            "\"nul\\u0000key\":\"nul\\u0000value\"}");
}

TEST(JsonWriterTest, Int64Extremes) {
  JsonWriter json;
  json.BeginArray();
  json.Int(std::numeric_limits<int64_t>::min());
  json.Int(std::numeric_limits<int64_t>::max());
  json.Int(0);
  json.Int(-1);
  json.EndArray();
  EXPECT_EQ(json.str(),
            "[-9223372036854775808,9223372036854775807,0,-1]");
}

TEST(JsonWriterTest, StringLiteralFieldsAreStrings) {
  // A literal must not bind to the bool overload.
  JsonWriter json;
  json.BeginObject();
  json.Field("k", "literal");
  const char* pointer = "pointer";
  json.Field("p", pointer);
  json.Field("s", std::string("string"));
  json.Field("b", false);
  json.EndObject();
  EXPECT_EQ(json.str(),
            "{\"k\":\"literal\",\"p\":\"pointer\",\"s\":\"string\","
            "\"b\":false}");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter json;
  json.BeginArray();
  json.Double(1.0 / 0.0);
  json.Double(0.0 / 0.0);
  json.EndArray();
  EXPECT_EQ(json.str(), "[null,null]");
}

// --- SolveStats -----------------------------------------------------------

TEST(SolveStatsTest, AddAccumulatesAndMaxesTimeToStop) {
  SolveStats a;
  a.bnb_nodes_expanded = 10;
  a.budget_time_to_stop_ms = -1;
  SolveStats b;
  b.bnb_nodes_expanded = 5;
  b.hk_solves = 1;
  b.budget_time_to_stop_ms = 7;
  a.Add(b);
  EXPECT_EQ(a.bnb_nodes_expanded, 15);
  EXPECT_EQ(a.hk_solves, 1);
  EXPECT_EQ(a.budget_time_to_stop_ms, 7);  // -1 loses to a real stop time
}

// Every rendered field gets its own value, so a field that moves, drops,
// or reads another field's storage changes the bytes. The perf totals are
// the sums of the per-stage counts.
SolveStats DistinctStats(const std::string& perf) {
  SolveStats s;
  s.bnb_nodes_expanded = 101;
  s.bnb_prunes_component = 102;
  s.bnb_prunes_deficiency = 103;
  s.bnb_incumbent_updates = 104;
  s.hk_solves = 105;
  s.hk_subsets_materialized = 106;
  s.hk_table_bytes = 107;
  s.ls_passes = 108;
  s.ls_moves_accepted = 109;
  s.ils_iterations = 110;
  s.ils_kicks_accepted = 111;
  s.rungs_attempted = 112;
  s.rungs_declined = 113;
  s.planner_plans = 114;
  s.planner_predicted_rung = 115;
  s.planner_actual_rung = 116;
  s.planner_rungs_skipped = 117;
  s.planner_budget_saved_ms = 118;
  s.budget_polls = 119;
  s.budget_time_to_stop_ms = 120;
  s.solve_wall_us = 121;
  for (int i = 0; i < kNumPipelineStages; ++i) {
    s.stages[i].wall_us = 201 + i;
    s.stages[i].perf.cycles = 3001 + i;
    s.stages[i].perf.instructions = 4001 + i;
    s.stages[i].perf.cache_misses = 501 + i;
  }
  // Rendered only as totals (perf_cache_references, perf_branch_misses).
  s.stage(PipelineStage::kBuild).perf.cache_references = 6001;
  s.stage(PipelineStage::kBuild).perf.branch_misses = 701;
  s.bnb_perf.cycles = 801;
  s.bnb_perf.cache_misses = 802;
  s.hk_perf.cycles = 803;
  s.hk_perf.cache_misses = 804;
  s.ls_perf.cycles = 805;
  s.ls_perf.cache_misses = 806;
  s.perf = perf;
  return s;
}

// The four stats surfaces of one request, in one document.
std::string RenderStatsSurfaces(const SolveStats& stats) {
  JsonWriter json;
  stats.WriteJson(&json);
  JoinAnalysis analysis;
  analysis.stats = stats;
  MetricsRegistry registry(/*enabled=*/true);
  stats.PublishTo(&registry);
  return "--- WriteJson\n" + json.str() + "\n--- FormatHuman\n" +
         stats.FormatHuman("  ") + "--- FormatPerfStats\n" +
         FormatPerfStats(analysis) + "--- OpenMetrics\n" +
         registry.OpenMetricsText();
}

// Byte golden for every stats surface: WriteJson, FormatHuman("  "),
// FormatPerfStats and the OpenMetrics text after PublishTo, with perf
// counting and with perf off. On a mismatch the rendered document is
// written next to the test's temp files; when an output change is
// intended, copy it over the golden below the comment header.
TEST(SolveStatsTest, JsonAndHumanRenderingsCarryEveryField) {
  const std::string actual =
      "=== perf=ok\n" + RenderStatsSurfaces(DistinctStats("ok")) +
      "=== perf=off\n" + RenderStatsSurfaces(DistinctStats("off"));
  std::ifstream in(PEBBLEJOIN_STATS_GOLDEN_FILE);
  ASSERT_TRUE(in.good()) << PEBBLEJOIN_STATS_GOLDEN_FILE;
  std::ostringstream file;
  file << in.rdbuf();
  const std::string golden = file.str();
  const size_t begin = golden.find("=== perf=ok\n");
  if (begin == std::string::npos ||
      golden.compare(begin, std::string::npos, actual) != 0) {
    const std::string path = testing::TempDir() + "/solve_stats_golden.txt";
    std::ofstream(path) << actual;
    ADD_FAILURE() << "stats surfaces differ from the golden; rendered: "
                  << path;
  }
}

// --- MetricsRegistry ------------------------------------------------------

TEST(MetricsRegistryTest, DisabledRegistryMintsNoOpHandles) {
  MetricsRegistry registry(/*enabled=*/false);
  Counter counter = registry.FindOrCreateCounter("c");
  Gauge gauge = registry.FindOrCreateGauge("g");
  Histogram histogram = registry.FindOrCreateHistogram("h");
  EXPECT_TRUE(counter.is_noop());
  EXPECT_TRUE(gauge.is_noop());
  EXPECT_TRUE(histogram.is_noop());
  counter.Increment();
  gauge.Set(5);
  histogram.Record(10);
  EXPECT_EQ(counter.Get(), 0);
  EXPECT_EQ(gauge.Get(), 0);
  EXPECT_EQ(histogram.Count(), 0);
  // Nothing registered: the exposition is just its terminator.
  EXPECT_EQ(registry.OpenMetricsText(), "# EOF\n");
}

TEST(MetricsRegistryTest, CountersSurviveConcurrentIncrements) {
  MetricsRegistry registry(/*enabled=*/true);
  Counter counter = registry.FindOrCreateCounter("shared");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry]() {
      // Each thread mints its own handle — same underlying cell.
      Counter local = registry.FindOrCreateCounter("shared");
      for (int i = 0; i < kIncrements; ++i) local.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Get(), int64_t{kThreads} * kIncrements);
}

TEST(MetricsRegistryTest, HistogramTracksCountSumMinMax) {
  MetricsRegistry registry(/*enabled=*/true);
  Histogram h = registry.FindOrCreateHistogram("latency_us");
  h.Record(0);
  h.Record(3);
  h.Record(100);
  EXPECT_EQ(h.Count(), 3);
  EXPECT_EQ(h.Sum(), 103);
  const std::string text = registry.OpenMetricsText();
  EXPECT_NE(text.find("pebblejoin_latency_us_sum 103\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("pebblejoin_latency_us_count 3\n"), std::string::npos);
  // Min and max live on the cell, where the windows' quantile clamp reads
  // them.
  obs_internal::HistogramCell cell;
  for (const int64_t v : {3, 0, 100}) cell.Record(v);
  EXPECT_EQ(cell.min.load(), 0);
  EXPECT_EQ(cell.max.load(), 100);
  cell.Reset();
  EXPECT_EQ(cell.min.load(), INT64_MAX);
  EXPECT_EQ(cell.max.load(), INT64_MIN);
}

TEST(MetricsRegistryTest, SnapshotIsValidForRegisteredMetrics) {
  MetricsRegistry registry(/*enabled=*/true);
  registry.FindOrCreateCounter("a").Add(2);
  registry.FindOrCreateGauge("b").Set(-7);
  EXPECT_EQ(registry.OpenMetricsText(),
            "# TYPE pebblejoin_a counter\n"
            "pebblejoin_a_total 2\n"
            "# TYPE pebblejoin_b gauge\n"
            "pebblejoin_b -7\n"
            "# EOF\n");
}

TEST(SolveStatsTest, PublishToFoldsIntoRegistry) {
  MetricsRegistry registry(/*enabled=*/true);
  SolveStats stats;
  stats.bnb_nodes_expanded = 11;
  stats.solve_wall_us = 250;
  stats.PublishTo(&registry);
  stats.PublishTo(&registry);  // folds accumulate
  EXPECT_EQ(registry.FindOrCreateCounter("solve.bnb_nodes_expanded").Get(),
            22);
  EXPECT_EQ(registry.FindOrCreateHistogram("solve.wall_us").Count(), 2);
  MetricsRegistry disabled(/*enabled=*/false);
  stats.PublishTo(&disabled);  // no-op, no crash
}

// --- TraceSession ---------------------------------------------------------

TEST(TraceSessionTest, GoldenChromeTraceJson) {
  FakeClock clock;
  clock.AdvanceUs(100);
  TraceSession trace(&clock);
  trace.Instant("dispatch", "solver", {TraceArg::Str("method", "held-karp")});
  clock.AdvanceUs(50);
  trace.Complete("exact", "rung", /*start_us=*/100, /*duration_us=*/50,
                 {TraceArg::Num("cost", 12)});
  EXPECT_EQ(trace.num_events(), 2u);
  EXPECT_EQ(
      trace.ToJson(),
      "{\"traceEvents\":["
      "{\"name\":\"dispatch\",\"cat\":\"solver\",\"ph\":\"i\",\"ts\":100,"
      "\"s\":\"t\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"method\":\"held-karp\"}},"
      "{\"name\":\"exact\",\"cat\":\"rung\",\"ph\":\"X\",\"ts\":100,"
      "\"dur\":50,\"pid\":1,\"tid\":1,\"args\":{\"cost\":12}}"
      "],\"displayTimeUnit\":\"ms\"}");
}

TEST(TraceSessionTest, SpanRecordsItsLifetime) {
  FakeClock clock;
  clock.AdvanceUs(10);
  TraceSession trace(&clock);
  {
    Probe span = Probe::Span("work", "test", &trace);
    span.AddNum("n", 3);
    span.AddStr("kind", "leaf");
    clock.AdvanceUs(25);
  }
  EXPECT_EQ(trace.num_events(), 1u);
  EXPECT_EQ(trace.ToJson(),
            "{\"traceEvents\":["
            "{\"name\":\"work\",\"cat\":\"test\",\"ph\":\"X\",\"ts\":10,"
            "\"dur\":25,\"pid\":1,\"tid\":1,"
            "\"args\":{\"n\":3,\"kind\":\"leaf\"}}"
            "],\"displayTimeUnit\":\"ms\"}");
}

TEST(TraceSessionTest, SpanEndsAtStopNotAtScopeExit) {
  FakeClock clock;
  TraceSession trace(&clock);
  {
    Probe probe = Probe::Timed("rung", "test", &trace);
    clock.AdvanceUs(7);
    probe.AddNum("cost", 4);
    probe.Stop();
    probe.AddNum("late", 1);  // after Stop: not carried
    clock.AdvanceUs(93);
  }  // the destructor records nothing more
  EXPECT_EQ(trace.num_events(), 1u);
  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"dur\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cost\":4"), std::string::npos) << json;
  EXPECT_EQ(json.find("late"), std::string::npos) << json;
}

TEST(TraceSessionTest, TracedProbeWallIsItsSpanDuration) {
  // A traced probe reads the session's clock at both ends, so its wall_us
  // is exactly the span's dur — a FakeClock's 1234 us here, which no read
  // of the steady clock would return.
  FakeClock clock;
  TraceSession trace(&clock);
  Probe probe = Probe::Timed("stage", "test", &trace);
  clock.AdvanceUs(1234);
  EXPECT_EQ(probe.Stop().wall_us, 1234);
  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"dur\":1234,"), std::string::npos) << json;
}

TEST(TraceSessionTest, NullSessionSpanIsNoOp) {
  Probe span = Probe::Span("ignored", "test", nullptr);
  span.AddNum("n", 1);  // must not crash
  span.AddStr("s", "x");
  EXPECT_EQ(span.Stop().wall_us, 0);  // an untimed span reads no clock
}

TEST(TraceSessionTest, WriteFileRejectsBadPath) {
  TraceSession trace;
  std::string error;
  EXPECT_FALSE(trace.WriteFile("/nonexistent-dir/trace.json", &error));
  EXPECT_FALSE(error.empty());
}

// --- End-to-end stats threading ------------------------------------------

// The exact pebbler on a fixed instance produces identical search counters
// run to run: the telemetry reflects the (deterministic) algorithm, with
// only the wall-clock fields varying.
TEST(StatsThreadingTest, ExactSolveCountersAreDeterministic) {
  const Graph g = WorstCaseFamily(6).ToGraph();
  SolveStats runs[2];
  for (SolveStats& stats : runs) {
    FakeClock clock;
    BudgetContext budget(SolveBudget{}, &clock);
    budget.set_stats(&stats);
    const ExactPebbler exact;
    ASSERT_TRUE(exact.PebbleConnected(g, &budget).has_value());
    stats.budget_polls = budget.polls();
    stats.budget_time_to_stop_ms = budget.stopped_elapsed_ms();
  }
  EXPECT_GT(runs[0].hk_solves + runs[0].bnb_nodes_expanded, 0);
  EXPECT_EQ(runs[0].hk_solves, runs[1].hk_solves);
  EXPECT_EQ(runs[0].hk_subsets_materialized, runs[1].hk_subsets_materialized);
  EXPECT_EQ(runs[0].bnb_nodes_expanded, runs[1].bnb_nodes_expanded);
  EXPECT_EQ(runs[0].bnb_prunes_component, runs[1].bnb_prunes_component);
  EXPECT_EQ(runs[0].bnb_prunes_deficiency, runs[1].bnb_prunes_deficiency);
  EXPECT_EQ(runs[0].budget_polls, runs[1].budget_polls);
  EXPECT_EQ(runs[0].budget_time_to_stop_ms, -1);  // never stopped
}

// The analyzer fills JoinAnalysis::stats and per-rung timings, and the JSON
// report carries them.
TEST(StatsThreadingTest, AnalyzerSurfacesStatsAndRungTimings) {
  AnalyzerOptions options;
  options.solver = SolverChoice::kFallback;
  const JoinAnalyzer analyzer(options);
  const JoinAnalysis analysis =
      analyzer.AnalyzeJoinGraph(WorstCaseFamily(5), PredicateClass::kGeneral);
  EXPECT_GE(analysis.stats.rungs_attempted, 1);
  EXPECT_GE(analysis.stats.solve_wall_us, 0);
  ASSERT_FALSE(analysis.solution.outcomes.empty());
  ASSERT_FALSE(analysis.solution.outcomes[0].attempts.empty());
  EXPECT_GE(analysis.solution.outcomes[0].attempts[0].elapsed_us, 0);

  const std::string json = AnalysisJson(analysis);
  EXPECT_NE(json.find("\"stats\":{"), std::string::npos);
  EXPECT_NE(json.find("\"rungs_attempted\""), std::string::npos);
  EXPECT_NE(json.find("\"elapsed_us\""), std::string::npos);

  const std::string stats_text = FormatAnalysis(analysis, /*with_stats=*/true);
  EXPECT_NE(stats_text.find("solver stats"), std::string::npos);
  EXPECT_NE(stats_text.find("us]"), std::string::npos);  // rung timing

  // Without stats the rendering keeps its original shape.
  const std::string plain = FormatAnalysis(analysis);
  EXPECT_EQ(plain.find("solver stats"), std::string::npos);
  EXPECT_EQ(plain.find("us]"), std::string::npos);
}

// The analyzer attaches the AnalyzerOptions trace session and rung spans
// land on it.
TEST(StatsThreadingTest, AnalyzerEmitsTraceEvents) {
  TraceSession trace;
  AnalyzerOptions options;
  options.solver = SolverChoice::kFallback;
  options.trace = &trace;
  const JoinAnalyzer analyzer(options);
  analyzer.AnalyzeJoinGraph(WorstCaseFamily(5), PredicateClass::kGeneral);
  EXPECT_GT(trace.num_events(), 0u);
  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"ladder\""), std::string::npos);
  EXPECT_NE(json.find("\"component\""), std::string::npos);
}

// --- JsonValue (the read side of JsonWriter) ------------------------------

TEST(JsonValueTest, ParsesEveryKind) {
  std::string error;
  const std::optional<JsonValue> doc = JsonValue::Parse(
      R"({"s": "hi", "n": 3.5, "i": -42, "b": true, "z": null,)"
      R"( "a": [1, 2, 3], "o": {"k": false}})",
      &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->Find("s")->string_value(), "hi");
  EXPECT_DOUBLE_EQ(doc->Find("n")->number_value(), 3.5);
  EXPECT_FALSE(doc->Find("n")->int64_value().has_value());  // not integral
  EXPECT_EQ(doc->Find("i")->int64_value().value_or(0), -42);
  EXPECT_TRUE(doc->Find("b")->bool_value());
  EXPECT_TRUE(doc->Find("z")->is_null());
  ASSERT_TRUE(doc->Find("a")->is_array());
  EXPECT_EQ(doc->Find("a")->array_items().size(), 3u);
  EXPECT_FALSE(doc->Find("o")->Find("k")->bool_value());
  EXPECT_EQ(doc->Find("missing"), nullptr);
}

TEST(JsonValueTest, RoundTripsJsonWriterOutput) {
  // What the writer emits the reader must accept — the contract the batch
  // runner's error records and analysis lines rest on.
  JsonWriter writer;
  writer.BeginObject();
  writer.Field("text", "line1\nline2\t\"quoted\"");
  writer.Field("count", int64_t{9007199254740993});
  writer.Field("ratio", 1.25);
  writer.EndObject();
  std::string error;
  const std::optional<JsonValue> doc = JsonValue::Parse(writer.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->Find("text")->string_value(), "line1\nline2\t\"quoted\"");
  EXPECT_EQ(doc->Find("count")->int64_value().value_or(0),
            9007199254740993);
  EXPECT_DOUBLE_EQ(doc->Find("ratio")->number_value(), 1.25);
}

TEST(JsonValueTest, DecodesEscapesAndSurrogatePairs) {
  std::string error;
  const std::optional<JsonValue> doc =
      JsonValue::Parse(R"("a\u00e9b\ud83d\ude00c\/d")", &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->string_value(),
            "a\xC3\xA9"           // é
            "b\xF0\x9F\x98\x80"   // 😀 via surrogate pair
            "c/d");
}

TEST(JsonValueTest, RejectsMalformedInputWithByteOffsets) {
  const char* bad[] = {
      "",             // empty
      "{",            // unterminated object
      "[1, 2",        // unterminated array
      "{\"a\" 1}",    // missing colon
      "tru",          // bad literal
      "1.2.3",        // trailing characters
      "\"\\u12\"",    // truncated escape
      "\"\\ud800x\"", // unpaired high surrogate
      "01e",          // bad exponent
      "{} {}",        // two documents
  };
  for (const char* text : bad) {
    std::string error;
    EXPECT_FALSE(JsonValue::Parse(text, &error).has_value()) << text;
    EXPECT_NE(error.find("at byte"), std::string::npos) << text;
  }
}

TEST(JsonValueTest, DepthCapTurnsRecursionIntoAnError) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "[";
  std::string error;
  EXPECT_FALSE(JsonValue::Parse(deep, &error).has_value());
  EXPECT_NE(error.find("nesting too deep"), std::string::npos);
}

TEST(JsonValueTest, SizeCapTurnsOversizedInputIntoAnError) {
  JsonValue::ParseLimits limits;
  limits.max_bytes = 64;
  std::string error;

  // Oversized input is refused before the first byte is parsed — even
  // when it is valid JSON.
  const std::string big = "\"" + std::string(100, 'x') + "\"";
  EXPECT_FALSE(JsonValue::Parse(big, &error, limits).has_value());
  EXPECT_NE(error.find("input exceeds 64 bytes"), std::string::npos) << error;

  // At the cap exactly, parsing proceeds.
  const std::string fits = "\"" + std::string(62, 'x') + "\"";
  ASSERT_EQ(fits.size(), 64u);
  EXPECT_TRUE(JsonValue::Parse(fits, &error, limits).has_value()) << error;

  // Non-positive max_bytes falls back to the 64 MiB default backstop, so
  // ordinary documents keep parsing.
  limits.max_bytes = 0;
  EXPECT_TRUE(JsonValue::Parse(big, &error, limits).has_value()) << error;
}

TEST(JsonValueTest, SizeCapErrorIsDeterministicNotAPrefixParse) {
  // A truncation-shaped attack: a huge open string. The cap must answer
  // with the size error, never attempt the allocation-heavy parse.
  JsonValue::ParseLimits limits;
  limits.max_bytes = 1024;
  std::string hostile = "\"";
  hostile.append(4096, 'a');  // unterminated on purpose
  std::string error;
  EXPECT_FALSE(JsonValue::Parse(hostile, &error, limits).has_value());
  EXPECT_NE(error.find("input exceeds"), std::string::npos) << error;
}

TEST(JsonValueTest, EmbeddedNulBytesAreAParseErrorNotATruncation) {
  // NUL inside a string literal is not printable JSON; the parser must
  // reject it (control characters must be escaped) rather than silently
  // truncating at the first NUL.
  std::string text = "{\"k\": \"a";
  text.push_back('\0');
  text += "b\"}";
  std::string error;
  EXPECT_FALSE(JsonValue::Parse(text, &error).has_value());
  EXPECT_NE(error.find("at byte"), std::string::npos) << error;

  // NUL between tokens is equally fatal — not whitespace.
  std::string between = "{}";
  between.push_back('\0');
  EXPECT_FALSE(JsonValue::Parse(between, &error).has_value());
}

TEST(JsonValueTest, TruncatedLinesReportTheTruncationPoint) {
  // The serve layer can hand the parser a line cut mid-flight by a
  // disconnect; every prefix must fail cleanly with an offset, not crash.
  const std::string full = R"({"graph": "bipartite 2 2", "deadline_ms": 5})";
  for (size_t cut = 0; cut + 1 < full.size(); ++cut) {
    std::string error;
    EXPECT_FALSE(JsonValue::Parse(full.substr(0, cut), &error).has_value())
        << "prefix of " << cut << " bytes parsed unexpectedly";
    EXPECT_NE(error.find("at byte"), std::string::npos) << error;
  }
}

TEST(JsonValueTest, DuplicateKeysKeepTheLastValue) {
  std::string error;
  const std::optional<JsonValue> doc =
      JsonValue::Parse(R"({"k": 1, "k": 2})", &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->Find("k")->int64_value().value_or(0), 2);
  EXPECT_EQ(doc->object_members().size(), 2u);  // order preserved
}

// --- Histogram buckets and percentiles ------------------------------------

TEST(HistogramTest, BucketBoundariesArePinned) {
  // Bucket 0 holds zeros; bucket i holds [2^(i-1), 2^i), rendered as the
  // inclusive OpenMetrics bound le="2^i - 1". These boundaries are
  // load-bearing: the `le` labels and the quantile estimator both derive
  // from them.
  MetricsRegistry registry(/*enabled=*/true);
  Histogram h = registry.FindOrCreateHistogram("b");
  h.Record(0);   // bucket 0, le="0"
  h.Record(1);   // bucket 1, le="1"
  h.Record(2);   // bucket 2, le="3"
  h.Record(3);   // bucket 2, le="3"
  h.Record(4);   // bucket 3, le="7"
  h.Record(7);   // bucket 3, le="7"
  h.Record(8);   // bucket 4, le="15"
  EXPECT_EQ(registry.OpenMetricsText(),
            "# TYPE pebblejoin_b histogram\n"
            "pebblejoin_b_bucket{le=\"0\"} 1\n"
            "pebblejoin_b_bucket{le=\"1\"} 2\n"
            "pebblejoin_b_bucket{le=\"3\"} 4\n"
            "pebblejoin_b_bucket{le=\"7\"} 6\n"
            "pebblejoin_b_bucket{le=\"15\"} 7\n"
            "pebblejoin_b_bucket{le=\"+Inf\"} 7\n"
            "pebblejoin_b_sum 25\n"
            "pebblejoin_b_count 7\n"
            "# EOF\n");
}

// The quantile estimate the windows report, over one recorded cell.
int64_t CellQuantile(const obs_internal::HistogramCell& cell, double q) {
  int64_t buckets[obs_internal::HistogramCell::kNumBuckets];
  for (int i = 0; i < obs_internal::HistogramCell::kNumBuckets; ++i) {
    buckets[i] = cell.buckets[i].load();
  }
  return obs_internal::InterpolateQuantile(buckets, cell.count.load(),
                                           cell.min.load(), cell.max.load(),
                                           q);
}

TEST(HistogramTest, ApproxQuantileIsExactWhenOneValueFillsOneBucket) {
  obs_internal::HistogramCell cell;
  for (int i = 0; i < 10; ++i) cell.Record(5);
  // All samples in one bucket with min == max: the clamp makes the
  // estimate exact at every quantile.
  EXPECT_EQ(CellQuantile(cell, 0.0), 5);
  EXPECT_EQ(CellQuantile(cell, 0.5), 5);
  EXPECT_EQ(CellQuantile(cell, 0.99), 5);
  EXPECT_EQ(CellQuantile(cell, 1.0), 5);
}

TEST(HistogramTest, ApproxQuantileIsMonotoneAndWithinObservedRange) {
  obs_internal::HistogramCell cell;
  for (int64_t v : {1, 2, 4, 9, 17, 33, 120, 700, 5000, 40000}) cell.Record(v);
  const int64_t p50 = CellQuantile(cell, 0.50);
  const int64_t p95 = CellQuantile(cell, 0.95);
  const int64_t p99 = CellQuantile(cell, 0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, 1);
  EXPECT_LE(p99, 40000);
}

TEST(HistogramTest, EmptyHistogramQuantileIsMinusOne) {
  // An empty histogram has no quantile: OpenMetrics renders no finite
  // bucket and a zero count, and the windowed view that reports quantiles
  // gives its -1 sentinel.
  MetricsRegistry registry(/*enabled=*/true);
  registry.FindOrCreateHistogram("empty");
  EXPECT_EQ(registry.OpenMetricsText(),
            "# TYPE pebblejoin_empty histogram\n"
            "pebblejoin_empty_bucket{le=\"+Inf\"} 0\n"
            "pebblejoin_empty_sum 0\n"
            "pebblejoin_empty_count 0\n"
            "# EOF\n");
  EXPECT_EQ(Histogram().Count(), 0);  // null handle
  const WindowedHistogram window;
  EXPECT_EQ(window.Aggregate(/*now_ms=*/0, window.window_span_ms()).p50, -1);
}

TEST(PercentileOfSamplesTest, NearestRankIsExact) {
  const std::vector<int64_t> samples = {5, 1, 4, 2, 3};
  EXPECT_EQ(PercentileOfSamples(samples, 0.0), 1);   // rank clamps to 1
  EXPECT_EQ(PercentileOfSamples(samples, 0.50), 3);  // ceil(2.5) = rank 3
  EXPECT_EQ(PercentileOfSamples(samples, 0.95), 5);
  EXPECT_EQ(PercentileOfSamples(samples, 1.0), 5);
  EXPECT_EQ(PercentileOfSamples({}, 0.5), -1);
  EXPECT_EQ(PercentileOfSamples({7}, 0.5), 7);
}

TEST(PercentileOfSamplesTest, ReportsComponentWallPercentilesOfUnsortedSamples) {
  JoinAnalysis analysis;
  for (int64_t us = 100; us >= 1; --us) {
    analysis.solution.component_wall_us.push_back(us);
  }
  EXPECT_NE(AnalysisJson(analysis).find(
                "\"component_wall_p50_us\":50,\"component_wall_p95_us\":95,"
                "\"component_wall_p99_us\":99,"),
            std::string::npos);
  EXPECT_NE(FormatAnalysis(analysis, /*with_stats=*/true)
                .find("component wall : p50=50us p95=95us p99=99us "
                      "(100 components)\n"),
            std::string::npos);
  analysis.solution.component_wall_us.clear();
  EXPECT_NE(AnalysisJson(analysis).find(
                "\"component_wall_p50_us\":-1,\"component_wall_p95_us\":-1,"
                "\"component_wall_p99_us\":-1,"),
            std::string::npos);
}

// --- OpenMetrics exposition -----------------------------------------------

TEST(OpenMetricsTest, EmptyRegistryIsJustEof) {
  MetricsRegistry registry(/*enabled=*/true);
  EXPECT_EQ(registry.OpenMetricsText(), "# EOF\n");
}

TEST(OpenMetricsTest, CountersGaugesAndHistogramsRenderInFullForm) {
  MetricsRegistry registry(/*enabled=*/true);
  registry.FindOrCreateCounter("solve.requests").Add(3);
  registry.FindOrCreateGauge("pool.workers").Set(4);
  Histogram h = registry.FindOrCreateHistogram("solve.wall_us");
  h.Record(0);
  h.Record(3);
  h.Record(3);
  const std::string text = registry.OpenMetricsText();
  // Counter family: TYPE line + `_total` sample, dots sanitized.
  EXPECT_NE(text.find("# TYPE pebblejoin_solve_requests counter\n"
                      "pebblejoin_solve_requests_total 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE pebblejoin_pool_workers gauge\n"
                      "pebblejoin_pool_workers 4\n"),
            std::string::npos);
  // Histogram: cumulative buckets with exact inclusive int bounds — the
  // zeros bucket is le="0", [2,4) is le="3" — ending at +Inf, then
  // sum/count.
  EXPECT_NE(
      text.find("# TYPE pebblejoin_solve_wall_us histogram\n"
                "pebblejoin_solve_wall_us_bucket{le=\"0\"} 1\n"
                "pebblejoin_solve_wall_us_bucket{le=\"3\"} 3\n"
                "pebblejoin_solve_wall_us_bucket{le=\"+Inf\"} 3\n"
                "pebblejoin_solve_wall_us_sum 6\n"
                "pebblejoin_solve_wall_us_count 3\n"),
      std::string::npos)
      << text;
  // Terminal EOF marker, exactly once, at the end.
  EXPECT_EQ(text.rfind("# EOF\n"), text.size() - 6);
}

TEST(OpenMetricsTest, OutputIsDeterministic) {
  MetricsRegistry registry(/*enabled=*/true);
  registry.FindOrCreateCounter("z.last").Add(1);
  registry.FindOrCreateCounter("a.first").Add(1);
  const std::string text = registry.OpenMetricsText();
  EXPECT_LT(text.find("pebblejoin_a_first_total"),
            text.find("pebblejoin_z_last_total"));
  EXPECT_EQ(text, registry.OpenMetricsText());
}

}  // namespace
}  // namespace pebblejoin
