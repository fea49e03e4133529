// Structured, leveled event journal with a per-solve flight recorder.
//
// Two pieces, mirroring the metrics/trace split (obs/metrics.h,
// obs/trace.h):
//
//   - `Journal` is the process- or session-level sink: a thread-safe,
//     leveled JSONL writer. Every event becomes one JSON object on one
//     line, so journals stream, tail, and grep like any production log.
//     The Clock (util/clock.h) is injectable (tests pin byte-stable
//     lines); the default steady clock is rebased so timestamps start near
//     zero, and an injected clock is not rebased. A journal with no
//     attached sink drops everything — emission sites stay one predicted
//     branch, the same "near-zero when off" contract the MetricsRegistry
//     handles keep.
//
//   - `EventLog` is the per-solve carrier threaded through BudgetContext
//     next to SolveStats and TraceSession. It tees passing events into
//     the journal immediately AND retains the last `capacity` events —
//     at every level, including ones the journal's min-level filtered
//     out — in a bounded ring: the flight recorder. When a solve ends
//     degraded (budget expiry, fallback below `exact`, verifier failure,
//     batch-line rejection) the engine dumps the ring, so the journal
//     carries a debug-granularity postmortem trail exactly when one is
//     needed, without paying debug-level volume on healthy solves.
//
// Threading contract: Journal::Write is safe from any thread (one mutex
// around the sink). EventLog is single-threaded, one per request thread —
// parallel drivers give each worker slice its own buffer-only EventLog
// and merge after the join barrier in index order, which is why a journal
// is byte-identical across thread counts modulo worker tags and times.

#ifndef PEBBLEJOIN_OBS_LOG_H_
#define PEBBLEJOIN_OBS_LOG_H_

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/clock.h"

namespace pebblejoin {

class JsonWriter;

// Severity of one journal event. kOff is a filter level only (nothing
// logs at kOff); the order is the filter order.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

// Printable name, e.g. "info".
const char* LogLevelName(LogLevel level);

// Parses "debug", "info", "warn", "error", "off". Returns false on any
// other spelling; *level is untouched on failure.
bool ParseLogLevel(const std::string& name, LogLevel* level);

// One typed key/value annotation on a journal event. Numbers render as
// JSON numbers, strings as JSON strings, flags as JSON booleans.
struct LogField {
  enum class Kind { kInt, kStr, kBool };

  static LogField Num(std::string key, int64_t value) {
    LogField f;
    f.key = std::move(key);
    f.num = value;
    f.kind = Kind::kInt;
    return f;
  }
  static LogField Str(std::string key, std::string value) {
    LogField f;
    f.key = std::move(key);
    f.str = std::move(value);
    f.kind = Kind::kStr;
    return f;
  }
  static LogField Flag(std::string key, bool value) {
    LogField f;
    f.key = std::move(key);
    f.num = value ? 1 : 0;
    f.kind = Kind::kBool;
    return f;
  }

  std::string key;
  std::string str;  // kStr payload
  int64_t num = 0;  // kInt / kBool payload
  Kind kind = Kind::kInt;
};

using LogFields = std::vector<LogField>;

// One journal event. `worker` is -1 on the owning thread and the
// ThreadPool worker id once EventLog::MergeFrom tags a slice's events.
struct LogEvent {
  LogLevel level = LogLevel::kInfo;
  std::string name;  // dotted event name, e.g. "ladder.rung"
  int64_t ts_us = 0;
  int worker = -1;
  LogFields fields;
};

// Writes one field as a JSON key/value pair of its kind — the one field
// writer behind journal lines and trace span args.
void WriteLogFieldJson(const LogField& field, JsonWriter* json);

// Serializes one event as one JSON object:
// {"ts_us":N,"level":"info","event":"name",<fields...>[,"worker":N]}.
// Field keys are emitted in insertion order; see docs/observability.md
// for the schema.
void WriteLogEventJson(const LogEvent& event, JsonWriter* json);

// Thread-safe, leveled JSONL sink. Starts with no sink attached (every
// write is dropped); attach a borrowed stream to enable it.
class Journal {
 public:
  struct Options {
    LogLevel min_level = LogLevel::kInfo;
    // Borrowed, must outlive the journal; tests inject one. nullptr uses
    // the steady clock rebased to construction time.
    const Clock* clock = nullptr;
  };

  Journal() : Journal(Options()) {}
  explicit Journal(Options options);

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  // Attaches a borrowed stream (e.g. &std::cerr, the CLI's --journal file,
  // a test's ostringstream). Not owned; must outlive the journal.
  void AttachStream(std::ostream* out);

  bool enabled() const { return out_ != nullptr; }
  LogLevel min_level() const { return min_level_; }

  // True when an event at `level` would actually be written.
  bool Passes(LogLevel level) const {
    return out_ != nullptr && level >= min_level_ && level != LogLevel::kOff;
  }

  int64_t NowUs() const;

  // Writes one event as one JSONL line iff Passes(event.level).
  // Thread-safe; one line is never torn across threads.
  void Write(const LogEvent& event);

  // Convenience: stamp NowUs() and Write.
  void Emit(LogLevel level, std::string name, LogFields fields);

  // Lines actually written (post-filter). Thread-safe.
  int64_t lines_written() const;

 private:
  LogLevel min_level_;
  const Clock* clock_;    // borrowed; null reads the steady clock
  int64_t epoch_us_ = 0;  // subtracted from steady-clock reads
  std::ostream* out_ = nullptr;

  mutable std::mutex mutex_;  // guards out_ writes and lines_
  int64_t lines_ = 0;
};

// Per-solve event carrier: immediate journal tee plus a bounded
// flight-recorder ring of the last `capacity` events at every level.
// Single-threaded, like SolveStats and TraceSession; BudgetContext
// carries a nullable pointer to one.
class EventLog {
 public:
  static constexpr int kDefaultCapacity = 64;

  // Root log of one request: tees into `journal` (which may be null or
  // disabled — the ring still records) and uses the journal's clock.
  EventLog(Journal* journal, int capacity);

  // Buffer-only child for one worker slice, on this log's timeline (the
  // journal's clock) with this log's capacity: no journal tee; events
  // reach the journal when the owner calls MergeFrom after the join.
  EventLog WorkerLog() const;

  // Buffer-only log that gathers several finished worker slices: MergeFrom
  // each in turn, then merge it into this log. It keeps every event — each
  // slice's own ring already decided what that slice drops — so the result
  // is the same as merging the slices into this log one by one.
  EventLog GatherLog() const;

  EventLog(EventLog&&) = default;
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  // A field stamped onto every event this log emits or merges — e.g.
  // {"line": N} so a batch journal attributes each event to its input
  // line. Set before the first Emit.
  void AddBaseField(LogField field);

  // Records one event: stamps the clock, appends the base fields, tees
  // to the journal when its level passes, and retains it in the ring
  // (evicting the oldest once past capacity).
  void Emit(LogLevel level, std::string name, LogFields fields);

  // Appends every retained event of a finished worker slice, tagged with
  // `worker`, in the slice's order: journal tee plus ring retention.
  // Calling this in slice-index order after the join barrier is what
  // makes a parallel solve's journal deterministic.
  void MergeFrom(const EventLog& other, int worker);

  // Re-emits the retained ring into the journal — every level, including
  // events the live min-level filtered out — bracketed by warn-level
  // "flight_recorder.dump"/"flight_recorder.end" markers carrying `reason`
  // and the drop count. Replayed events are raised to warn (so they pass
  // the live filter) and carry "replay":"<original-level>". No-op without
  // a journal passing warn.
  void DumpFlightRecorder(const std::string& reason);

  int64_t NowUs() const;
  int capacity() const { return capacity_; }
  const std::deque<LogEvent>& events() const { return ring_; }
  int64_t emitted() const { return emitted_; }  // total seen, pre-eviction
  int64_t dropped() const { return dropped_; }  // evicted from the ring

 private:
  void Retain(LogEvent event);

  Journal* journal_ = nullptr;  // borrowed; may be null; the timeline
  bool tee_ = true;             // false for buffer-only worker logs
  int capacity_;
  LogFields base_;
  std::deque<LogEvent> ring_;
  int64_t emitted_ = 0;
  int64_t dropped_ = 0;
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_OBS_LOG_H_
