// Structured trace events with Chrome-trace JSON export.
//
// A TraceSession records spans (complete events, phase "X") and instant
// events (phase "i") on a single timeline and serializes them in the Chrome
// trace-event format, loadable in chrome://tracing or https://ui.perfetto.dev.
// The session is attached to a solve through BudgetContext (like the
// SolveStats sink); instrumentation sites record spans through a Probe
// (obs/probe.h), so a null session costs one branch.
//
// Timestamps come from a Clock (util/clock.h) — tests inject one for
// byte-stable golden output; the default is the steady clock, rebased so
// traces start near zero. An injected clock is not rebased.
//
// Not thread-safe: one session per request thread, matching BudgetContext.

#ifndef PEBBLEJOIN_OBS_TRACE_H_
#define PEBBLEJOIN_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/log.h"
#include "util/clock.h"

namespace pebblejoin {

// One key/value annotation on a trace event: the journal's typed field, so
// numbers render as JSON numbers (counters read better in the trace viewer)
// and strings as JSON strings, through the journal's field writer.
using TraceArg = LogField;
using TraceArgs = LogFields;

class TraceSession {
 public:
  // `clock` is borrowed and must outlive the session; null uses the steady
  // clock rebased to the session start.
  explicit TraceSession(const Clock* clock = nullptr);

  // An empty session on this one's timeline (same clock, same epoch) for
  // one worker slice; MergeFrom folds it back after the join.
  TraceSession WorkerSession() const;

  int64_t NowUs() const { return pebblejoin::NowUs(clock_) - epoch_us_; }

  // Records an instant event at NowUs().
  void Instant(const std::string& name, const std::string& category,
               TraceArgs args = {});

  // Records a complete span [start_us, start_us + duration_us].
  void Complete(const std::string& name, const std::string& category,
                int64_t start_us, int64_t duration_us, TraceArgs args = {});

  // Appends every event of `other` to this session, preserving timestamps
  // and appending `tag` to each event's args. This is how parallel solves
  // stay traceable: each worker records into its own WorkerSession()
  // (sessions are single-threaded), and the driver merges them after the
  // join barrier tagged with the worker id.
  void MergeFrom(const TraceSession& other, const TraceArg& tag);

  size_t num_events() const { return events_.size(); }

  // Chrome trace JSON: {"traceEvents":[...],"displayTimeUnit":"ms"}.
  std::string ToJson() const;

  // Writes ToJson() to `path`. On failure returns false and sets *error.
  bool WriteFile(const std::string& path, std::string* error) const;

 private:
  struct Event {
    std::string name;
    std::string category;
    char phase = 'X';       // 'X' complete, 'i' instant
    int64_t ts_us = 0;      // start timestamp
    int64_t duration_us = 0;  // complete events only
    TraceArgs args;
  };

  const Clock* clock_;    // borrowed; null reads the steady clock
  int64_t epoch_us_ = 0;  // subtracted from steady-clock reads
  std::vector<Event> events_;
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_OBS_TRACE_H_
