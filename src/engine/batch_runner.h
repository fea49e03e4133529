// BatchRunner: many solve requests through one SolveEngine, JSONL in,
// JSONL out.
//
// Input is one JSON object per line:
//
//   {"graph": "bipartite 2 2 4\n0 0\n...", "predicate": "equijoin",
//    "solver": "fallback", "deadline_ms": 50, "node_budget": 100000,
//    "memory_mb": 64}
//
// Only "graph" is required; every other key overrides the engine default
// for that line, with the CLI's spellings (engine/names.h) and the CLI's
// convention that a budget without an explicit solver selects the fallback
// ladder (engine/jsonl_request.h has the exact rule). Blank lines are
// skipped. Unknown keys and malformed values are line-level errors, never
// batch-level: the offending line yields
//
//   {"line": N, "error": "<one-line reason>"}
//
// and the run continues. A well-formed line yields exactly the document
// `pebblejoin analyze --json` would print for the same graph and flags —
// byte-identical, which is what the round-trip tests pin.
//
// One poll() loop reads a file or a pipe alike, waits for input and for
// landed answers together, and dispatches each line (util/line_framer.h)
// as soon as it is read; bytes after the last newline are a final line,
// as for std::getline. Lines stream through one OrderedWindow
// (util/ordered_window.h), at most 2 x threads in flight, and each answer
// is written, in input order, once it and every line before it are done.
// The first line runs on the calling thread, so a one-line batch starts
// no pool. Each task runs its request sequentially (the engine's
// nested-fan-out guard), so batch parallelism comes from lines in flight.
//
// Budget admission: `batch_deadline_ms` is one aggregate wall-clock pool
// for the whole batch, enforced through the shared DeadlineAdmission
// helper (engine/admission.h — the same clamp-or-shed arithmetic
// `pebblejoin serve` applies, so the two surfaces cannot drift). Once it
// runs dry, admission decides what happens to the lines still waiting:
//   - kQueue (default): the line runs with whatever remains of the pool —
//     possibly a zero deadline, under which the fallback ladder still
//     produces a verified (if cheap) scheme;
//   - kReject: the line is not solved at all and yields an error record
//     ("rejected: batch deadline exhausted").
// A line's own deadline_ms is additionally clamped to the remaining pool.
// Per-line parsing and solving live in the shared JsonlRequestRunner
// (engine/jsonl_request.h), the other half of that no-drift guarantee.
//
// Live progress: with Options::progress_every_ms >= 0 the runner reports
// after written lines — lines done (of expected, when known), reject and
// degradation tallies, p50/p95 line latency, and an ETA — as one
// stderr-style line on Options::progress and as "batch.progress" journal
// events. The cadence runs on the injectable clock, so tests pin the
// reports byte-for-byte.
// With a journal configured on the engine, the runner also keeps its own
// flight recorder of batch-level events and dumps it when the first line
// is rejected (see docs/observability.md).

#ifndef PEBBLEJOIN_ENGINE_BATCH_RUNNER_H_
#define PEBBLEJOIN_ENGINE_BATCH_RUNNER_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "engine/admission.h"
#include "engine/jsonl_request.h"
#include "engine/solve_engine.h"
#include "util/clock.h"

namespace pebblejoin {

class BatchRunner {
 public:
  // What to do with a line once the aggregate batch deadline ran dry.
  // Alias of the shared AdmissionPolicy, kept for API stability.
  using Admission = AdmissionPolicy;

  struct Options {
    // Pool width for the lines. 1 = sequential on the calling thread;
    // more borrows the engine's shared pool and keeps up to 2 x threads
    // lines in flight.
    int threads = 1;
    // Predicate for every line that does not name its own. Solver,
    // planner, and budget defaults are the engine's (SolveEngine::defaults).
    PredicateClass default_predicate = PredicateClass::kGeneral;
    // Aggregate wall-clock pool for the whole batch, milliseconds;
    // negative = unlimited.
    int64_t batch_deadline_ms = -1;
    Admission admission = Admission::kQueue;
    // Borrowed, must outlive the runner; tests inject a FakeClock.
    // nullptr uses the steady clock.
    const Clock* clock = nullptr;
    // Live progress cadence, on the same clock: after an answer is
    // written, a report is due once this many milliseconds passed since
    // the last one. 0 reports after every line (what the FakeClock tests
    // pin); negative (the default) disables progress entirely.
    int64_t progress_every_ms = -1;
    // Stream for the one-line human progress reports (e.g. &std::cerr).
    // Borrowed, may be null — with a journal configured on the engine,
    // "batch.progress" events are still emitted when a report is due.
    std::ostream* progress = nullptr;
    // Total non-blank lines expected, when the caller knows it (file
    // input); enables the done/total and ETA fields. Negative = unknown.
    int64_t expected_lines = -1;
  };

  struct Summary {
    int64_t lines_read = 0;  // non-blank lines seen
    int64_t solved = 0;
    int64_t errors = 0;    // malformed lines (parse/validation failures)
    int64_t rejected = 0;  // admission kReject after pool exhaustion
    int64_t degraded = 0;  // solved lines whose outcome was budget-cut
    // Per-line wall-clock percentiles (parse + solve, milliseconds, on
    // the injectable clock), nearest-rank over every processed line; -1
    // when the batch was empty.
    int64_t latency_p50_ms = -1;
    int64_t latency_p95_ms = -1;
    int64_t latency_p99_ms = -1;
    // errno of the read(2) that ended the input; 0 at a clean EOF.
    int read_errno = 0;
    // errno of the first write to `out` that failed (EIO when the stream
    // kept none); 0 when every answer was written. The lines after it are
    // still solved, and their answers dropped.
    int write_errno = 0;
  };

  // The engine is borrowed and must outlive the runner; its pool carries
  // the fan-out, its registry receives every line's stats.
  BatchRunner(SolveEngine* engine, Options options);

  // Most bytes one read(2) of the input takes.
  static constexpr size_t kReadChunkBytes = size_t{64} << 10;

  // Streams the file descriptor `in_fd` (borrowed) to `out`, one result
  // line per non-blank input line, in input order, flushing `out` whenever
  // no finished answer is left to write. A failed read ends the input
  // after the lines already read are answered; Summary::read_errno says
  // why, and Summary::write_errno tells of a failed write.
  Summary Run(int in_fd, std::ostream& out);

 private:
  using LineKind = JsonlRequestRunner::Disposition;

  // One line's answer as the window hands it back, with how it was
  // disposed for the summary and the progress reports.
  struct LineResult {
    std::string text;        // the output line, no newline
    int64_t number = 0;      // 1-based input line number
    LineKind kind = LineKind::kError;
    bool degraded = false;   // solved, but the outcome was budget-cut
    int64_t latency_ms = 0;  // parse + solve wall clock
  };

  // Parses and solves one line through the shared JsonlRequestRunner. The
  // first clock read doubles as the admission time.
  LineResult RunLine(const JsonlRequestRunner& runner,
                     const DeadlineAdmission& admission,
                     const std::string& line, int64_t line_number);

  int64_t NowMs() const { return pebblejoin::NowMs(options_.clock); }

  SolveEngine* engine_;  // borrowed
  Options options_;
  int64_t batch_start_ms_ = 0;
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_ENGINE_BATCH_RUNNER_H_
