// One JSONL solve-request line in, one response line out — the wire
// protocol shared by `pebblejoin batch` and `pebblejoin serve`.
//
// A request line is one JSON object:
//
//   {"graph": "bipartite 2 2 4\n0 0\n...", "predicate": "equijoin",
//    "solver": "fallback", "planner": "calibrated", "deadline_ms": 50,
//    "node_budget": 100000, "memory_mb": 64, "id": "req-42"}
//
// Only "graph" is required; every other key overrides, for that line, the
// engine's request defaults (SolveEngine::defaults(), where the surface's
// --solver/--planner/budget flags live), with the CLI's spellings
// (engine/names.h). The CLI's convention that a budget without an explicit
// solver selects the fallback ladder applies to the line's own budget keys
// when neither the line nor the engine defaults name a solver (the engine
// default is kAuto). Unknown keys and malformed values are line-level
// errors:
//
//   {"line": N, "error": "<one-line reason>"}
//
// N counts lines, blank ones included, on the stream that sent them: the
// line's place in the file for batch, on its own connection for serve.
//
// A well-formed line yields exactly the document `pebblejoin analyze
// --json` prints for the same graph and flags — byte-identical, which is
// what the batch round-trip tests and the serve-vs-batch CI diff pin.
// Keeping this in one class is what guarantees a request means the same
// thing whether it arrived in a file or over a socket.
//
// Request correlation: "id" is an optional client-chosen string (1..128
// bytes) echoed as the response's leading "id" field and stamped on every
// journal event, flight-recorder replay, and trace span of that request.
// A line without one gets the surface's generated fallback id ("L<line>"
// in batch, "c<conn>-<line>" in serve) for journal/trace correlation only
// — never echoed, so id-less output stays byte-identical to earlier
// builds. Every processed line additionally journals one "request.done"
// event carrying the effective id, disposition, and wall clock.
//
// Admission hooks (engine/admission.h): an optional DeadlineAdmission is
// judged at the line's start time (clamp-or-shed against the aggregate
// pool), and an optional deadline cap bounds every admitted solve — the
// serve layer relies on the cap to keep graceful drain finite.
//
// The runner is immutable after construction and the engine's Solve is
// thread-safe, so one runner may be shared by any number of threads.

#ifndef PEBBLEJOIN_ENGINE_JSONL_REQUEST_H_
#define PEBBLEJOIN_ENGINE_JSONL_REQUEST_H_

#include <cstdint>
#include <string>

#include "engine/admission.h"
#include "engine/solve_engine.h"

namespace pebblejoin {

// The line-level error record: {"line":N,"error":"..."}.
std::string JsonlErrorRecord(int64_t line_number, const std::string& message);

// True when `line` is whitespace-only (space, tab, CR) — the blank lines
// both surfaces skip without a response.
bool JsonlLineIsBlank(const std::string& line);

class JsonlRequestRunner {
 public:
  // The surface settings the engine's request defaults do not carry.
  // Solver, planner, and budget defaults live in the engine's
  // AnalyzerOptions only.
  struct Defaults {
    PredicateClass predicate = PredicateClass::kGeneral;
    // Ceiling applied to every admitted line's deadline (see
    // ClampDeadline); negative = no cap.
    int64_t deadline_cap_ms = -1;
    // Input-size cap handed to the JSON parser (JsonValue::ParseLimits);
    // non-positive = the parser's default.
    int64_t max_line_bytes = 0;
  };

  // How one line was disposed, for summaries and metrics.
  enum class Disposition { kSolved, kError, kRejected };

  struct Outcome {
    Disposition disposition = Disposition::kError;
    bool degraded = false;  // solved, but the outcome was budget-cut
    // Effective correlation id: the client's "id" when the line carried
    // one (client_id == true, echoed in the response), else the caller's
    // fallback id (journal/trace only, never echoed).
    std::string request_id;
    bool client_id = false;
    // Solve wall clock in microseconds (0 for errors and rejects).
    int64_t wall_us = 0;
    // Comma-joined distinct solvers that produced the answer — the plan
    // provenance the slow-request table surfaces.
    std::string provenance;
  };

  // Caller-side context for one line: admission judgment, clock reading,
  // and correlation hooks.
  struct LineContext {
    // Judged at `now_ms` before the solve when non-null — a shed line
    // yields {"line":N,"error":"rejected: <reject_reason>"}.
    const DeadlineAdmission* admission = nullptr;
    int64_t now_ms = 0;
    std::string reject_reason;
    // Correlation id used when the line has no client-supplied "id"
    // ("L<line>" in batch, "c<conn>-<line>" in serve).
    std::string fallback_id;
    // Per-request trace sink (not thread-safe; owned by the caller). The
    // solve's spans land here when non-null.
    TraceSession* trace = nullptr;
  };

  // The engine is borrowed and must outlive the runner.
  JsonlRequestRunner(SolveEngine* engine, Defaults defaults);

  // Parses and solves one line; returns the response line (no trailing
  // newline). `line_number` stamps the engine's journal events and the
  // error records for this request. Emits one "request.done" journal
  // event per call when the engine journals.
  std::string Run(const std::string& line, int64_t line_number,
                  const LineContext& context, Outcome* outcome) const;

  const Defaults& defaults() const { return defaults_; }
  SolveEngine* engine() const { return engine_; }

 private:
  // The parse-admit-solve body; Run wraps it to journal "request.done".
  std::string Dispatch(const std::string& line, int64_t line_number,
                       const LineContext& context, Outcome* outcome) const;

  SolveEngine* engine_;  // borrowed
  Defaults defaults_;
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_ENGINE_JSONL_REQUEST_H_
