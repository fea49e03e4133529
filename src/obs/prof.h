// Hardware performance counters: eyes below wall-clock.
//
// SolveStats (obs/solve_stats.h) records what the solvers *did* (nodes,
// prunes, passes) and how long each pipeline stage *took*. What it cannot
// say is why a stage took that long — whether the time went to
// instructions, to cache misses, or to branch mispredicts. This header is
// that measurement layer: cycles, IPC and cache misses per pipeline stage,
// per rung attempt and per solver hot loop, so a layout or algorithm
// change can be argued with counters measured before and after it.
//
// Two pieces:
//
//   - PerfCounts: one snapshot of the five counters worth arguing with
//     (cycles, instructions, cache references, cache misses, branch
//     misses), plus delta arithmetic;
//   - PerfCounterGroup: a set of perf_event_open(2) file descriptors
//     counting the *calling thread*. Counters are opened with
//     PERF_FORMAT_TOTAL_TIME_{ENABLED,RUNNING}, and Read() scales each
//     value by enabled/running, so a multiplexed counter (more events than
//     PMU slots) reports an unbiased estimate instead of a silent
//     undercount.
//
// Attribution is the Probe's job (obs/probe.h): a probe given a group
// snapshots it on construction and takes the delta when it stops, so
// probes nest and an outer probe's delta includes its inner probes'.
//
// Graceful degradation is a hard requirement: containers and CI runners
// routinely deny perf_event_open (perf_event_paranoid, seccomp, missing
// CAP_PERFMON, non-Linux hosts). A group that cannot open its counters is
// *unavailable*: available() is false, unavailable_reason() says why
// (e.g. "EACCES: perf_event_paranoid"), Read() returns zeros, and probes
// count nothing — callers surface the reason (the stats JSON records
// "perf":"unavailable:<reason>") and everything else proceeds identically.
//
// Threading model: a group counts the thread that opened it, and must be
// read from that thread. ThisThread() hands out one lazily-opened group
// per thread, which is how the solver hot paths meter themselves on pool
// workers: each worker flushes its own thread's deltas into its per-slice
// SolveStats, and the driver's deterministic merge adds them up. The
// engine's per-stage probes run on the request thread, so under
// --threads N the solve stage's cycles cover the coordinating thread only
// (the workers' cycles land in the bnb/hk/ls hot-loop counters instead).
//
// Tests inject a fake reader (PerfCounterGroup(reader)) or force the
// unavailable path (ForceUnavailableForTest), so the fallback contract and
// probe nesting are testable on hosts with no PMU access at all.

#ifndef PEBBLEJOIN_OBS_PROF_H_
#define PEBBLEJOIN_OBS_PROF_H_

#include <cstdint>
#include <functional>
#include <string>

namespace pebblejoin {

// One snapshot (or delta) of the counter set. Plain monotone int64s; a
// group that is unavailable yields all-zero counts.
struct PerfCounts {
  int64_t cycles = 0;
  int64_t instructions = 0;
  int64_t cache_references = 0;
  int64_t cache_misses = 0;
  int64_t branch_misses = 0;

  PerfCounts& operator+=(const PerfCounts& o) {
    cycles += o.cycles;
    instructions += o.instructions;
    cache_references += o.cache_references;
    cache_misses += o.cache_misses;
    branch_misses += o.branch_misses;
    return *this;
  }
  PerfCounts& operator-=(const PerfCounts& o) {
    cycles -= o.cycles;
    instructions -= o.instructions;
    cache_references -= o.cache_references;
    cache_misses -= o.cache_misses;
    branch_misses -= o.branch_misses;
    return *this;
  }
  friend PerfCounts operator-(PerfCounts a, const PerfCounts& b) {
    a -= b;
    return a;
  }
};

class PerfCounterGroup {
 public:
  // Opens the five counters for the calling thread. On any failure the
  // group is unavailable (never throws, never aborts): available() is
  // false and unavailable_reason() carries an errno-derived explanation.
  PerfCounterGroup();

  // Test seam: a group whose Read() is the injected function. Always
  // available; no syscalls are made.
  explicit PerfCounterGroup(std::function<PerfCounts()> reader);

  ~PerfCounterGroup();

  PerfCounterGroup(const PerfCounterGroup&) = delete;
  PerfCounterGroup& operator=(const PerfCounterGroup&) = delete;

  bool available() const { return available_; }
  // Empty when available; otherwise a short reason like
  // "EACCES: perf_event_open denied (perf_event_paranoid?)".
  const std::string& unavailable_reason() const { return reason_; }

  // Scaled snapshot of the thread counters since the group opened.
  // Monotone while the group lives; all zeros when unavailable. Must be
  // called from the opening thread (real groups count that thread only).
  PerfCounts Read() const;

  // The calling thread's lazily-opened group. One open per thread per
  // process lifetime; the group lives until thread exit. Never null.
  // After ForceUnavailableForTest, freshly opened groups (including the
  // thread-local ones of *new* threads) come up unavailable with the
  // given reason.
  static PerfCounterGroup* ThisThread();

  // Test seam for the denied-syscall path: makes every subsequently
  // constructed real group unavailable with `reason` (empty re-enables
  // real opens). Existing groups are unaffected.
  static void ForceUnavailableForTest(const std::string& reason);

  // Multiplexing correction: the raw count scaled by enabled/running time,
  // i.e. the unbiased estimate of what the counter would have read had it
  // been scheduled the whole time. Exposed for tests; running == 0 (the
  // counter never got a PMU slot) yields 0.
  static int64_t ScaleValue(uint64_t raw, uint64_t enabled, uint64_t running);

 private:
  static constexpr int kNumEvents = 5;

  bool available_ = false;
  std::string reason_;
  int fds_[kNumEvents] = {-1, -1, -1, -1, -1};
  std::function<PerfCounts()> fake_reader_;  // test injection only
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_OBS_PROF_H_
