// SIGPROF sampling profiler with flamegraph-collapsed output.
//
// Hardware counters (obs/prof.h) say *how much* a scope burned; a sampling
// profile says *where*. This is the statistical side of the measurement
// layer: an ITIMER_PROF timer fires SIGPROF every `interval_ms` of CPU
// time, the handler captures a backtrace(), and Stop() folds the samples
// into the "flamegraph-collapsed" text format —
//
//   main;SolveEngine::Solve;BranchAndBoundSolve 42
//
// one line per distinct stack (root first, frames ';'-joined), count last —
// which flamegraph.pl, speedscope, and every flamegraph viewer ingest
// directly. The CLI exposes it as `--profile-out FILE`.
//
// Two layers, split for testability:
//
//   - StackAggregator: pure, deterministic aggregation. Feed it frame
//     vectors, get folded lines back, sorted lexicographically. The golden
//     tests in tests/prof_test.cc drive this directly — no signals needed.
//   - SamplingProfiler: the collection machinery. Signal-handler realism
//     dictates its shape: the handler only calls backtrace() (primed at
//     Start(), so the dynamic-linker resolution happens outside signal
//     context) and copies raw addresses into a preallocated slab at an
//     atomic cursor — no allocation, no locks, no symbolization. Samples
//     that arrive after the slab fills are counted as dropped rather than
//     grown into. Symbolization (backtrace_symbols) happens in Stop(), on
//     the calling thread.
//
// One profiler can be active per process at a time (SIGPROF is
// process-global); Start() on a second instance fails with a reason.
// Non-Linux hosts and builds without <execinfo.h> degrade the same way the
// counter layer does: Start() returns false, reason() explains, and the
// caller proceeds without a profile.
//
// ITIMER_PROF measures CPU time (user+system) of the whole process, so the
// profile covers pool workers too — whichever thread is running when the
// timer fires receives the signal and contributes its stack.

#ifndef PEBBLEJOIN_OBS_SAMPLER_H_
#define PEBBLEJOIN_OBS_SAMPLER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pebblejoin {

// Deterministic folded-stack aggregation, separable from signal machinery.
class StackAggregator {
 public:
  // Adds one sample whose frames are ordered root-first (main outermost).
  void AddSample(const std::vector<std::string>& frames);

  // Adds `count` occurrences of the same stack in one call.
  void AddSamples(const std::vector<std::string>& frames, int64_t count);

  int64_t total_samples() const { return total_; }

  // The flamegraph-collapsed document: "frame;frame;frame COUNT\n" per
  // distinct stack, lines sorted lexicographically so identical sample
  // sets always fold to identical bytes. Frames containing ';' or
  // whitespace (both meaningful to the format) are sanitized to '_'.
  std::string Folded() const;

 private:
  std::map<std::string, int64_t> counts_;  // folded stack -> samples
  int64_t total_ = 0;
};

class SamplingProfiler {
 public:
  // CPU-time between samples. ITIMER_PROF rounds up to the kernel tick,
  // so values below ~4ms mostly raise overhead, not resolution.
  static constexpr int kIntervalMs = 10;
  // Preallocated sample slab: samples beyond this are dropped (and
  // counted in dropped_samples()), never allocated for in the handler.
  static constexpr int kMaxSamples = 1 << 16;
  // Deepest stack recorded per sample; deeper frames are truncated.
  static constexpr int kMaxDepth = 64;

  SamplingProfiler() = default;
  ~SamplingProfiler();

  SamplingProfiler(const SamplingProfiler&) = delete;
  SamplingProfiler& operator=(const SamplingProfiler&) = delete;

  // Arms SIGPROF + ITIMER_PROF. False (with reason()) when profiling is
  // unsupported on this build/host or another profiler is already active.
  bool Start();

  // Disarms the timer, restores the previous SIGPROF disposition,
  // symbolizes the collected addresses, and folds them into the
  // aggregator. Idempotent; safe without a successful Start().
  void Stop();

  // Why Start() returned false; empty after a successful Start().
  const std::string& reason() const { return reason_; }

  int64_t sample_count() const { return sample_count_; }
  int64_t dropped_samples() const { return dropped_samples_; }

  // Folded output of everything collected so far (valid after Stop()).
  std::string Folded() const { return aggregator_.Folded(); }

  // Writes Folded() to `path` with a trailing "# samples N dropped M"
  // comment line. On failure returns false and sets *error when given.
  bool WriteFolded(const std::string& path,
                   std::string* error = nullptr) const;

  // Whether this build can profile at all (Linux + <execinfo.h>).
  static bool Supported();

 private:
  std::string reason_;
  bool active_ = false;
  int64_t sample_count_ = 0;
  int64_t dropped_samples_ = 0;
  StackAggregator aggregator_;
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_OBS_SAMPLER_H_
