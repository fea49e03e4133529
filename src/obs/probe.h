// Probe: the one scoped measurement behind every timed span.
//
// A probe covers the span from its construction to Stop() (or its
// destruction) and feeds up to three sinks from that one span: wall
// microseconds off the steady clock; given an available PerfCounterGroup
// (obs/prof.h), the PerfCounts delta; given a TraceSession (obs/trace.h),
// one complete span carrying the args added before Stop(). Timed() reads
// the wall clock. Span() only traces, and reads no clock without a
// session. Counters() only adds the counter delta into a sink, so an early
// return from a solver hot loop still flushes.
//
// Probes nest: each snapshots its sources on construction. Journal events
// are not a sink; each site's Emit reads the elapsed time off Stop(). With
// perf and trace off a timed probe costs two clock reads and allocates
// nothing: names are borrowed `const char*` that must outlive Stop(), and
// args are built only when a session is attached. A probe must stop on the
// thread that started it (counter groups count their opening thread).

#ifndef PEBBLEJOIN_OBS_PROBE_H_
#define PEBBLEJOIN_OBS_PROBE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>

#include "obs/prof.h"
#include "obs/trace.h"

namespace pebblejoin {

// What one probe measured: its wall time and, when it counted, the
// hardware-counter delta (all zeros otherwise).
struct ProbeSample {
  int64_t wall_us = 0;
  PerfCounts perf;

  ProbeSample& operator+=(const ProbeSample& o) {
    wall_us += o.wall_us;
    perf += o.perf;
    return *this;
  }
};

class Probe {
 public:
  static Probe Timed(const char* name, const char* category,
                     TraceSession* trace = nullptr,
                     PerfCounterGroup* perf = nullptr) {
    return Probe(name, category, trace, perf, /*counts_sink=*/nullptr,
                 /*timed=*/true);
  }

  static Probe Span(const char* name, const char* category,
                    TraceSession* trace) {
    return Probe(name, category, trace, /*perf=*/nullptr,
                 /*counts_sink=*/nullptr, /*timed=*/false);
  }

  static Probe Counters(PerfCounterGroup* perf, PerfCounts* sink) {
    return Probe(/*name=*/nullptr, /*category=*/nullptr, /*trace=*/nullptr,
                 sink != nullptr ? perf : nullptr, sink, /*timed=*/false);
  }

  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  ~Probe() { Stop(); }

  // Span annotations, carried by the span when added before Stop(). No-ops
  // (nothing is built) without a trace session or after Stop().
  void AddNum(const char* key, int64_t value) {
    if (trace_ != nullptr && !stopped_) {
      args_.push_back(TraceArg::Num(key, value));
    }
  }
  void AddStr(const char* key, const char* value) {
    if (trace_ != nullptr && !stopped_) {
      args_.push_back(TraceArg::Str(key, value));
    }
  }

  // Ends the span: reads the clock and counters, adds the counter delta
  // into a Counters() sink, and records the trace span. Only the first call
  // measures; later calls (including the destructor's) return the same
  // sample.
  const ProbeSample& Stop() {
    if (stopped_) return sample_;
    stopped_ = true;
    if (timed_) {
      sample_.wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                            Clock::now() - wall_start_)
                            .count();
    }
    if (perf_ != nullptr) {
      sample_.perf = perf_->Read() - perf_start_;
      if (counts_sink_ != nullptr) *counts_sink_ += sample_.perf;
    }
    if (trace_ != nullptr) {
      trace_->Complete(name_, category_, trace_start_us_,
                       trace_->NowUs() - trace_start_us_, std::move(args_));
    }
    return sample_;
  }

 private:
  using Clock = std::chrono::steady_clock;

  Probe(const char* name, const char* category, TraceSession* trace,
        PerfCounterGroup* perf, PerfCounts* counts_sink, bool timed)
      : name_(name),
        category_(category),
        trace_(trace),
        perf_(perf != nullptr && perf->available() ? perf : nullptr),
        counts_sink_(counts_sink),
        timed_(timed) {
    if (trace_ != nullptr) trace_start_us_ = trace_->NowUs();
    if (perf_ != nullptr) perf_start_ = perf_->Read();
    if (timed_) wall_start_ = Clock::now();
  }

  const char* name_;
  const char* category_;
  TraceSession* trace_;
  PerfCounterGroup* perf_;
  PerfCounts* counts_sink_;
  bool timed_;
  bool stopped_ = false;
  Clock::time_point wall_start_;
  int64_t trace_start_us_ = 0;
  PerfCounts perf_start_;
  TraceArgs args_;
  ProbeSample sample_;
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_OBS_PROBE_H_
