// Probe: the one scoped measurement behind every timed span.
//
// A probe covers the span from its construction to Stop() (or its
// destruction) and feeds up to three sinks from that one span: wall
// microseconds; given an available PerfCounterGroup (obs/prof.h), the
// PerfCounts delta; given a TraceSession (obs/trace.h), one complete span
// carrying the args added before Stop(). It reads one clock at each end:
// the session's when it has one, so the span's dur is the probe's wall_us,
// else the steady Clock (util/clock.h). Timed() measures wall time. Span()
// only traces, and reads no clock without a session. Counters() only adds
// the counter delta into a sink, so an early return from a solver hot loop
// still flushes.
//
// Probes nest: each snapshots its sources on construction. Journal events
// are not a sink; each site's Emit reads the elapsed time off Stop(). With
// perf and trace off a timed probe costs two clock reads and allocates
// nothing: names are borrowed `const char*` that must outlive Stop(), and
// args are built only when a session is attached. A probe must stop on the
// thread that started it (counter groups count their opening thread).

#ifndef PEBBLEJOIN_OBS_PROBE_H_
#define PEBBLEJOIN_OBS_PROBE_H_

#include <cstdint>
#include <utility>

#include "obs/prof.h"
#include "obs/trace.h"
#include "util/clock.h"

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
    const int64_t elapsed_us = timed_ || trace_ != nullptr
                                   ? NowUs() - start_us_
                                   : 0;
    if (timed_) sample_.wall_us = elapsed_us;
    if (perf_ != nullptr) {
      sample_.perf = perf_->Read() - perf_start_;
      if (counts_sink_ != nullptr) *counts_sink_ += sample_.perf;
    }
    if (trace_ != nullptr) {
      trace_->Complete(name_, category_, start_us_, elapsed_us,
                       std::move(args_));
    }
    return sample_;
  }

 private:
  Probe(const char* name, const char* category, TraceSession* trace,
        PerfCounterGroup* perf, PerfCounts* counts_sink, bool timed)
      : name_(name),
        category_(category),
        trace_(trace),
        perf_(perf != nullptr && perf->available() ? perf : nullptr),
        counts_sink_(counts_sink),
        timed_(timed) {
    if (perf_ != nullptr) perf_start_ = perf_->Read();
    if (timed_ || trace_ != nullptr) start_us_ = NowUs();
  }

  // The session's clock when tracing, else the steady clock.
  int64_t NowUs() const {
    return trace_ != nullptr ? trace_->NowUs() : Clock::SteadyNowUs();
  }

  const char* name_;
  const char* category_;
  TraceSession* trace_;
  PerfCounterGroup* perf_;
  PerfCounts* counts_sink_;
  bool timed_;
  bool stopped_ = false;
  int64_t start_us_ = 0;  // on NowUs()'s clock
  PerfCounts perf_start_;
  TraceArgs args_;
  ProbeSample sample_;
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_OBS_PROBE_H_
