// A minimal wall-clock stopwatch for benchmark tables. Timed spans inside
// the library use a Probe (obs/probe.h) instead.

#ifndef PEBBLEJOIN_UTIL_STOPWATCH_H_
#define PEBBLEJOIN_UTIL_STOPWATCH_H_

#include <cstdint>

#include "util/clock.h"

namespace pebblejoin {

// Measures elapsed wall time on the steady Clock from construction (or
// the last Restart()).
class Stopwatch {
 public:
  Stopwatch() : start_us_(Clock::SteadyNowUs()) {}

  void Restart() { start_us_ = Clock::SteadyNowUs(); }

  // Elapsed time in seconds.
  double ElapsedSeconds() const { return ElapsedMicros() / 1e6; }

  // Elapsed time in whole microseconds.
  int64_t ElapsedMicros() const { return Clock::SteadyNowUs() - start_us_; }

 private:
  int64_t start_us_;
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_UTIL_STOPWATCH_H_
