// A minimal wall-clock stopwatch for benchmark tables. Timed spans inside
// the library use a Probe (obs/probe.h) instead.

#ifndef PEBBLEJOIN_UTIL_STOPWATCH_H_
#define PEBBLEJOIN_UTIL_STOPWATCH_H_

#include <chrono>
#include <cstdint>

namespace pebblejoin {

// Measures elapsed wall time from construction (or the last Restart()).
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  // Elapsed time in seconds.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  // Elapsed time in whole microseconds, read straight off the clock's
  // integer ticks (no round-trip through a double of seconds).
  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now() - start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_UTIL_STOPWATCH_H_
