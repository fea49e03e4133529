// The one clock: every deadline, timeout, span and journal timestamp reads
// microseconds off a Clock.
//
// A Clock reports microseconds on a monotone scale with an arbitrary zero.
// The base class reads the steady clock; FakeClock only moves when a test
// advances it. Every clock injection point (BudgetContext, BatchRunner,
// ServeOptions, Journal, TraceSession) takes a borrowed `const Clock*`,
// and null means the steady clock. Nothing else in src/, tools/ or bench/
// names a std::chrono clock (CI greps for it).
//
// A read is one virtual call: no allocation, no std::function. Tests that
// script a clock read by read subclass Clock and override NowUs().

#ifndef PEBBLEJOIN_UTIL_CLOCK_H_
#define PEBBLEJOIN_UTIL_CLOCK_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace pebblejoin {

class Clock {
 public:
  Clock() = default;
  Clock(const Clock&) = default;
  Clock& operator=(const Clock&) = default;
  virtual ~Clock() = default;

  // Microseconds on this clock's monotone scale.
  virtual int64_t NowUs() const { return SteadyNowUs(); }

  // Whole milliseconds, derived from one NowUs() read.
  int64_t NowMs() const { return NowUs() / 1000; }

  // The steady clock in microseconds — what a null or default Clock reads.
  static int64_t SteadyNowUs() {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
};

// Reads `clock`, or the steady clock when it is null.
inline int64_t NowUs(const Clock* clock) {
  return clock != nullptr ? clock->NowUs() : Clock::SteadyNowUs();
}
inline int64_t NowMs(const Clock* clock) { return NowUs(clock) / 1000; }

// A deterministic clock for tests: time only moves when the test advances
// it. Safe to advance from one thread while others read it.
class FakeClock : public Clock {
 public:
  int64_t NowUs() const override {
    return now_us_.load(std::memory_order_relaxed);
  }
  void AdvanceUs(int64_t us) {
    now_us_.fetch_add(us, std::memory_order_relaxed);
  }
  void AdvanceMs(int64_t ms) { AdvanceUs(ms * 1000); }

 private:
  std::atomic<int64_t> now_us_{0};
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_UTIL_CLOCK_H_
