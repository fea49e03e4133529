// Sliding-window telemetry: counter and histogram rings over wall-clock
// time buckets.
//
// The cumulative MetricsRegistry (obs/metrics.h) answers "how much since
// the process started"; a long-lived server also needs "how much in the
// last minute" — qps, error rate, and tail latency an operator or an SLO
// burn-rate calculation can act on. WindowedCounter and WindowedHistogram
// keep a fixed ring of time buckets (default 60 buckets x 10 s = a
// 10-minute ring exposing any span up to that), each cell stamped with the
// period it belongs to. Writers claim a stale cell by CAS-ing its period
// forward and zeroing it; reads sum only the cells whose stamp falls
// inside the requested span, so expiry is implicit — no sweeper thread,
// no timer.
//
// Concurrency: every field is an atomic, so concurrent writers and a
// concurrent scraper are race-free (TSan-clean; tests/timeseries_test.cc
// hammers this). The claim protocol trades a sliver of accuracy for
// lock-freedom: a writer that observes the new period stamp before the
// claimer's zeroing store can lose its increment for that bucket. That
// window is nanoseconds once per bucket rotation; window stats are
// estimates by construction and the tests only pin single-threaded
// determinism.
//
// Clocks are caller-supplied `now_ms` readings on an arbitrary monotone
// scale (the serve layer's injectable clock), so bucket rotation is
// deterministic under FakeClock.

#ifndef PEBBLEJOIN_OBS_TIMESERIES_H_
#define PEBBLEJOIN_OBS_TIMESERIES_H_

#include <atomic>
#include <cstdint>

#include "obs/metrics.h"

namespace pebblejoin {

// Shape of one ring: `num_buckets` cells of `bucket_ms` each. The longest
// answerable span is num_buckets * bucket_ms.
struct WindowOptions {
  int num_buckets = 60;
  int64_t bucket_ms = 10000;
};

// A monotonically increasing count, bucketed by time. Add() lands in the
// bucket `now_ms` falls into; Sum() totals the buckets still inside the
// span ending at `now_ms`.
class WindowedCounter {
 public:
  explicit WindowedCounter(WindowOptions options = WindowOptions());
  ~WindowedCounter();

  WindowedCounter(const WindowedCounter&) = delete;
  WindowedCounter& operator=(const WindowedCounter&) = delete;

  void Add(int64_t now_ms, int64_t n = 1);

  // Total over the last `span_ms` ending at `now_ms`, clamped to the
  // ring's capacity. The bucket containing `now_ms` always counts.
  int64_t Sum(int64_t now_ms, int64_t span_ms) const;

  // Sum over the whole ring span.
  int64_t WindowSum(int64_t now_ms) const;

  int64_t window_span_ms() const {
    return options_.bucket_ms * options_.num_buckets;
  }
  const WindowOptions& options() const { return options_; }

 private:
  struct Cell {
    std::atomic<int64_t> period{-1};
    std::atomic<int64_t> count{0};
  };

  Cell* ClaimCell(int64_t period);

  WindowOptions options_;
  Cell* cells_;  // options_.num_buckets of them
};

// A histogram of non-negative int64 samples, bucketed by time. Each time
// bucket is a registry HistogramCell, so a window snapshot estimates
// quantiles exactly the way the cumulative registry does — over only the
// samples still inside the window.
class WindowedHistogram {
 public:
  struct Snapshot {
    int64_t count = 0;
    int64_t sum = 0;
    int64_t min = -1;  // -1 when the window is empty
    int64_t max = -1;
    int64_t p50 = -1;
    int64_t p95 = -1;
    int64_t p99 = -1;
  };

  explicit WindowedHistogram(WindowOptions options = WindowOptions());
  ~WindowedHistogram();

  WindowedHistogram(const WindowedHistogram&) = delete;
  WindowedHistogram& operator=(const WindowedHistogram&) = delete;

  void Record(int64_t now_ms, int64_t value);

  // Aggregates the buckets inside the last `span_ms` ending at `now_ms`
  // (clamped to the ring); quantiles are obs_internal::InterpolateQuantile
  // over the merged value buckets.
  Snapshot Aggregate(int64_t now_ms, int64_t span_ms) const;

  int64_t window_span_ms() const {
    return options_.bucket_ms * options_.num_buckets;
  }
  const WindowOptions& options() const { return options_; }

 private:
  // One time bucket: the period it holds and the registry's histogram
  // cell over that period's samples.
  struct Cell {
    std::atomic<int64_t> period{-1};
    obs_internal::HistogramCell hist;
  };

  Cell* ClaimCell(int64_t period);

  WindowOptions options_;
  Cell* cells_;  // options_.num_buckets of them
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_OBS_TIMESERIES_H_
