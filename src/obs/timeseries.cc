#include "obs/timeseries.h"

#include <algorithm>

#include "util/check.h"

namespace pebblejoin {

namespace {

// Number of trailing periods covered by `span_ms`, at least 1 (the
// current bucket), at most the ring size.
int SpanPeriods(const WindowOptions& options, int64_t span_ms) {
  int64_t periods = (span_ms + options.bucket_ms - 1) / options.bucket_ms;
  periods = std::max<int64_t>(1, periods);
  return static_cast<int>(std::min<int64_t>(periods, options.num_buckets));
}

}  // namespace

WindowedCounter::WindowedCounter(WindowOptions options) : options_(options) {
  JP_CHECK_MSG(options_.num_buckets >= 1, "need at least one bucket");
  JP_CHECK_MSG(options_.bucket_ms >= 1, "bucket_ms must be positive");
  cells_ = new Cell[options_.num_buckets];
}

WindowedCounter::~WindowedCounter() { delete[] cells_; }

WindowedCounter::Cell* WindowedCounter::ClaimCell(int64_t period) {
  Cell* cell = &cells_[period % options_.num_buckets];
  int64_t stamped = cell->period.load(std::memory_order_acquire);
  if (stamped != period) {
    // CAS the stamp forward; the winner zeroes the cell. A concurrent
    // writer racing the zeroing store can lose its increment — see the
    // header's accuracy note.
    if (cell->period.compare_exchange_strong(stamped, period,
                                             std::memory_order_acq_rel)) {
      cell->count.store(0, std::memory_order_relaxed);
    }
  }
  return cell;
}

void WindowedCounter::Add(int64_t now_ms, int64_t n) {
  const int64_t period = now_ms / options_.bucket_ms;
  ClaimCell(period)->count.fetch_add(n, std::memory_order_relaxed);
}

int64_t WindowedCounter::Sum(int64_t now_ms, int64_t span_ms) const {
  const int64_t current = now_ms / options_.bucket_ms;
  const int periods = SpanPeriods(options_, span_ms);
  int64_t total = 0;
  for (int back = 0; back < periods; ++back) {
    const int64_t period = current - back;
    if (period < 0) break;
    const Cell& cell = cells_[period % options_.num_buckets];
    if (cell.period.load(std::memory_order_acquire) != period) continue;
    total += cell.count.load(std::memory_order_relaxed);
  }
  return total;
}

int64_t WindowedCounter::WindowSum(int64_t now_ms) const {
  return Sum(now_ms, window_span_ms());
}

WindowedHistogram::WindowedHistogram(WindowOptions options)
    : options_(options) {
  JP_CHECK_MSG(options_.num_buckets >= 1, "need at least one bucket");
  JP_CHECK_MSG(options_.bucket_ms >= 1, "bucket_ms must be positive");
  cells_ = new Cell[options_.num_buckets];
}

WindowedHistogram::~WindowedHistogram() { delete[] cells_; }

WindowedHistogram::Cell* WindowedHistogram::ClaimCell(int64_t period) {
  Cell* cell = &cells_[period % options_.num_buckets];
  int64_t stamped = cell->period.load(std::memory_order_acquire);
  if (stamped != period) {
    if (cell->period.compare_exchange_strong(stamped, period,
                                             std::memory_order_acq_rel)) {
      cell->hist.Reset();
    }
  }
  return cell;
}

void WindowedHistogram::Record(int64_t now_ms, int64_t value) {
  ClaimCell(now_ms / options_.bucket_ms)->hist.Record(value);
}

WindowedHistogram::Snapshot WindowedHistogram::Aggregate(
    int64_t now_ms, int64_t span_ms) const {
  const int64_t current = now_ms / options_.bucket_ms;
  const int periods = SpanPeriods(options_, span_ms);

  Snapshot snap;
  int64_t merged[obs_internal::HistogramCell::kNumBuckets] = {};
  int64_t min = INT64_MAX;
  int64_t max = INT64_MIN;
  for (int back = 0; back < periods; ++back) {
    const int64_t period = current - back;
    if (period < 0) break;
    const Cell& cell = cells_[period % options_.num_buckets];
    if (cell.period.load(std::memory_order_acquire) != period) continue;
    const obs_internal::HistogramCell& hist = cell.hist;
    snap.count += hist.count.load(std::memory_order_relaxed);
    snap.sum += hist.sum.load(std::memory_order_relaxed);
    min = std::min(min, hist.min.load(std::memory_order_relaxed));
    max = std::max(max, hist.max.load(std::memory_order_relaxed));
    for (int i = 0; i < obs_internal::HistogramCell::kNumBuckets; ++i) {
      merged[i] += hist.buckets[i].load(std::memory_order_relaxed);
    }
  }
  if (snap.count <= 0) return snap;
  snap.min = min;
  snap.max = max;
  // The registry's estimate over the window's merged buckets.
  snap.p50 = obs_internal::InterpolateQuantile(merged, snap.count, min, max,
                                               0.50);
  snap.p95 = obs_internal::InterpolateQuantile(merged, snap.count, min, max,
                                               0.95);
  snap.p99 = obs_internal::InterpolateQuantile(merged, snap.count, min, max,
                                               0.99);
  return snap;
}

}  // namespace pebblejoin
