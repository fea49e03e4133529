// Process-wide metrics: named monotonic counters, gauges, and histogram
// timers, with near-zero cost when disabled.
//
// Two-layer design: SolveStats (obs/solve_stats.h) is the lock-free
// per-request sink the solver hot paths write; MetricsRegistry is the
// process-wide aggregation those sinks fold into (the engine does the fold
// after every solve). Long-running servers read the registry; a single
// CLI run reads the per-request stats.
//
// Cost model:
//   - updates through a handle are one relaxed atomic RMW — safe under
//     concurrent increments from any number of threads;
//   - a handle minted from a *disabled* registry carries a null cell, so
//     updates are a single well-predicted branch and no metric is created —
//     this is the "near-zero when disabled" mode, verified by bench_micro;
//   - FindOrCreate* takes a mutex (registration is the cold path). Handles
//     are cheap value types; mint them once and reuse.
//
// Enablement is sampled when the handle is minted: enable the registry
// before creating the objects that cache handles. The default registry
// starts disabled, so library users who never opt in pay only null checks.

#ifndef PEBBLEJOIN_OBS_METRICS_H_
#define PEBBLEJOIN_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pebblejoin {

// Nearest-rank percentile of exact samples: the smallest sample such that
// at least q of the data is <= it (q in [0,1]). Sorts a copy; returns -1
// on an empty vector. Used where the raw samples are still at hand (per
// component wall clocks, batch line latencies) — exact, unlike the
// bucket-interpolated InterpolateQuantile estimate.
int64_t PercentileOfSamples(std::vector<int64_t> samples, double q);
// The same rank of samples already in ascending order: sort once, then ask
// for several percentiles.
int64_t PercentileOfSorted(const std::vector<int64_t>& sorted, double q);

namespace obs_internal {

struct CounterCell {
  std::atomic<int64_t> value{0};
};

struct GaugeCell {
  std::atomic<int64_t> value{0};
};

// Exponential-bucket histogram of non-negative int64 samples (bucket i
// holds values in [2^(i-1), 2^i), bucket 0 holds zero); tracks count, sum,
// min and max. Designed for microsecond timings.
struct HistogramCell {
  static constexpr int kNumBuckets = 64;
  std::atomic<int64_t> buckets[kNumBuckets] = {};
  std::atomic<int64_t> count{0};
  std::atomic<int64_t> sum{0};
  std::atomic<int64_t> min{INT64_MAX};
  std::atomic<int64_t> max{INT64_MIN};

  void Record(int64_t value);

  // Back to the empty state, with relaxed stores.
  void Reset();
};

// The quantile estimate every histogram reports: walks `buckets` (laid
// out as HistogramCell's, `count` > 0 samples in total) to the bucket
// holding rank ceil(q·count), interpolates at the rank's midpoint inside
// it, then clamps to the observed [min, max] — so samples that all landed
// in one bucket with min == max report that value exactly.
int64_t InterpolateQuantile(
    const int64_t (&buckets)[HistogramCell::kNumBuckets], int64_t count,
    int64_t min, int64_t max, double q);

}  // namespace obs_internal

// Handle to a named monotonic counter. Null handles (from a disabled
// registry, or default-constructed) ignore updates.
class Counter {
 public:
  Counter() = default;
  void Increment() { Add(1); }
  void Add(int64_t n) {
    if (cell_ != nullptr) {
      cell_->value.fetch_add(n, std::memory_order_relaxed);
    }
  }
  int64_t Get() const {
    return cell_ != nullptr ? cell_->value.load(std::memory_order_relaxed)
                            : 0;
  }
  bool is_noop() const { return cell_ == nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Counter(obs_internal::CounterCell* cell) : cell_(cell) {}
  obs_internal::CounterCell* cell_ = nullptr;
};

// Handle to a named last-value gauge.
class Gauge {
 public:
  Gauge() = default;
  void Set(int64_t v) {
    if (cell_ != nullptr) {
      cell_->value.store(v, std::memory_order_relaxed);
    }
  }
  int64_t Get() const {
    return cell_ != nullptr ? cell_->value.load(std::memory_order_relaxed)
                            : 0;
  }
  bool is_noop() const { return cell_ == nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(obs_internal::GaugeCell* cell) : cell_(cell) {}
  obs_internal::GaugeCell* cell_ = nullptr;
};

// Handle to a named histogram.
class Histogram {
 public:
  Histogram() = default;
  void Record(int64_t value) {
    if (cell_ != nullptr) cell_->Record(value);
  }
  int64_t Count() const {
    return cell_ != nullptr ? cell_->count.load(std::memory_order_relaxed)
                            : 0;
  }
  int64_t Sum() const {
    return cell_ != nullptr ? cell_->sum.load(std::memory_order_relaxed) : 0;
  }
  bool is_noop() const { return cell_ == nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(obs_internal::HistogramCell* cell) : cell_(cell) {}
  obs_internal::HistogramCell* cell_ = nullptr;
};

class MetricsRegistry {
 public:
  explicit MetricsRegistry(bool enabled) : enabled_(enabled) {}

  // The process-wide registry. Starts disabled; surfaces that want process
  // metrics (the CLI under --json/--stats, a server) enable it at startup.
  static MetricsRegistry* Default();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  // Returns the metric registered under `name`, creating it on first use.
  // When the registry is disabled, returns a null (no-op) handle and
  // registers nothing. Mixing one name across metric kinds is a caller bug;
  // the registry keeps separate namespaces, so it is merely confusing.
  Counter FindOrCreateCounter(const std::string& name);
  Gauge FindOrCreateGauge(const std::string& name);
  Histogram FindOrCreateHistogram(const std::string& name);

  // Attaches (or overwrites) the most-recent exemplar of histogram `name`:
  // one sample value plus the request id that produced it. The OpenMetrics
  // exposition renders it on the histogram's `le="+Inf"` bucket line
  // (`... # {request_id="..."} <value>`), which is how a scraped tail
  // sample links back to a journal/trace id. No-op on a disabled registry.
  void RecordExemplar(const std::string& name, int64_t value,
                      const std::string& request_id);

  // OpenMetrics text exposition (the Prometheus scrape format), the
  // registry's one rendering: one `# TYPE` line per metric family,
  // counter samples with the `_total` suffix, histograms as cumulative
  // `_bucket{le="..."}` series ending at le="+Inf" plus `_sum`/`_count`,
  // and a terminal `# EOF`. Names are prefixed `pebblejoin_` with dots
  // mapped to underscores (`solve.wall_us` -> `pebblejoin_solve_wall_us`).
  // Deterministic order (the registry maps are sorted). Lintable with
  // tools/openmetrics_lint.py; conventions in docs/observability.md.
  // Values are read relaxed; under concurrent writers the text is a
  // consistent-enough monotone view, not a linearizable cut.
  std::string OpenMetricsText() const;

 private:
  std::atomic<bool> enabled_;
  mutable std::mutex mutex_;  // guards the maps, not the cells
  std::map<std::string, std::unique_ptr<obs_internal::CounterCell>> counters_;
  std::map<std::string, std::unique_ptr<obs_internal::GaugeCell>> gauges_;
  std::map<std::string, std::unique_ptr<obs_internal::HistogramCell>>
      histograms_;
  struct Exemplar {
    int64_t value = 0;
    std::string request_id;
  };
  std::map<std::string, Exemplar> exemplars_;
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_OBS_METRICS_H_
