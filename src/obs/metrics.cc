#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace pebblejoin {

int64_t PercentileOfSamples(std::vector<int64_t> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return PercentileOfSorted(samples, q);
}

int64_t PercentileOfSorted(const std::vector<int64_t>& sorted, double q) {
  if (sorted.empty()) return -1;
  q = std::min(1.0, std::max(0.0, q));
  auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::min(sorted.size(), std::max<size_t>(1, rank));
  return sorted[rank - 1];
}

namespace obs_internal {

namespace {

// Bucket index for a sample: 0 for values <= 0, else 1 + floor(log2(v)),
// clamped to the last bucket. Bucket i > 0 therefore covers
// [2^(i-1), 2^i).
int BucketIndex(int64_t value) {
  if (value <= 0) return 0;
  const int index = 64 - __builtin_clzll(static_cast<uint64_t>(value));
  return index < HistogramCell::kNumBuckets
             ? index
             : HistogramCell::kNumBuckets - 1;
}

// Relaxed compare-exchange min/max update.
void AtomicMin(std::atomic<int64_t>* target, int64_t value) {
  int64_t cur = target->load(std::memory_order_relaxed);
  while (value < cur && !target->compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<int64_t>* target, int64_t value) {
  int64_t cur = target->load(std::memory_order_relaxed);
  while (value > cur && !target->compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

void HistogramCell::Record(int64_t value) {
  buckets[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count.fetch_add(1, std::memory_order_relaxed);
  sum.fetch_add(value, std::memory_order_relaxed);
  AtomicMin(&min, value);
  AtomicMax(&max, value);
}

void HistogramCell::Reset() {
  count.store(0, std::memory_order_relaxed);
  sum.store(0, std::memory_order_relaxed);
  min.store(INT64_MAX, std::memory_order_relaxed);
  max.store(INT64_MIN, std::memory_order_relaxed);
  for (int i = 0; i < kNumBuckets; ++i) {
    buckets[i].store(0, std::memory_order_relaxed);
  }
}

int64_t InterpolateQuantile(
    const int64_t (&buckets)[HistogramCell::kNumBuckets], int64_t count,
    int64_t min, int64_t max, double q) {
  q = std::min(1.0, std::max(0.0, q));
  int64_t rank =
      static_cast<int64_t>(std::ceil(q * static_cast<double>(count)));
  rank = std::min(count, std::max<int64_t>(1, rank));
  int64_t seen = 0;
  for (int i = 0; i < HistogramCell::kNumBuckets; ++i) {
    const int64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    if (seen + in_bucket >= rank) {
      const int64_t lower = i == 0 ? 0 : int64_t{1} << (i - 1);
      const int64_t upper =
          i == 0 ? 1 : (i >= 63 ? INT64_MAX : int64_t{1} << i);
      const double within =
          (static_cast<double>(rank - seen) - 0.5) /
          static_cast<double>(in_bucket);
      int64_t estimate =
          lower + static_cast<int64_t>(
                      static_cast<double>(upper - lower) * within);
      estimate = std::max(estimate, min);
      estimate = std::min(estimate, max);
      return estimate;
    }
    seen += in_bucket;
  }
  return max;
}

}  // namespace obs_internal

MetricsRegistry* MetricsRegistry::Default() {
  static MetricsRegistry* instance = new MetricsRegistry(/*enabled=*/false);
  return instance;
}

Counter MetricsRegistry::FindOrCreateCounter(const std::string& name) {
  if (!enabled()) return Counter();
  std::lock_guard<std::mutex> lock(mutex_);
  auto& cell = counters_[name];
  if (cell == nullptr) cell = std::make_unique<obs_internal::CounterCell>();
  return Counter(cell.get());
}

Gauge MetricsRegistry::FindOrCreateGauge(const std::string& name) {
  if (!enabled()) return Gauge();
  std::lock_guard<std::mutex> lock(mutex_);
  auto& cell = gauges_[name];
  if (cell == nullptr) cell = std::make_unique<obs_internal::GaugeCell>();
  return Gauge(cell.get());
}

Histogram MetricsRegistry::FindOrCreateHistogram(const std::string& name) {
  if (!enabled()) return Histogram();
  std::lock_guard<std::mutex> lock(mutex_);
  auto& cell = histograms_[name];
  if (cell == nullptr) cell = std::make_unique<obs_internal::HistogramCell>();
  return Histogram(cell.get());
}

void MetricsRegistry::RecordExemplar(const std::string& name, int64_t value,
                                     const std::string& request_id) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  Exemplar& exemplar = exemplars_[name];
  exemplar.value = value;
  exemplar.request_id = request_id;
}

namespace {

// Maps a registry name onto the OpenMetrics charset [a-zA-Z0-9_:] under
// the pebblejoin_ prefix: "solve.wall_us" -> "pebblejoin_solve_wall_us".
std::string OpenMetricsName(const std::string& name) {
  std::string out = "pebblejoin_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

// OpenMetrics label-value escaping: backslash, double quote, newline.
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

void MetricsRegistry::WriteOpenMetrics(std::ostream* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, cell] : counters_) {
    const std::string metric = OpenMetricsName(name);
    *out << "# TYPE " << metric << " counter\n";
    *out << metric << "_total "
         << cell->value.load(std::memory_order_relaxed) << "\n";
  }
  for (const auto& [name, cell] : gauges_) {
    const std::string metric = OpenMetricsName(name);
    *out << "# TYPE " << metric << " gauge\n";
    *out << metric << " " << cell->value.load(std::memory_order_relaxed)
         << "\n";
  }
  for (const auto& [name, cell] : histograms_) {
    const std::string metric = OpenMetricsName(name);
    const int64_t count = cell->count.load(std::memory_order_relaxed);
    *out << "# TYPE " << metric << " histogram\n";
    int64_t cumulative = 0;
    for (int i = 0; i < obs_internal::HistogramCell::kNumBuckets - 1; ++i) {
      const int64_t n = cell->buckets[i].load(std::memory_order_relaxed);
      if (n == 0) continue;
      cumulative += n;
      // Samples are integers, so bucket i's exclusive upper bound 2^i
      // makes le="2^i - 1" the exact inclusive boundary ("0" for the
      // zeros bucket). The last bucket is open-ended: +Inf covers it.
      const int64_t le = i == 0 ? 0 : (int64_t{1} << i) - 1;
      *out << metric << "_bucket{le=\"" << le << "\"} " << cumulative
           << "\n";
    }
    *out << metric << "_bucket{le=\"+Inf\"} " << count;
    // Exemplar on the open-ended bucket (every sample falls inside it):
    // one traceable request id per histogram family.
    const auto exemplar = exemplars_.find(name);
    if (exemplar != exemplars_.end()) {
      *out << " # {request_id=\""
           << EscapeLabelValue(exemplar->second.request_id) << "\"} "
           << exemplar->second.value;
    }
    *out << "\n";
    *out << metric << "_sum " << cell->sum.load(std::memory_order_relaxed)
         << "\n";
    *out << metric << "_count " << count << "\n";
  }
  *out << "# EOF\n";
}

std::string MetricsRegistry::OpenMetricsText() const {
  std::ostringstream out;
  WriteOpenMetrics(&out);
  return out.str();
}

}  // namespace pebblejoin
