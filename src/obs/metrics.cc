#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <stdexcept>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace randrank::obs {

size_t ThreadShardIndex() {
  static std::atomic<size_t> next{0};
  thread_local const size_t index =
      next.fetch_add(1, std::memory_order_relaxed) & (kMetricShards - 1);
  return index;
}

// --- LatencyHistogram bucket arithmetic -------------------------------------

uint32_t LatencyHistogram::BucketIndex(uint64_t value) {
  if (value < 2 * kSubBuckets) return static_cast<uint32_t>(value);
  const uint32_t msb = 63u - static_cast<uint32_t>(std::countl_zero(value));
  const uint32_t shift = msb - kSubBucketBits;
  if (shift > kMaxShift) return kBuckets - 1;  // out of range: clamp
  const uint32_t sub =
      static_cast<uint32_t>(value >> shift) & (kSubBuckets - 1);
  // Octave `shift` starts at index (shift + 1) * kSubBuckets: the linear
  // region occupies the first two octave slots, then each shift adds one.
  return ((shift + 1) << kSubBucketBits) | sub;
}

uint64_t LatencyHistogram::BucketLo(uint32_t bucket) {
  assert(bucket < kBuckets);
  if (bucket < 2 * kSubBuckets) return bucket;
  const uint32_t shift = (bucket >> kSubBucketBits) - 1;
  const uint64_t sub = bucket & (kSubBuckets - 1);
  return (static_cast<uint64_t>(kSubBuckets) + sub) << shift;
}

uint64_t LatencyHistogram::BucketHi(uint32_t bucket) {
  assert(bucket < kBuckets);
  if (bucket < 2 * kSubBuckets) return bucket + 1;
  const uint32_t shift = (bucket >> kSubBucketBits) - 1;
  const uint64_t sub = bucket & (kSubBuckets - 1);
  return (static_cast<uint64_t>(kSubBuckets) + sub + 1) << shift;
}

LatencyHistogram::LatencyHistogram() {
  for (Shard& shard : shards_) {
    shard.counts = std::make_unique<std::atomic<uint64_t>[]>(kBuckets);
    for (uint32_t b = 0; b < kBuckets; ++b) {
      shard.counts[b].store(0, std::memory_order_relaxed);
    }
  }
}

HistogramSnapshot LatencyHistogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.counts.assign(kBuckets, 0);
  for (const Shard& shard : shards_) {
    for (uint32_t b = 0; b < kBuckets; ++b) {
      snap.counts[b] += shard.counts[b].load(std::memory_order_relaxed);
    }
    snap.sum += shard.sum.load(std::memory_order_relaxed);
  }
  for (const uint64_t c : snap.counts) snap.total += c;
  return snap;
}

// --- HistogramSnapshot arithmetic -------------------------------------------

double HistogramSnapshot::Quantile(double q) const {
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Target rank in [1, total]; the value of the target'th smallest sample.
  const double target = q * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (uint32_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const uint64_t next = cumulative + counts[b];
    if (static_cast<double>(next) >= target) {
      const double lo = static_cast<double>(LatencyHistogram::BucketLo(b));
      const double hi = static_cast<double>(LatencyHistogram::BucketHi(b));
      const double within =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(counts[b]);
      return lo + (hi - lo) * std::clamp(within, 0.0, 1.0);
    }
    cumulative = next;
  }
  return static_cast<double>(Max());
}

uint64_t HistogramSnapshot::Max() const {
  for (uint32_t b = static_cast<uint32_t>(counts.size()); b-- > 0;) {
    if (counts[b] > 0) return LatencyHistogram::BucketHi(b);
  }
  return 0;
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  if (counts.empty()) counts.assign(LatencyHistogram::kBuckets, 0);
  assert(other.counts.empty() || other.counts.size() == counts.size());
  for (size_t b = 0; b < other.counts.size(); ++b) counts[b] += other.counts[b];
  total += other.total;
  sum += other.sum;
}

HistogramSnapshot HistogramSnapshot::Delta(
    const HistogramSnapshot& earlier) const {
  HistogramSnapshot delta = *this;
  assert(earlier.counts.empty() || earlier.counts.size() == delta.counts.size());
  for (size_t b = 0; b < earlier.counts.size(); ++b) {
    assert(delta.counts[b] >= earlier.counts[b]);
    delta.counts[b] -= earlier.counts[b];
  }
  delta.total -= earlier.total;
  delta.sum -= earlier.sum;
  return delta;
}

// --- MetricsRegistry --------------------------------------------------------

namespace {

template <typename T>
T& GetOrCreate(std::map<std::string, std::unique_ptr<T>>* own,
               const std::string& name, bool taken_elsewhere) {
  auto it = own->find(name);
  if (it != own->end()) return *it->second;
  if (taken_elsewhere) {
    throw std::invalid_argument("metric \"" + name +
                                "\" already registered as a different kind");
  }
  return *own->emplace(name, std::make_unique<T>()).first->second;
}

}  // namespace

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return GetOrCreate(&counters_, name,
                     gauges_.count(name) > 0 || histograms_.count(name) > 0);
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return GetOrCreate(&gauges_, name,
                     counters_.count(name) > 0 || histograms_.count(name) > 0);
}

LatencyHistogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return GetOrCreate(&histograms_, name,
                     counters_.count(name) > 0 || gauges_.count(name) > 0);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace(name, counter->Value());
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace(name, gauge->Value());
  }
  for (const auto& [name, hist] : histograms_) {
    snap.histograms.emplace(name, hist->Snapshot());
  }
  return snap;
}

// --- FastNowNs --------------------------------------------------------------

namespace {

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

#if defined(__x86_64__)
struct TscCalibration {
  uint64_t base_tsc = 0;
  uint64_t base_ns = 0;
  double ns_per_tick = 0.0;

  TscCalibration() {
    // Short busy calibration against steady_clock: accurate to well under a
    // percent over 2 ms, paid once at first use.
    base_tsc = __rdtsc();
    base_ns = SteadyNowNs();
    const uint64_t until_ns = base_ns + 2'000'000;
    uint64_t now_ns = base_ns;
    while (now_ns < until_ns) now_ns = SteadyNowNs();
    const uint64_t now_tsc = __rdtsc();
    ns_per_tick = now_tsc > base_tsc
                      ? static_cast<double>(now_ns - base_ns) /
                            static_cast<double>(now_tsc - base_tsc)
                      : 0.0;
  }
};
#endif

}  // namespace

uint64_t FastNowNs() {
#if defined(__x86_64__)
  static const TscCalibration cal;
  if (cal.ns_per_tick > 0.0) {
    const uint64_t ticks = __rdtsc() - cal.base_tsc;
    return cal.base_ns +
           static_cast<uint64_t>(static_cast<double>(ticks) * cal.ns_per_tick);
  }
#endif
  return SteadyNowNs();
}

}  // namespace randrank::obs
