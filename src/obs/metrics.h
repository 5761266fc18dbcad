#ifndef RANDRANK_OBS_METRICS_H_
#define RANDRANK_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace randrank::obs {

/// Number of worker-local shards every hot-path metric is striped across.
/// Recording threads hash to a shard (one relaxed fetch_add, no false
/// sharing); snapshots sum across shards. A power of two so the shard pick
/// is a mask, sized for the worker counts the serve layer actually runs.
inline constexpr size_t kMetricShards = 16;

/// Stable per-thread shard index in [0, kMetricShards): assigned round-robin
/// on first use, so up to kMetricShards concurrent recorders never contend
/// on the same cache line.
size_t ThreadShardIndex();

/// Monotone counter, sharded for contention-free hot-path increments.
/// Add() is a single relaxed fetch_add on the caller's shard; Value() sums
/// the shards (so a concurrent reader sees a value that is exact for every
/// increment that happened-before the read, and never decreases).
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    shards_[ThreadShardIndex()].v.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  Shard shards_[kMetricShards];
};

/// Last-write-wins instantaneous value (open connections, epoch number, a
/// snapshot statistic). One atomic double; Set/Value are relaxed.
class Gauge {
 public:
  void Set(double value) { v_.store(value, std::memory_order_relaxed); }
  double Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Value-type read of a LatencyHistogram: plain bucket counts plus the
/// quantile/merge/delta arithmetic every consumer needs (workload
/// percentiles, before/after deltas, exporters, tests).
struct HistogramSnapshot {
  std::vector<uint64_t> counts;  // one per bucket; empty == nothing recorded
  uint64_t total = 0;
  /// Sum of recorded values (for Prometheus *_sum and mean estimates).
  uint64_t sum = 0;

  bool empty() const { return total == 0; }
  double Mean() const {
    return total > 0 ? static_cast<double>(sum) / static_cast<double>(total)
                     : 0.0;
  }
  /// Quantile estimate for q in [0, 1]: walks the cumulative counts to the
  /// target rank and interpolates linearly inside the landing bucket, so the
  /// relative error is bounded by the bucket width (~1/32 beyond the exact
  /// linear region). Returns 0 for an empty snapshot.
  double Quantile(double q) const;
  /// Upper bound of the highest (lower bound of the lowest) non-empty
  /// bucket — the recorded max (min) up to bucket resolution. 0 when empty.
  uint64_t Max() const;
  uint64_t Min() const;

  /// Adds `other`'s counts into this snapshot (same bucket layout).
  void Merge(const HistogramSnapshot& other);
  /// Counts recorded since `earlier` was taken (elementwise subtraction;
  /// `earlier` must be an older snapshot of the same histogram).
  HistogramSnapshot Delta(const HistogramSnapshot& earlier) const;
};

/// Log-bucketed HDR-style latency histogram over nonnegative integer values
/// (the serve layer records nanoseconds).
///
/// Bucket layout: values below 2*kSubBuckets land in exact width-1 buckets;
/// beyond that every power-of-two range [2^e, 2^(e+1)) is split into
/// kSubBuckets linear sub-buckets, bounding the relative quantization error
/// by 1/kSubBuckets (~3%) across the whole range. Values past the last
/// bucket (~2^44, hours in nanoseconds) clamp into it.
///
/// Threading: Record() is one relaxed fetch_add on the recording thread's
/// shard of the bucket array — a fixed few-ns cost, no locks, no rmw
/// contention across workers. Snapshot() sums shards with relaxed loads:
/// because every bucket is a monotone atomic, a snapshot taken under
/// concurrent recording is a consistent point-in-time-ish view (it contains
/// every record that happened-before it, never tears a count, and two
/// successive snapshots are elementwise monotone).
class LatencyHistogram {
 public:
  static constexpr uint32_t kSubBucketBits = 5;
  static constexpr uint32_t kSubBuckets = 1u << kSubBucketBits;  // 32
  /// Largest mantissa shift covered before clamping; buckets span values up
  /// to (2*kSubBuckets) << kMaxShift.
  static constexpr uint32_t kMaxShift = 38;
  static constexpr uint32_t kBuckets = kSubBuckets * (2 + kMaxShift);

  LatencyHistogram();

  void Record(uint64_t value) {
    const uint32_t b = BucketIndex(value);
    Shard& shard = shards_[ThreadShardIndex()];
    shard.counts[b].fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(value, std::memory_order_relaxed);
  }

  /// Records `count` observations of `value` at the cost of one: the batched
  /// serve path amortizes its two clock stamps over a whole batch and books
  /// the per-query share in a single call.
  void RecordN(uint64_t value, uint64_t count) {
    if (count == 0) return;
    const uint32_t b = BucketIndex(value);
    Shard& shard = shards_[ThreadShardIndex()];
    shard.counts[b].fetch_add(count, std::memory_order_relaxed);
    shard.sum.fetch_add(value * count, std::memory_order_relaxed);
  }

  HistogramSnapshot Snapshot() const;

  /// Bucket arithmetic, exposed for the boundary tests and exporters:
  /// BucketIndex(v) is monotone in v, and BucketLo(b) <= v < BucketHi(b)
  /// for every non-clamped value.
  static uint32_t BucketIndex(uint64_t value);
  static uint64_t BucketLo(uint32_t bucket);
  static uint64_t BucketHi(uint32_t bucket);  // exclusive

 private:
  struct alignas(64) Shard {
    std::unique_ptr<std::atomic<uint64_t>[]> counts;
    std::atomic<uint64_t> sum{0};
  };
  Shard shards_[kMetricShards];
};

/// Point-in-time read of every metric in a registry, keyed by name. The
/// exporters (obs/export.h) format this; consumers needing arithmetic
/// (deltas, merged quantiles) work on the HistogramSnapshots directly.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// Central metric namespace: every subsystem registers its counters, gauges,
/// and latency histograms here by slash-separated name
/// ("serve/latency_ns/selective", "net/request_ns",
/// "exp/arm:treatment/click_qpc") and
/// every exporter reads one consistent snapshot of all of them.
///
/// GetX() registers on first use and returns a reference that stays valid
/// for the registry's lifetime (metrics are never deleted), so hot paths
/// resolve their metric pointer once — at construction or epoch publish —
/// and record lock-free thereafter. Re-registering a name as a different
/// metric kind throws std::invalid_argument. All methods are thread-safe;
/// the registration mutex is never on a recording path.
class MetricsRegistry {
 public:
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  LatencyHistogram& GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

/// Fast monotonic nanosecond clock for hot-path latency stamps: rdtsc with a
/// once-calibrated tick->ns scale on x86-64 (a few ns per read), falling
/// back to std::chrono::steady_clock elsewhere. The first call pays a short
/// (~2 ms) calibration against steady_clock; absolute values are only
/// meaningful as differences.
uint64_t FastNowNs();

}  // namespace randrank::obs

#endif  // RANDRANK_OBS_METRICS_H_
