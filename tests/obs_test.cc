#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/policy/promotion_policy.h"
#include "core/ranking_policy.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "serve/query_workload.h"
#include "serve/sharded_rank_server.h"
#include "util/rng.h"

#include "serve_fixture.h"

namespace randrank {
namespace {

using obs::Counter;
using obs::FastNowNs;
using obs::Gauge;
using obs::HistogramSnapshot;
using obs::LatencyHistogram;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::TraceLog;
using obs::TraceOptions;
using testutil::Fixture;

// --- histogram bucket arithmetic --------------------------------------------

TEST(HistogramBucketsTest, LinearRegionIsExact) {
  // Values below 2*kSubBuckets get width-1 buckets: index == value and the
  // bucket bounds pin the value exactly.
  for (uint64_t v = 0; v < 2 * LatencyHistogram::kSubBuckets; ++v) {
    const uint32_t b = LatencyHistogram::BucketIndex(v);
    EXPECT_EQ(b, static_cast<uint32_t>(v));
    EXPECT_EQ(LatencyHistogram::BucketLo(b), v);
    EXPECT_EQ(LatencyHistogram::BucketHi(b), v + 1);
  }
}

TEST(HistogramBucketsTest, BoundsRoundTripAcrossRange) {
  // BucketLo(b) <= v < BucketHi(b) for every non-clamped value, swept over
  // all octaves with several offsets per octave.
  for (uint32_t shift = 0; shift <= LatencyHistogram::kMaxShift + 5; ++shift) {
    for (const uint64_t off : {0ull, 1ull, 7ull}) {
      const uint64_t base = 1ull << (shift + LatencyHistogram::kSubBucketBits);
      const uint64_t v = base + off * (base / 8 + 1);
      const uint32_t b = LatencyHistogram::BucketIndex(v);
      ASSERT_LT(b, LatencyHistogram::kBuckets) << "v=" << v;
      if (b < LatencyHistogram::kBuckets - 1) {
        EXPECT_LE(LatencyHistogram::BucketLo(b), v) << "v=" << v;
        EXPECT_LT(v, LatencyHistogram::BucketHi(b)) << "v=" << v;
      } else {
        // Clamp bucket: lower bound still holds; upper does not apply.
        EXPECT_LE(LatencyHistogram::BucketLo(b), v) << "v=" << v;
      }
    }
  }
}

TEST(HistogramBucketsTest, IndexIsMonotone) {
  uint32_t prev = 0;
  uint64_t v = 0;
  // Dense walk through the first octaves, then exponential steps to the
  // clamp region (including values past it).
  for (; v < 4096; ++v) {
    const uint32_t b = LatencyHistogram::BucketIndex(v);
    EXPECT_GE(b, prev) << "v=" << v;
    prev = b;
  }
  for (; v < (1ull << 50); v = v * 2 + 13) {
    const uint32_t b = LatencyHistogram::BucketIndex(v);
    EXPECT_GE(b, prev) << "v=" << v;
    EXPECT_LT(b, LatencyHistogram::kBuckets);
    prev = b;
  }
  EXPECT_EQ(LatencyHistogram::BucketIndex(~0ull),
            LatencyHistogram::kBuckets - 1);
}

TEST(HistogramBucketsTest, RelativeErrorBounded) {
  // Beyond the linear region the bucket width bounds the relative
  // quantization error by 1/kSubBuckets.
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = 64 + rng.NextIndex(1ull << 40);
    const uint32_t b = LatencyHistogram::BucketIndex(v);
    const double lo = static_cast<double>(LatencyHistogram::BucketLo(b));
    const double hi = static_cast<double>(LatencyHistogram::BucketHi(b));
    EXPECT_LE((hi - lo) / lo,
              1.0 / LatencyHistogram::kSubBuckets + 1e-12)
        << "v=" << v;
  }
}

// --- quantiles vs exact percentiles -----------------------------------------

TEST(HistogramQuantileTest, MatchesExactSortedPercentiles) {
  // Lognormal-ish service times (exp of a Gaussian, scaled to ~microseconds
  // in ns units) — heavy-tailed like real serving latency.
  LatencyHistogram hist;
  std::vector<uint64_t> values;
  Rng rng(42);
  for (int i = 0; i < 50000; ++i) {
    const double x = std::exp(rng.NextGaussian() * 0.7 + std::log(3000.0));
    const auto v = static_cast<uint64_t>(x);
    values.push_back(v);
    hist.Record(v);
  }
  std::sort(values.begin(), values.end());
  const HistogramSnapshot snap = hist.Snapshot();
  ASSERT_EQ(snap.total, values.size());
  for (const double q : {0.10, 0.50, 0.90, 0.99, 0.999}) {
    const double exact = static_cast<double>(
        values[static_cast<size_t>(q * (values.size() - 1))]);
    const double est = snap.Quantile(q);
    // Bucket relative error is 1/32; allow 5% for interpolation slack.
    EXPECT_NEAR(est, exact, exact * 0.05) << "q=" << q;
  }
  EXPECT_EQ(snap.Max() >= values.back(), true);
  EXPECT_NEAR(snap.Mean(),
              static_cast<double>(snap.sum) / static_cast<double>(snap.total),
              1e-9);
}

TEST(HistogramQuantileTest, EmptyAndEdgeQuantiles) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.Snapshot().Quantile(0.5), 0.0);
  EXPECT_EQ(hist.Snapshot().Max(), 0u);
  hist.Record(100);
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_GE(snap.Quantile(0.0), 0.0);
  EXPECT_LE(snap.Quantile(1.0), static_cast<double>(snap.Max()));
}

// --- merge / delta ----------------------------------------------------------

TEST(HistogramSnapshotTest, MergeEqualsCombinedRecording) {
  LatencyHistogram a;
  LatencyHistogram b;
  LatencyHistogram combined;
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t v = rng.NextIndex(1 << 20);
    if (i % 2 == 0) {
      a.Record(v);
    } else {
      b.Record(v);
    }
    combined.Record(v);
  }
  HistogramSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  const HistogramSnapshot expect = combined.Snapshot();
  EXPECT_EQ(merged.total, expect.total);
  EXPECT_EQ(merged.sum, expect.sum);
  EXPECT_EQ(merged.counts, expect.counts);
}

TEST(HistogramSnapshotTest, DeltaIsolatesNewRecordings) {
  LatencyHistogram hist;
  for (int i = 0; i < 100; ++i) hist.Record(50);
  const HistogramSnapshot before = hist.Snapshot();
  for (int i = 0; i < 40; ++i) hist.Record(5000);
  const HistogramSnapshot delta = hist.Snapshot().Delta(before);
  EXPECT_EQ(delta.total, 40u);
  EXPECT_EQ(delta.sum, 40u * 5000u);
  EXPECT_NEAR(delta.Quantile(0.5), 5000.0, 5000.0 * 0.05);
}

TEST(HistogramSnapshotTest, RecordNMatchesRepeatedRecord) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.RecordN(1234, 17);
  a.RecordN(9999, 0);  // no-op
  for (int i = 0; i < 17; ++i) b.Record(1234);
  EXPECT_EQ(a.Snapshot().counts, b.Snapshot().counts);
  EXPECT_EQ(a.Snapshot().sum, b.Snapshot().sum);
}

// --- snapshot under concurrent recording ------------------------------------

TEST(HistogramConcurrencyTest, SnapshotWhileRecordingIsMonotoneAndExact) {
  LatencyHistogram hist;
  const size_t kThreads = 4;
  const size_t kPerThread = 50000;
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      Rng rng(t + 1);
      for (size_t i = 0; i < kPerThread; ++i) {
        hist.Record(rng.NextIndex(1 << 16));
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Snapshots taken mid-recording: totals must never decrease (each bucket
  // is a monotone counter), and no snapshot may tear past the true total.
  uint64_t prev_total = 0;
  for (int s = 0; s < 50; ++s) {
    const HistogramSnapshot snap = hist.Snapshot();
    EXPECT_GE(snap.total, prev_total);
    EXPECT_LE(snap.total, kThreads * kPerThread);
    prev_total = snap.total;
  }
  for (auto& th : pool) th.join();
  const HistogramSnapshot final_snap = hist.Snapshot();
  EXPECT_EQ(final_snap.total, kThreads * kPerThread);
  uint64_t expect_sum = 0;
  for (size_t t = 0; t < kThreads; ++t) {
    Rng rng(t + 1);
    for (size_t i = 0; i < kPerThread; ++i) expect_sum += rng.NextIndex(1 << 16);
  }
  EXPECT_EQ(final_snap.sum, expect_sum);
}

// --- counters, gauges, registry ---------------------------------------------

TEST(RegistryTest, CounterSumsAcrossThreads) {
  Counter counter;
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) counter.Add();
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(counter.Value(), 40000u);
  counter.Add(5);
  EXPECT_EQ(counter.Value(), 40005u);
}

TEST(RegistryTest, StableReferencesAndKindCollision) {
  MetricsRegistry reg;
  Counter& c1 = reg.GetCounter("serve/queries");
  Counter& c2 = reg.GetCounter("serve/queries");
  EXPECT_EQ(&c1, &c2);
  reg.GetGauge("serve/epoch").Set(3.0);
  reg.GetHistogram("serve/latency_ns").Record(10);
  EXPECT_THROW(reg.GetGauge("serve/queries"), std::invalid_argument);
  EXPECT_THROW(reg.GetCounter("serve/epoch"), std::invalid_argument);
  EXPECT_THROW(reg.GetHistogram("serve/queries"), std::invalid_argument);
  c1.Add(2);
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("serve/queries"), 2u);
  EXPECT_EQ(snap.gauges.at("serve/epoch"), 3.0);
  EXPECT_EQ(snap.histograms.at("serve/latency_ns").total, 1u);
}

TEST(RegistryTest, FastNowNsTracksSteadyClock) {
  const uint64_t fast0 = FastNowNs();
  const auto steady0 = std::chrono::steady_clock::now();
  // Busy-wait ~2ms so the comparison is well above both clocks' resolution.
  while (std::chrono::steady_clock::now() - steady0 <
         std::chrono::milliseconds(2)) {
  }
  const uint64_t fast_elapsed = FastNowNs() - fast0;
  const auto steady_elapsed = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - steady0)
          .count());
  EXPECT_GT(fast_elapsed, steady_elapsed / 2);
  EXPECT_LT(fast_elapsed, steady_elapsed * 2);
}

// --- exporters --------------------------------------------------------------

TEST(ExportTest, PrometheusTextShape) {
  MetricsRegistry reg;
  reg.GetCounter("serve/queries").Add(7);
  reg.GetGauge("net/active_conns").Set(3.5);
  reg.GetHistogram("serve/latency_ns/selective").Record(100);
  const std::string text = obs::PrometheusText(reg.Snapshot());
  EXPECT_NE(text.find("serve_queries_total 7"), std::string::npos) << text;
  EXPECT_NE(text.find("net_active_conns 3.5"), std::string::npos) << text;
  EXPECT_NE(text.find("serve_latency_ns_selective_bucket"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos) << text;
  EXPECT_NE(text.find("serve_latency_ns_selective_count 1"),
            std::string::npos)
      << text;
}

// --- trace spans ------------------------------------------------------------

TEST(TraceTest, SpanLinesValidateWithLabels) {
  TraceLog trace;
  trace.EmitSpan("serve/query", 3.25,
                 {{"m", 20.0}, {"served", 20.0}, {"cached", 1.0}},
                 {{"family", "selective"}});
  trace.EmitSpan("publish/total", 812.5, {{"epoch", 4.0}});
  const std::vector<std::string> lines = trace.Drain();
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    std::string error;
    EXPECT_TRUE(bench::ValidateJsonLine(line, &error)) << error;
  }
  EXPECT_NE(lines[0].find("\"bench\":\"span/serve/query\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"family\":\"selective\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"dur_us\":812.5"), std::string::npos);
  EXPECT_TRUE(trace.Drain().empty());  // Drain empties the buffer
  EXPECT_EQ(trace.emitted(), 2u);
}

TEST(TraceTest, DropsBeyondCapacityAndCounts) {
  TraceLog trace;
  for (size_t i = 0; i < TraceLog::kCapacity + 6; ++i) {
    trace.EmitSpan("x", 1.0, {{"i", static_cast<double>(i)}});
  }
  EXPECT_EQ(trace.emitted(), TraceLog::kCapacity);
  EXPECT_EQ(trace.dropped(), 6u);
  EXPECT_EQ(trace.Drain().size(), TraceLog::kCapacity);
}

// --- serve-layer integration ------------------------------------------------

std::set<std::string> SpanNames(TraceLog& trace) {
  std::set<std::string> names;
  for (const std::string& line : trace.Drain()) {
    std::string error;
    EXPECT_TRUE(bench::ValidateJsonLine(line, &error)) << error;
    const std::string key = "{\"bench\":\"span/";
    const size_t start = key.size();
    const size_t end = line.find('"', start);
    names.insert(line.substr(start, end - start));
  }
  return names;
}

TEST(ServeObsTest, PublishEmitsAllPhaseSpans) {
  const size_t n = 500;
  Fixture fx(n, 50);
  MetricsRegistry reg;
  TraceOptions topts;
  topts.sample_every = 1;
  TraceLog trace(topts);
  ServeOptions opts;
  opts.shards = 4;
  opts.metrics = &reg;
  opts.trace = &trace;
  ShardedRankServer server(
      MakePromotionPolicy(RankPromotionConfig::Selective(0.3, 2)), n, opts);
  server.Update(fx.popularity, fx.zero, fx.birth);

  std::set<std::string> names = SpanNames(trace);
  EXPECT_TRUE(names.count("publish/shards")) << "got " << names.size();
  EXPECT_TRUE(names.count("publish/merge"));
  EXPECT_TRUE(names.count("publish/epoch_state"));
  EXPECT_TRUE(names.count("publish/rcu_publish"));
  EXPECT_TRUE(names.count("publish/total"));
  EXPECT_FALSE(names.count("publish/policy_swap"));  // no swap rode this one

  // A hot-swap publish adds the policy_swap span.
  server.Update(fx.popularity, fx.zero, fx.birth,
                MakePromotionPolicy(RankPromotionConfig::Selective(0.1, 2)));
  names = SpanNames(trace);
  EXPECT_TRUE(names.count("publish/policy_swap"));

  // Publish metrics: histogram, counter, epoch gauge.
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.histograms.at("serve/publish_ns").total, 2u);
  EXPECT_EQ(snap.counters.at("serve/publishes"), 2u);
  EXPECT_EQ(snap.gauges.at("serve/epoch"), 2.0);
}

TEST(ServeObsTest, QueriesRecordHistogramAndSpans) {
  const size_t n = 400;
  Fixture fx(n, 40);
  MetricsRegistry reg;
  TraceOptions topts;
  topts.sample_every = 1;  // every query emits its span
  TraceLog trace(topts);
  ServeOptions opts;
  opts.shards = 4;
  opts.metrics = &reg;
  opts.trace = &trace;
  ShardedRankServer server(
      MakePromotionPolicy(RankPromotionConfig::Selective(0.3, 2)), n, opts);
  server.Update(fx.popularity, fx.zero, fx.birth);
  trace.Drain();  // discard the publish spans

  auto ctx = server.CreateContext();
  std::vector<uint32_t> out;
  for (int q = 0; q < 10; ++q) server.ServeTopM(ctx, 10, &out);
  QueryBatch batch(10, 4);
  server.ServeBatch(ctx, &batch);

  const std::set<std::string> names = SpanNames(trace);
  EXPECT_TRUE(names.count("serve/query"));
  EXPECT_TRUE(names.count("serve/batch"));

  const MetricsSnapshot snap = reg.Snapshot();
  // Selective family, per the histogram naming convention.
  const HistogramSnapshot& lat =
      snap.histograms.at("serve/latency_ns/selective");
  EXPECT_EQ(lat.total, 14u);  // 10 single + 4 batched
  EXPECT_EQ(snap.counters.at("serve/queries"), 14u);
  EXPECT_EQ(snap.counters.at("serve/slots"), 14u * 10u);
}

TEST(ServeObsTest, UninstrumentedServerStaysBare) {
  const size_t n = 300;
  Fixture fx(n, 30);
  ServeOptions opts;
  opts.shards = 4;
  ShardedRankServer server(
      MakePromotionPolicy(RankPromotionConfig::Selective(0.3, 2)), n, opts);
  server.Update(fx.popularity, fx.zero, fx.birth);
  auto ctx = server.CreateContext();
  std::vector<uint32_t> out;
  EXPECT_EQ(server.ServeTopM(ctx, 10, &out), 10u);
  EXPECT_EQ(server.metrics(), nullptr);
}

TEST(ServeObsTest, WorkloadDerivesPercentilesFromHistogram) {
  const size_t n = 400;
  Fixture fx(n, 40);
  MetricsRegistry reg;
  ServeOptions opts;
  opts.shards = 4;
  opts.metrics = &reg;
  ShardedRankServer server(
      MakePromotionPolicy(RankPromotionConfig::Selective(0.3, 2)), n, opts);
  server.Update(fx.popularity, fx.zero, fx.birth);

  WorkloadOptions wl;
  wl.threads = 2;
  wl.queries_per_thread = 500;
  wl.top_m = 10;
  wl.batch_size = 8;  // batched sync mode: the path the old estimate hid
  const WorkloadResult res = RunQueryWorkload(server, wl);
  EXPECT_TRUE(res.histogram_latency);
  EXPECT_GT(res.p50_latency_us, 0.0);
  EXPECT_LE(res.p50_latency_us, res.p99_latency_us);
  EXPECT_LE(res.p99_latency_us, res.max_latency_us);

  // Without a registry the wall-clock estimate still fills the fields.
  ServeOptions bare_opts;
  bare_opts.shards = 4;
  ShardedRankServer bare(
      MakePromotionPolicy(RankPromotionConfig::Selective(0.3, 2)), n,
      bare_opts);
  bare.Update(fx.popularity, fx.zero, fx.birth);
  const WorkloadResult bare_res = RunQueryWorkload(bare, wl);
  EXPECT_FALSE(bare_res.histogram_latency);
  EXPECT_GT(bare_res.p50_latency_us, 0.0);
}

}  // namespace
}  // namespace randrank
