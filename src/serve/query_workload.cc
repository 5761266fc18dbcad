#include "serve/query_workload.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/visit_law.h"
#include "obs/metrics.h"

namespace randrank {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

WorkloadResult RunQueryWorkload(ShardedRankServer& server,
                                const WorkloadOptions& options) {
  const size_t threads = std::max<size_t>(1, options.threads);
  const size_t quota = options.queries_per_thread;
  const size_t top_m = std::max<size_t>(1, options.top_m);

  // One shared click model: the rank of the clicked result follows the
  // paper's F2 law (VisitLaw's default 3/2 exponent) truncated to the served
  // page (VisitLaw is immutable, so sharing it across workers is safe).
  const VisitLaw click_law(top_m, 1.0);

  std::vector<std::vector<double>> latencies_us(threads);
  std::atomic<bool> go{false};

  // Click ranks come from the workload's own seed (stream per worker), so
  // the traffic is reproducible regardless of the server's context state.
  // The seed is mixed through splitmix64 first: the server hands out streams
  // 0..N of its own (unmixed) ServeOptions::seed, so a caller passing the
  // same number for both seeds must not get click sequences bit-identical to
  // (and thus correlated with) the serving realizations.
  uint64_t mix_state = options.seed;
  const uint64_t click_seed = SplitMix64(&mix_state) ^ 0xc11c5eedULL;

  const size_t batch_size = std::max<size_t>(1, options.batch_size);

  auto click = [&](ShardedRankServer::Context& ctx, Rng& click_rng,
                   const std::vector<uint32_t>& results, size_t served) {
    if (served > 0) {
      size_t rank = click_law.SampleRank(click_rng);
      if (rank > served) rank = served;  // short list: clamp to the tail
      server.RecordVisit(ctx, results[rank - 1]);
    }
  };

  auto worker = [&](size_t t) {
    ShardedRankServer::Context ctx = server.CreateContext();
    Rng click_rng = Rng::ForStream(click_seed, t);
    std::vector<double>& lat = latencies_us[t];
    lat.reserve(quota);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    if (batch_size > 1) {
      QueryBatch batch(top_m, 0);
      for (size_t q = 0; q < quota;) {
        const size_t count = std::min(batch_size, quota - q);
        batch.Resize(count);
        const Clock::time_point t0 = Clock::now();
        server.ServeBatch(ctx, &batch);
        const Clock::time_point t1 = Clock::now();
        const double per_query_us =
            SecondsBetween(t0, t1) * 1e6 / static_cast<double>(count);
        for (size_t i = 0; i < count; ++i) {
          lat.push_back(per_query_us);
          click(ctx, click_rng, batch.results[i], batch.results[i].size());
        }
        q += count;
      }
    } else {
      std::vector<uint32_t> results;
      results.reserve(top_m);
      for (size_t q = 0; q < quota; ++q) {
        const Clock::time_point t0 = Clock::now();
        const size_t served = server.ServeTopM(ctx, top_m, &results);
        const Clock::time_point t1 = Clock::now();
        lat.push_back(SecondsBetween(t0, t1) * 1e6);
        click(ctx, click_rng, results, served);
      }
    }
    server.FlushFeedback(ctx);
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (size_t t = 0; t < threads; ++t) pool.emplace_back(worker, t);

  // With a registry attached, per-query service times accumulate in the
  // serve histograms as a side effect of serving; snapshotting around the
  // run isolates this workload's recordings from anything already there.
  const std::string hist_prefix = server.obs_prefix() + "/latency_ns/";
  obs::MetricsSnapshot obs_before;
  if (server.metrics() != nullptr) obs_before = server.metrics()->Snapshot();

  const uint64_t visits_before = server.total_visits();
  const Clock::time_point start = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  const Clock::time_point stop = Clock::now();

  WorkloadResult result;
  result.queries = threads * quota;
  result.visits = server.total_visits() - visits_before;
  result.seconds = SecondsBetween(start, stop);
  result.qps = result.seconds > 0.0
                   ? static_cast<double>(result.queries) / result.seconds
                   : 0.0;

  std::vector<double> all;
  all.reserve(result.queries);
  for (const auto& lat : latencies_us) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  if (!all.empty()) {
    // One sort, then interpolated index lookups (Percentile() would re-sort
    // a copy per percentile).
    std::sort(all.begin(), all.end());
    const auto at = [&all](double p) {
      const double idx = p / 100.0 * static_cast<double>(all.size() - 1);
      const auto lo = static_cast<size_t>(idx);
      const size_t hi = std::min(lo + 1, all.size() - 1);
      return all[lo] + (all[hi] - all[lo]) * (idx - static_cast<double>(lo));
    };
    result.p50_latency_us = at(50.0);
    result.p99_latency_us = at(99.0);
    result.max_latency_us = all.back();
  }

  // Prefer the per-query serve histogram over the wall-clock estimate
  // (which, in batched mode, is batch wall time divided by batch size — a
  // mean, not a distribution).
  if (server.metrics() != nullptr) {
    const obs::MetricsSnapshot obs_after = server.metrics()->Snapshot();
    obs::HistogramSnapshot served;
    for (const auto& [name, snap] : obs_after.histograms) {
      if (name.rfind(hist_prefix, 0) != 0) continue;
      const auto before = obs_before.histograms.find(name);
      served.Merge(before != obs_before.histograms.end()
                       ? snap.Delta(before->second)
                       : snap);
    }
    if (!served.empty()) {
      result.p50_latency_us = served.Quantile(0.50) * 1e-3;
      result.p99_latency_us = served.Quantile(0.99) * 1e-3;
      result.max_latency_us = static_cast<double>(served.Max()) * 1e-3;
      result.histogram_latency = true;
    }
  }
  return result;
}

}  // namespace randrank
