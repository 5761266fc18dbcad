// Serving-throughput benchmark for the sharded query engine: closed-loop
// QPS and latency percentiles of fresh-realization top-m queries on a
// 100k-page corpus, swept over worker threads, shard counts, the degree of
// randomization r, ServeBatch batch sizes, and the policy families (plus a
// 2x-corpus Plackett-Luce pl_largen point, and a large-m point per family
// that reports its per-slot cost at m = 1024 over its own m = 20), plus an
// observability-overhead ablation (serve/obs:{on,off} — identical point
// with and without the metrics registry + sampled tracing attached).
//
// Output: the standard counter-benchmark table, a paper-style series table,
// and one JSON line per data point (for the per-commit perf trajectory). The
// `rules` and `qps` floors in bench/baseline_smoke.json say which points and
// fields tools/check_bench.py gates. The process exits nonzero if the JSONL
// output is empty or malformed, so a crashed sweep cannot pass CI silently.
// The thread sweep reports `scaling_vs_1thread`; on multi-core hardware the
// 8-thread row is expected to reach >= 4x the 1-thread QPS (on a single-core
// CI runner it degenerates to ~1x, which the JSON records honestly via the
// `hw_threads` field).

#include <benchmark/benchmark.h>

#include <time.h>

#include <chrono>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/policy/plackett_luce_policy.h"
#include "core/policy/policy_factory.h"
#include "core/policy/promotion_policy.h"
#include "core/policy/stochastic_ranking_policy.h"
#include "core/rank_merge.h"
#include "core/ranking_policy.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/feedback.h"
#include "serve/query_workload.h"
#include "serve/sharded_rank_server.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace randrank;

using bench::Corpus;
using bench::MakeCorpus;

struct PointConfig {
  size_t shards = 8;
  double r = 0.1;
  size_t threads = 2;
  size_t queries_per_thread = 1000;
  size_t top_m = 10;
  size_t batch = 1;
  /// Corpus size this point ran against; 0 means the shared default corpus
  /// (kPages). Points on a different corpus (serve/pl_largen) set it so
  /// their JSONL `pages` field stays honest.
  size_t pages = 0;
  /// When set, serve this policy instead of the r-derived promotion config
  /// (the policy-family sweep).
  std::shared_ptr<const StochasticRankingPolicy> policy;
  /// Observability attachment for the point (null = uninstrumented serving,
  /// the default for the perf sweeps; the obs ablation sets these).
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceLog* trace = nullptr;
};

WorkloadResult MeasurePoint(const Corpus& corpus, const PointConfig& p) {
  ServeOptions opts;
  opts.shards = p.shards;
  opts.seed = 0xbe9cULL + p.shards * 131 + p.threads;
  opts.metrics = p.metrics;
  opts.trace = p.trace;
  const std::shared_ptr<const StochasticRankingPolicy> policy =
      p.policy != nullptr
          ? p.policy
          : MakePromotionPolicy(p.r == 0.0
                                    ? RankPromotionConfig::None()
                                    : RankPromotionConfig::Selective(p.r, 2));
  ShardedRankServer server(policy, corpus.popularity.size(), opts);
  server.Update(corpus.popularity, corpus.zero, corpus.birth);

  WorkloadOptions wl;
  wl.threads = p.threads;
  wl.queries_per_thread = p.queries_per_thread;
  wl.top_m = p.top_m;
  wl.batch_size = p.batch;
  wl.seed = 99 + p.threads + p.batch;
  return RunQueryWorkload(server, wl);
}

/// Distribution-equivalence check shipped with the perf run: the server
/// must realize the law of Ranker::MaterializeList over the same page state.
/// Statistic: the number of pool pages in a served top-m (a categorical in
/// 0..m), compared with the reference's by the two-sample chi-squared test;
/// plus an exact check that the r=0 full served list is the Ranker's
/// deterministic order. CI fails on drift via tools/check_bench.py.
std::map<std::string, double> EquivalenceCheck(size_t trials) {
  const size_t n = 2000;
  const size_t m = 20;
  const Corpus corpus = MakeCorpus(n, 0.2, 7);
  const auto policy =
      MakePromotionPolicy(RankPromotionConfig::Selective(0.3, 2));
  const auto tally = [&](const std::vector<uint32_t>& list,
                         std::vector<double>* pool_counts) {
    size_t pool_hits = 0;
    for (size_t j = 0; j < m; ++j) pool_hits += corpus.zero[list[j]];
    (*pool_counts)[pool_hits] += 1.0;
  };

  // Fixed seeds freeze one draw of the test statistic; this pair is
  // verified non-rejecting at both the smoke and full trial counts (the
  // statistic's false-positive rate is ~1e-3, so an arbitrary frozen pair
  // can land on a deterministic "drift").
  std::vector<double> served(m + 1, 0.0);
  {
    ServeOptions opts;
    opts.shards = 8;
    opts.seed = 1000;
    ShardedRankServer server(policy, n, opts);
    server.Update(corpus.popularity, corpus.zero, corpus.birth);
    auto ctx = server.CreateContext();
    std::vector<uint32_t> out;
    for (size_t t = 0; t < trials; ++t) {
      server.ServeTopM(ctx, m, &out);
      tally(out, &served);
    }
  }
  std::vector<double> reference(m + 1, 0.0);
  {
    Ranker ranker(policy);
    Rng rng(1001);
    ranker.Update(corpus.popularity, corpus.zero, corpus.birth, rng);
    for (size_t t = 0; t < trials; ++t) {
      tally(ranker.MaterializeList(rng), &reference);
    }
  }

  // The binomial tail cells are too sparse for the asymptotic chi-squared
  // distribution; merge until every cell carries real mass.
  MergeSparseCells(&served, &reference, 32.0);
  size_t df = 0;
  const double chi2 = TwoSampleChiSquared(served, reference, &df);
  const double critical = ChiSquaredCritical(df > 0 ? df : 1, 0.001);

  // Exact check: under r=0 the served full list is the global sort.
  bool det_exact = true;
  {
    ServeOptions opts;
    opts.shards = 8;
    ShardedRankServer server(MakePromotionPolicy(RankPromotionConfig::None()),
                             n, opts);
    server.Update(corpus.popularity, corpus.zero, corpus.birth);
    auto ctx = server.CreateContext();
    std::vector<uint32_t> out;
    server.ServeTopM(ctx, n, &out);
    Ranker ranker(MakePromotionPolicy(RankPromotionConfig::None()));
    Rng rng(0);
    ranker.Update(corpus.popularity, corpus.zero, corpus.birth, rng);
    det_exact = (out == ranker.deterministic_order());
  }

  return {{"trials", static_cast<double>(trials)},
          {"chi2", chi2},
          {"chi2_critical", critical},
          {"df", static_cast<double>(df)},
          {"det_exact", det_exact ? 1.0 : 0.0}};
}

/// Large-m gate: the per-slot cost of top-1024 queries over the same
/// family's top-20 queries, one server and one thread, timed in thread CPU
/// over alternating chunks of equal slot counts (median of the chunk
/// ratios). Every other point serves m <= 20, where a cost that grows as
/// m^2 (say, a linear scan of the served prefix per slot) stays invisible;
/// here it multiplies the ratio. A ratio within one run does not depend on
/// the host's speed.
std::map<std::string, double> LargeMRatio(
    const Corpus& corpus,
    std::shared_ptr<const StochasticRankingPolicy> policy) {
  constexpr size_t kBaseM = 20;
  constexpr size_t kLargeM = 1024;
  constexpr size_t kSlotsPerChunk = 40960;
  constexpr size_t kChunks = 9;
  ServeOptions opts;
  opts.seed = 0x1a29eULL;
  ShardedRankServer server(std::move(policy), corpus.popularity.size(), opts);
  server.Update(corpus.popularity, corpus.zero, corpus.birth);
  auto ctx = server.CreateContext();
  std::vector<uint32_t> out;
  const auto cpu_ns = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e9 +
           static_cast<double>(ts.tv_nsec);
  };
  const auto serve_chunk = [&](size_t m) {
    const double t0 = cpu_ns();
    for (size_t q = 0; q < kSlotsPerChunk / m; ++q) {
      server.ServeTopM(ctx, m, &out);
    }
    return (cpu_ns() - t0) / static_cast<double>(kSlotsPerChunk / m * m);
  };
  std::vector<double> base_ns, large_ns, ratios;
  for (size_t chunk = 0; chunk <= kChunks; ++chunk) {
    const double base = serve_chunk(kBaseM);
    const double large = serve_chunk(kLargeM);
    if (chunk == 0) continue;  // warm-up: first-touch of the scratch
    base_ns.push_back(base);
    large_ns.push_back(large);
    ratios.push_back(large / base);
  }
  return {{"m", static_cast<double>(kLargeM)},
          {"base_m", static_cast<double>(kBaseM)},
          {"pages", static_cast<double>(corpus.popularity.size())},
          {"ns_per_slot", Percentile(large_ns, 50.0)},
          {"base_ns_per_slot", Percentile(base_ns, 50.0)},
          {"per_slot_vs_base", Percentile(ratios, 50.0)}};
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::TakeSmokeFlag(&argc, argv);

  bench::PrintBanner(
      "perf_serve", "sharded serving engine: QPS and latency of top-m queries",
      "QPS scales with worker threads (>= 4x from 1 -> 8 on >= 8 cores); "
      "latency stays flat in r because resolution is O(m)");

  const size_t kPages = smoke ? 5000 : 100000;
  const Corpus corpus = MakeCorpus(kPages, 0.1, 42);
  // The same quota in --smoke: at 1,000 queries a point lasted under a
  // millisecond and its QPS timed thread wake-up, not serving.
  const size_t kQueriesPerThread = 20000;
  const double hw = static_cast<double>(std::thread::hardware_concurrency());

  bench::JsonlSink sink;
  Table table({"sweep", "threads", "shards", "r", "m", "batch", "QPS",
               "p50 (us)", "p99 (us)", "note"});

  const auto emit = [&](const std::string& name, const PointConfig& p,
                        const WorkloadResult& res,
                        std::map<std::string, double> extra,
                        const std::string& sweep, const std::string& note) {
    std::map<std::string, double> fields = {
        {"threads", static_cast<double>(p.threads)},
        {"shards", static_cast<double>(p.shards)},
        {"r", p.r},
        {"m", static_cast<double>(p.top_m)},
        {"batch", static_cast<double>(p.batch)},
        // Every point serves synchronously; the field keeps the per-commit
        // trend series' schema.
        {"async", 0.0},
        {"pages", static_cast<double>(p.pages > 0 ? p.pages : kPages)},
        {"qps", res.qps},
        {"p50_us", res.p50_latency_us},
        {"p99_us", res.p99_latency_us},
        {"hw_threads", hw}};
    fields.insert(extra.begin(), extra.end());
    bench::RegisterCounterBenchmark(name, fields);
    sink.Emit(std::cout, name, fields);
    table.Row()
        .Cell(sweep)
        .Cell(static_cast<long long>(p.threads))
        .Cell(static_cast<long long>(p.shards))
        .Cell(p.r, 2)
        .Cell(static_cast<long long>(p.top_m))
        .Cell(static_cast<long long>(p.batch))
        .Cell(res.qps, 0)
        .Cell(res.p50_latency_us, 1)
        .Cell(res.p99_latency_us, 1)
        .Cell(note);
  };

  // Thread-scaling sweep at fixed shards=8, r=0.1 (the paper's recipe).
  double qps_1thread = 0.0;
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    PointConfig p;
    p.threads = threads;
    p.queries_per_thread = kQueriesPerThread;
    const WorkloadResult res = MeasurePoint(corpus, p);
    if (threads == 1) qps_1thread = res.qps;
    const double scaling = qps_1thread > 0.0 ? res.qps / qps_1thread : 0.0;
    emit("serve/threads:" + std::to_string(threads), p, res,
         {{"scaling_vs_1thread", scaling}}, "threads",
         "x" + FormatFixed(scaling, 2) + " vs 1 thread");
  }

  // Shard-count sweep at 2 threads: with the epoch cache the per-query cost
  // no longer depends on S (the S-way merge runs once per epoch).
  for (const size_t shards : {1u, 2u, 4u, 8u, 16u}) {
    PointConfig p;
    p.shards = shards;
    p.queries_per_thread = kQueriesPerThread;
    const WorkloadResult res = MeasurePoint(corpus, p);
    emit("serve/shards:" + std::to_string(shards), p, res, {}, "shards", "");
  }

  // Randomization sweep at 2 threads, 8 shards: serving cost of r.
  for (const double r : {0.0, 0.1, 0.3, 1.0}) {
    PointConfig p;
    p.r = r;
    p.queries_per_thread = kQueriesPerThread;
    const WorkloadResult res = MeasurePoint(corpus, p);
    emit("serve/r:" + FormatFixed(r, 2), p, res, {}, "r", "");
  }

  // Batch-size sweep at m=20 (one amortized snapshot pin per batch).
  for (const size_t batch : {1u, 4u, 16u, 64u}) {
    PointConfig p;
    p.top_m = 20;
    p.batch = batch;
    p.queries_per_thread = kQueriesPerThread;
    const WorkloadResult res = MeasurePoint(corpus, p);
    emit("serve/batch:" + std::to_string(batch), p, res, {}, "batch", "");
  }

  // Observability-overhead ablation at m=20, batch=16: the same
  // point served bare and with the full obs attachment (registry histograms
  // on every query + 1-in-64 sampled trace spans). The instrumented path's
  // cost is two FastNowNs stamps and two relaxed fetch_adds per query, so
  // `qps_vs_off` (the best pairwise on/off ratio over 5 alternating reps)
  // is expected ~1.0. The point runs one worker thread with a 50k-query
  // quota: a sub-millisecond rep measures scheduler jitter, not
  // instrumentation.
  {
    obs::MetricsRegistry registry;
    obs::TraceLog trace;
    PointConfig p;
    p.top_m = 20;
    p.batch = 16;
    p.threads = 1;
    p.queries_per_thread = 50000;
    const auto arms = bench::PairedAblation(2, 5, [&](size_t arm) {
      p.metrics = arm == 1 ? &registry : nullptr;
      p.trace = arm == 1 ? &trace : nullptr;
      return MeasurePoint(corpus, p);
    });
    const WorkloadResult& res_off = arms[0].best;
    const WorkloadResult& res_on = arms[1].best;
    const double ratio = arms[1].qps_vs_off;
    emit("serve/obs:off", p, res_off, {}, "obs", "bare");
    emit("serve/obs:on", p, res_on,
         {{"qps_vs_off", ratio},
          {"hist_p50_us", res_on.p50_latency_us},
          {"hist_p99_us", res_on.p99_latency_us},
          {"trace_spans", static_cast<double>(trace.emitted())},
          {"trace_dropped", static_cast<double>(trace.dropped())}},
         "obs", "x" + FormatFixed(ratio, 2) + " vs bare");
    // The buffered spans (epoch-publish phases + sampled query spans) join
    // the JSONL feed; every line passes the same ValidateJsonLine schema as
    // the perf records.
    for (const std::string& line : trace.Drain()) {
      std::string err;
      if (!bench::ValidateJsonLine(line, &err)) {
        std::cerr << "perf_serve: bad span line: " << err << "\n" << line
                  << "\n";
        return 1;
      }
      std::cout << line << "\n";
    }
  }

  // Epoch-publish latency: one Update() = per-shard snapshot rebuild +
  // cross-shard merge + the policy's BuildEpochState + epoch-cache build +
  // atomic swap. This is also the unit cost of an online policy hot-swap
  // (a swap IS a publish carrying a different policy), so the point tracks
  // both: plain republish latency and alternating-family swap latency
  // (selective <-> Plackett-Luce, whose swap rebuilds the alias table).
  // `qps` is publishes per second so the regression gate applies as-is.
  {
    const size_t kPublishes = smoke ? 16 : 40;
    ServeOptions opts;
    opts.shards = 8;
    opts.seed = 0x9ab5ULL;
    const auto selective =
        MakePromotionPolicy(RankPromotionConfig::Selective(0.1, 2));
    const auto pl = MakePlackettLucePolicy(0.05);
    ShardedRankServer server(selective, corpus.popularity.size(), opts);
    const auto publish =
        [&](std::shared_ptr<const StochasticRankingPolicy> policy,
            std::vector<double>* lat_us) {
          const auto t0 = std::chrono::steady_clock::now();
          server.Update(corpus.popularity, corpus.zero, corpus.birth,
                        std::move(policy));
          const auto t1 = std::chrono::steady_clock::now();
          lat_us->push_back(
              std::chrono::duration<double, std::micro>(t1 - t0).count());
        };
    std::vector<double> republish_us;
    std::vector<double> swap_us;
    // Untimed warmup: the first-ever publish allocates every shard
    // snapshot and cache; the point tracks steady-state publish latency.
    std::vector<double> warmup_us;
    publish(nullptr, &warmup_us);
    for (size_t i = 0; i < kPublishes; ++i) publish(nullptr, &republish_us);
    for (size_t i = 0; i < kPublishes; ++i) {
      publish(i % 2 == 0 ? pl : selective, &swap_us);
    }
    double total_us = 0.0;
    for (const double us : republish_us) total_us += us;
    const std::map<std::string, double> fields = {
        {"publishes", static_cast<double>(kPublishes)},
        {"pages", static_cast<double>(kPages)},
        {"shards", 8.0},
        {"qps", total_us > 0.0
                    ? static_cast<double>(kPublishes) / (total_us * 1e-6)
                    : 0.0},
        {"p50_us", Percentile(republish_us, 50.0)},
        {"p99_us", Percentile(republish_us, 99.0)},
        {"swap_p50_us", Percentile(swap_us, 50.0)},
        {"hw_threads", hw}};
    bench::RegisterCounterBenchmark("serve/epoch_publish", fields);
    sink.Emit(std::cout, "serve/epoch_publish", fields);
    table.Row()
        .Cell("publish")
        .Cell("")
        .Cell(static_cast<long long>(8))
        .Cell(0.1, 2)
        .Cell("")
        .Cell("")
        .Cell(fields.at("qps"), 0)
        .Cell(fields.at("p50_us"), 1)
        .Cell(fields.at("p99_us"), 1)
        .Cell("swap p50 " + FormatFixed(fields.at("swap_p50_us"), 0) + " us");
  }

  // Policy-family sweep: one point per shipped ranking family, keyed by the
  // policy's label (MakePolicyFromLabel inverts it, so tools can map a
  // bench name back to the exact policy).
  for (const auto& policy : StandardPolicyFamilies()) {
    PointConfig p;
    p.top_m = 20;
    p.policy = policy;
    p.queries_per_thread = kQueriesPerThread;
    const WorkloadResult res = MeasurePoint(corpus, p);
    emit("serve/policy:" + policy->Label(), p, res, {}, "policy",
         policy->Label());
  }

  // Large-n Plackett-Luce point: double the corpus. With the alias table
  // the per-query cost is O(m), so QPS should hold roughly flat in n while
  // the per-epoch build (merge + alias construction) absorbs the growth.
  {
    const size_t kLargePages = 2 * kPages;
    const Corpus large = MakeCorpus(kLargePages, 0.1, 43);
    const auto pl = MakePlackettLucePolicy(0.05);
    PointConfig p;
    p.top_m = 20;
    p.policy = pl;
    p.pages = kLargePages;
    p.queries_per_thread = kQueriesPerThread;
    const WorkloadResult res = MeasurePoint(large, p);
    emit("serve/pl_largen:" + pl->Label(), p, res, {}, "pl_largen",
         "n=" + std::to_string(kLargePages));
  }

  // Large-m sweep: each shipped family's per-slot cost at m = 1024 as a
  // ratio to its own m = 20 (LargeMRatio).
  for (const auto& policy : StandardPolicyFamilies()) {
    const std::string name = "serve/large_m:" + policy->Label();
    const auto fields = LargeMRatio(corpus, policy);
    bench::RegisterCounterBenchmark(name, fields);
    sink.Emit(std::cout, name, fields);
    table.Row()
        .Cell("large_m")
        .Cell(static_cast<long long>(1))
        .Cell("")
        .Cell("")
        .Cell(static_cast<long long>(fields.at("m")))
        .Cell("")
        .Cell("")
        .Cell("")
        .Cell("")
        .Cell(policy->Label() + ": x" +
              FormatFixed(fields.at("per_slot_vs_base"), 2) +
              " per slot vs m=20");
  }

  // Serve-vs-MaterializeList distribution equivalence, shipped with every
  // perf run so the regression gate also catches statistical drift.
  {
    const auto fields = EquivalenceCheck(smoke ? 4000 : 20000);
    bench::RegisterCounterBenchmark("serve/equivalence", fields);
    sink.Emit(std::cout, "serve/equivalence", fields);
    const bool ok = fields.at("chi2") <= fields.at("chi2_critical") &&
                    fields.at("det_exact") == 1.0;
    table.Row()
        .Cell("equiv")
        .Cell("")
        .Cell(static_cast<long long>(8))
        .Cell(0.3, 2)
        .Cell(static_cast<long long>(20))
        .Cell("")
        .Cell("")
        .Cell("")
        .Cell("")
        .Cell(ok ? "chi2 ok, det exact" : "DRIFT");
  }

  return bench::FinishFigureChecked(argc, argv, table, sink);
}
