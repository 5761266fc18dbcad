// Fault-point overhead benchmark: what do the compiled-in fault sites cost
// the serve hot path when nothing is being injected? Three states of the
// same serving point (m=20, batch=16, 1 thread):
//
//   serve/fault:off    no injector installed — a site is one acquire atomic
//                      load (a plain load on x86) and a predicted branch (the
//                      production default);
//   serve/fault:on     an injector armed with a plan that does NOT mention
//                      serve.query — the site additionally pays the 64-bit
//                      bloom-mask test and rejects;
//   serve/fault:armed  a plan that names serve.query but whose epoch gate
//                      can never pass — the worst inert case: full rule scan
//                      plus the per-rule hit counter, every query.
//
// Reps alternate off/on/armed so adjacent runs see near-identical machine
// conditions; each armed rep is compared to its own off-neighbor and the
// BEST pairwise ratio is reported (same noise-floor reasoning as the
// serve/obs ablation). The `on` point's qps_vs_off is the robustness PR's
// acceptance criterion — disabled fault points must cost <= 1% QPS — gated
// as min_fault_qps_ratio in tools/check_bench.py; the `armed` ratio is
// recorded for reference but not gated (arming a plan is an operator
// action, not the steady state).
//
// Output follows the bench convention: counter-benchmark table, series
// table, one JSONL line per point (consumed by tools/check_bench.py).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/policy/promotion_policy.h"
#include "core/ranking_policy.h"
#include "fault/fault.h"
#include "serve/query_workload.h"
#include "serve/sharded_rank_server.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace randrank;

struct Corpus {
  std::vector<double> popularity;
  std::vector<uint8_t> zero;
  std::vector<int64_t> birth;
};

Corpus MakeCorpus(size_t n, double zero_fraction, uint64_t seed) {
  Corpus c;
  Rng rng(seed);
  c.popularity.resize(n);
  c.zero.resize(n);
  c.birth.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const bool z = rng.NextBernoulli(zero_fraction);
    c.zero[i] = z;
    c.popularity[i] = z ? 0.0 : rng.NextDouble() * 0.4;
    c.birth[i] = static_cast<int64_t>(i % 4096);
  }
  return c;
}

WorkloadResult MeasurePoint(const Corpus& corpus, size_t queries) {
  ServeOptions opts;
  opts.shards = 8;
  opts.seed = 0xfa17ULL;
  ShardedRankServer server(
      MakePromotionPolicy(RankPromotionConfig::Selective(0.1, 2)),
      corpus.popularity.size(), opts);
  server.Update(corpus.popularity, corpus.zero, corpus.birth);

  WorkloadOptions wl;
  wl.threads = 1;  // a sub-ns per-query cost needs a quiet single worker
  wl.queries_per_thread = queries;
  wl.top_m = 20;
  wl.batch_size = 16;
  wl.seed = 117;
  return RunQueryWorkload(server, wl);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  bench::PrintBanner(
      "perf_fault", "cost of compiled-in fault points on the serve hot path",
      "disabled sites (no injector) and armed-but-missing sites (bloom "
      "reject) both hold >= 0.99x bare QPS; an armed-but-inert serve.query "
      "rule stays close behind");

  const size_t kPages = smoke ? 5000 : 100000;
  const Corpus corpus = MakeCorpus(kPages, 0.1, 42);
  const double hw = static_cast<double>(std::thread::hardware_concurrency());

  // A plan that never mentions serve.query: every query pays the injector
  // load + bloom-mask reject and nothing more.
  fault::FaultPlan miss_plan;
  std::string error;
  if (!fault::FaultPlan::Parse(
          "point=net.write,action=reset,prob=0.05;"
          "point=publish.rcu_publish,action=fail,nth=1000000",
          &miss_plan, &error)) {
    std::cerr << "perf_fault: bad miss plan: " << error << "\n";
    return 1;
  }
  // A plan that names serve.query but can never fire (the epoch gate sits
  // beyond any epoch this run publishes): full rule scan + hit counter.
  fault::FaultPlan inert_plan;
  if (!fault::FaultPlan::Parse(
          "point=serve.query,action=delay,delay_us=100,from_epoch=1000000000",
          &inert_plan, &error)) {
    std::cerr << "perf_fault: bad inert plan: " << error << "\n";
    return 1;
  }
  fault::FaultInjector miss_injector(miss_plan);
  fault::FaultInjector inert_injector(inert_plan);

  // Alternating reps; keep each state's best rep and its best ratio against
  // the off-rep of the same alternation round.
  const size_t kReps = 5;
  const size_t kQueries = 50000;  // fixed even in --smoke: long enough reps
  double qps_off = 0.0;
  double qps_on = 0.0;
  double qps_armed = 0.0;
  double ratio_on = 0.0;
  double ratio_armed = 0.0;
  WorkloadResult res_off;
  WorkloadResult res_on;
  WorkloadResult res_armed;
  for (size_t rep = 0; rep < kReps; ++rep) {
    const WorkloadResult off = MeasurePoint(corpus, kQueries);
    if (off.qps > qps_off) {
      qps_off = off.qps;
      res_off = off;
    }
    WorkloadResult on;
    {
      fault::ScopedFaultInjector scoped(&miss_injector);
      on = MeasurePoint(corpus, kQueries);
    }
    if (on.qps > qps_on) {
      qps_on = on.qps;
      res_on = on;
    }
    WorkloadResult armed;
    {
      fault::ScopedFaultInjector scoped(&inert_injector);
      armed = MeasurePoint(corpus, kQueries);
    }
    if (armed.qps > qps_armed) {
      qps_armed = armed.qps;
      res_armed = armed;
    }
    if (off.qps > 0.0) {
      ratio_on = std::max(ratio_on, on.qps / off.qps);
      ratio_armed = std::max(ratio_armed, armed.qps / off.qps);
    }
  }
  // Inert means inert: neither plan may have actually fired on the serve
  // path (a fire would mean the "overhead" number measured injected work).
  if (miss_injector.fired_total() != 0 || inert_injector.fired_total() != 0) {
    std::cerr << "perf_fault: an inert plan fired ("
              << miss_injector.fired_total() << "/"
              << inert_injector.fired_total() << " fires)\n";
    return 1;
  }

  bench::JsonlSink sink;
  Table table({"point", "QPS", "p50 (us)", "p99 (us)", "vs off", "note"});
  const auto emit = [&](const std::string& name, const WorkloadResult& res,
                        std::map<std::string, double> extra,
                        const std::string& note) {
    std::map<std::string, double> fields = {
        {"threads", 1.0},
        {"shards", 8.0},
        {"m", 20.0},
        {"batch", 16.0},
        {"pages", static_cast<double>(kPages)},
        {"qps", res.qps},
        {"p50_us", res.p50_latency_us},
        {"p99_us", res.p99_latency_us},
        {"hw_threads", hw}};
    fields.insert(extra.begin(), extra.end());
    bench::RegisterCounterBenchmark(name, fields);
    sink.Emit(std::cout, name, fields);
    const auto it = extra.find("qps_vs_off");
    table.Row()
        .Cell(name)
        .Cell(res.qps, 0)
        .Cell(res.p50_latency_us, 1)
        .Cell(res.p99_latency_us, 1)
        .Cell(it != extra.end() ? "x" + FormatFixed(it->second, 3) : "")
        .Cell(note);
  };

  emit("serve/fault:off", res_off, {}, "no injector installed");
  emit("serve/fault:on", res_on, {{"qps_vs_off", ratio_on}},
       "armed, serve.query not in plan (bloom reject)");
  emit("serve/fault:armed", res_armed, {{"qps_vs_off", ratio_armed}},
       "serve.query armed but gated inert (not CI-gated)");

  return bench::FinishFigureChecked(argc, argv, table, sink);
}
