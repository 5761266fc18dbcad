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
// Reps alternate off/on/armed (bench::PairedAblation): each state keeps its
// best rep, and the on and armed points report their best ratio to the off
// rep of the same round as `qps_vs_off`. The `on` ratio is the cost of
// disabled fault points in production, and bench/baseline_smoke.json holds
// its gate; the `armed` ratio is recorded for reference but not gated
// (arming a plan is an operator action, not the steady state).
//
// Output follows the bench convention: counter-benchmark table, series
// table, one JSONL line per point (consumed by tools/check_bench.py).

#include <benchmark/benchmark.h>

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
#include "util/table.h"

namespace {

using namespace randrank;

WorkloadResult MeasurePoint(const bench::Corpus& corpus, size_t queries) {
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
  const bool smoke = bench::TakeSmokeFlag(&argc, argv);

  bench::PrintBanner(
      "perf_fault", "cost of compiled-in fault points on the serve hot path",
      "disabled sites (no injector) and armed-but-missing sites (bloom "
      "reject) both hold >= 0.99x bare QPS; an armed-but-inert serve.query "
      "rule stays close behind");

  const size_t kPages = smoke ? 5000 : 100000;
  const bench::Corpus corpus = bench::MakeCorpus(kPages, 0.1, 42);
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

  const size_t kQueries = 50000;  // fixed even in --smoke: long enough reps
  const std::vector<fault::FaultInjector*> injectors = {
      nullptr, &miss_injector, &inert_injector};
  const auto arms = bench::PairedAblation(3, 5, [&](size_t arm) {
    fault::ScopedFaultInjector scoped(injectors[arm]);
    return MeasurePoint(corpus, kQueries);
  });
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

  emit("serve/fault:off", arms[0].best, {}, "no injector installed");
  emit("serve/fault:on", arms[1].best, {{"qps_vs_off", arms[1].qps_vs_off}},
       "armed, serve.query not in plan (bloom reject)");
  emit("serve/fault:armed", arms[2].best,
       {{"qps_vs_off", arms[2].qps_vs_off}},
       "serve.query armed but gated inert (not CI-gated)");

  return bench::FinishFigureChecked(argc, argv, table, sink);
}
