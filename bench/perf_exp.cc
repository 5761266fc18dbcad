// Experiment-layer overhead benchmark: what does running live traffic
// through the ExperimentManager (hash routing + per-arm metrics + the
// epoch loop) cost over serving the same queries straight into one
// ShardedRankServer, and how fast does the manager turn epochs over
// (per-arm snapshot rebuild + feedback fold + shared churn + publish,
// including policy hot-swaps)?
//
// Points (JSONL, same format as perf_serve):
//   exp/direct        — baseline: one server, no experiment layer.
//   exp/arms:N        — N-arm experiment serving the same per-epoch query
//                       volume; `overhead_vs_direct` = direct QPS / arm-1
//                       QPS is the routing+metrics tax (expected close
//                       to 1 at N=1).
//   exp/publish:2     — zero-traffic epochs on a 2-arm experiment: epoch
//                       turnover (fold + churn + both arms' publishes) per
//                       second, the manager-level epoch-publish-latency
//                       figure. `p50_us` is per-epoch wall time.
//
// Run: ./build/bench/perf_exp [--smoke]

#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/community.h"
#include "core/policy/promotion_policy.h"
#include "core/ranking_policy.h"
#include "core/visit_law.h"
#include "exp/experiment_manager.h"
#include "serve/sharded_rank_server.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace randrank;
using Clock = std::chrono::steady_clock;

CommunityParams MakeCommunity(size_t n) {
  CommunityParams community = CommunityParams::Default();
  community.n = n;
  community.u = 2000;
  community.m = 200;
  community.lifetime_days = 400.0;
  return community;
}

std::vector<ArmSpec> MakeArms(size_t count) {
  // Homogeneous promotion arms (distinct r so labels differ): the arm sweep
  // then isolates the experiment layer's cost — mixing families would fold
  // their different per-query serving costs into the ratio.
  std::vector<ArmSpec> arms;
  arms.reserve(count);
  for (size_t a = 0; a < count; ++a) {
    arms.push_back({"arm" + std::to_string(a),
                    MakePromotionPolicy(RankPromotionConfig::Selective(
                        0.05 + 0.02 * static_cast<double>(a), 2))});
  }
  return arms;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::TakeSmokeFlag(&argc, argv);

  bench::PrintBanner(
      "perf_exp",
      "online A/B experiment layer: routing/metrics overhead and epoch "
      "turnover",
      "exp/arms:1 QPS within ~25% of the direct server (hash routing and "
      "metric shards are O(1) per query); epoch turnover scales with arms "
      "(each arm pays its own publish)");

  const size_t kPages = smoke ? 5000 : 50000;
  const size_t kQueriesPerEpoch = smoke ? 20000 : 100000;
  const size_t kEpochs = 3;
  const CommunityParams community = MakeCommunity(kPages);

  bench::JsonlSink sink;
  Table table(
      {"point", "arms", "QPS", "epochs/s", "p50 epoch (ms)", "note"});

  // Baseline: the same query volume straight into one server, with a loop
  // shaped exactly like the manager's worker (draw user, serve, rank-biased
  // click, record visit) minus the experiment layer — no hash routing, no
  // metric shards, no per-arm bookkeeping. RunQueryWorkload is NOT used
  // here: its two clock reads per query would dwarf a cached O(m) serve and
  // poison the overhead ratio.
  double qps_direct = 0.0;
  {
    Rng rng(0xd12ec7ULL);
    ServingPageState state = MakeServingPageState(community, rng);
    // The manager's warm start (prediscovered_fraction = 0.9): without it
    // the baseline's promotion pool is the whole cold corpus and the ratio
    // measures community maturity, not the experiment layer.
    for (size_t p = 0; p < state.n(); ++p) {
      if (rng.NextBernoulli(0.9)) {
        state.aware[p] = static_cast<uint32_t>(community.u);
        state.popularity[p] = state.quality[p];
        state.zero_awareness[p] = 0;
      }
    }
    ServeOptions sopts;
    sopts.shards = 4;
    ShardedRankServer server(
        MakePromotionPolicy(RankPromotionConfig::Recommended(2)), community.n,
        sopts);
    server.Update(state.popularity, state.zero_awareness, state.birth_step);
    const VisitLaw click_law(10, 1.0, community.rank_bias_exponent);
    const size_t kThreads = 2;
    const size_t quota = kQueriesPerEpoch / kThreads;
    auto worker = [&](size_t t) {
      auto ctx = server.CreateContext();
      Rng traffic_rng = Rng::ForStream(0x71a2ULL, t);
      std::vector<uint32_t> results;
      results.reserve(10);
      for (size_t q = 0; q < quota; ++q) {
        (void)traffic_rng.NextIndex(community.u);  // the user draw, unrouted
        const size_t served = server.ServeTopM(ctx, 10, &results);
        if (served == 0) continue;
        size_t rank = click_law.SampleRank(traffic_rng);
        if (rank > served) rank = served;
        server.RecordVisit(ctx, results[rank - 1]);
      }
      server.FlushFeedback(ctx);
    };
    const Clock::time_point t0 = Clock::now();
    for (size_t e = 0; e < kEpochs; ++e) {
      // One epoch: serve, then fold feedback and republish — the same
      // serve -> fold -> publish cadence the manager runs per epoch.
      std::vector<std::thread> pool;
      for (size_t t = 0; t < kThreads; ++t) pool.emplace_back(worker, t);
      for (auto& th : pool) th.join();
      FoldVisits(server.DrainVisits(), &state, rng);
      server.Update(state.popularity, state.zero_awareness, state.birth_step);
    }
    const double seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    qps_direct = seconds > 0.0
                     ? static_cast<double>(quota * kThreads * kEpochs) / seconds
                     : 0.0;
    const std::map<std::string, double> fields = {
        {"qps", qps_direct}, {"pages", static_cast<double>(kPages)}};
    bench::RegisterCounterBenchmark("exp/direct", fields);
    sink.Emit(std::cout, "exp/direct", fields);
    table.Row().Cell("direct").Cell(static_cast<long long>(0))
        .Cell(qps_direct, 0).Cell("").Cell("").Cell("no experiment layer");
  }

  // Arm sweep: identical per-epoch volume routed across N arms.
  for (const size_t arms : {1u, 2u, 4u}) {
    ExperimentOptions opts;
    opts.shards = 4;
    opts.threads = 2;
    opts.queries_per_epoch = kQueriesPerEpoch;
    opts.prediscovered_fraction = 0.9;
    opts.seed = 0xe8a2ULL + arms;
    ExperimentManager exp(community, MakeArms(arms), opts);
    const Clock::time_point t0 = Clock::now();
    for (size_t e = 0; e < kEpochs; ++e) exp.RunEpoch();
    const double seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    const double queries = static_cast<double>(kQueriesPerEpoch * kEpochs);
    const double qps = seconds > 0.0 ? queries / seconds : 0.0;
    const double overhead = qps > 0.0 ? qps_direct / qps : 0.0;
    const std::map<std::string, double> fields = {
        {"arms", static_cast<double>(arms)},
        {"qps", qps},
        {"epochs_per_s",
         seconds > 0.0 ? static_cast<double>(kEpochs) / seconds : 0.0},
        {"overhead_vs_direct", overhead},
        {"pages", static_cast<double>(kPages)}};
    const std::string name = "exp/arms:" + std::to_string(arms);
    bench::RegisterCounterBenchmark(name, fields);
    sink.Emit(std::cout, name, fields);
    table.Row()
        .Cell("arms:" + std::to_string(arms))
        .Cell(static_cast<long long>(arms))
        .Cell(qps, 0)
        .Cell(fields.at("epochs_per_s"), 1)
        .Cell("")
        .Cell("x" + FormatFixed(overhead, 2) + " vs direct");
  }

  // Epoch turnover with zero traffic: fold + shared churn + every arm's
  // publish (snapshot rebuilds, epoch caches). The manager-level
  // epoch-publish-latency number; perf_serve's serve/epoch_publish tracks
  // the single-server unit cost.
  {
    const size_t kTurnovers = smoke ? 12 : 30;
    ExperimentOptions opts;
    opts.shards = 4;
    opts.threads = 1;
    opts.queries_per_epoch = 0;
    opts.prediscovered_fraction = 0.9;
    opts.seed = 0x9ab1ULL;
    ExperimentManager exp(community, MakeArms(2), opts);
    std::vector<double> epoch_us;
    epoch_us.reserve(kTurnovers);
    for (size_t e = 0; e < kTurnovers; ++e) {
      const Clock::time_point t0 = Clock::now();
      exp.RunEpoch();
      epoch_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count());
    }
    double total_us = 0.0;
    for (const double us : epoch_us) total_us += us;
    const std::map<std::string, double> fields = {
        {"arms", 2.0},
        {"epochs", static_cast<double>(kTurnovers)},
        {"epochs_per_s", total_us > 0.0 ? static_cast<double>(kTurnovers) /
                                              (total_us * 1e-6)
                                        : 0.0},
        {"p50_us", Percentile(epoch_us, 50.0)},
        {"p99_us", Percentile(epoch_us, 99.0)},
        {"pages", static_cast<double>(kPages)}};
    bench::RegisterCounterBenchmark("exp/publish:2", fields);
    sink.Emit(std::cout, "exp/publish:2", fields);
    table.Row()
        .Cell("publish:2")
        .Cell(static_cast<long long>(2))
        .Cell("")
        .Cell(fields.at("epochs_per_s"), 1)
        .Cell(fields.at("p50_us") / 1000.0, 2)
        .Cell("zero-traffic epoch turnover");
  }

  return bench::FinishFigureChecked(argc, argv, table, sink);
}
