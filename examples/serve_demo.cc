// Serving demo: run the sharded query engine in a closed loop over a fresh
// Web community. Every round the server answers rank-biased top-m queries
// from a fresh random realization per query, observed clicks are folded back
// into awareness/popularity, and a new snapshot epoch is published — the
// paper's simulate -> serve loop in miniature.
//
// With selective promotion the initially unknown pages (the promotion pool)
// drain rapidly as served impressions create awareness; with strict
// deterministic ranking the never-seen pages have popularity zero, are
// ranked at the bottom, and stay unknown.
//
// Build & run:
//   cmake -B build -S . && cmake --build build -j
//   ./build/examples/serve_demo [--fast]

#include <cstring>
#include <iostream>

#include "core/community.h"
#include "core/policy/promotion_policy.h"
#include "core/ranking_policy.h"
#include "serve/feedback.h"
#include "serve/query_workload.h"
#include "serve/sharded_rank_server.h"
#include "util/rng.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace randrank;

  bool fast = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) fast = true;
  }

  CommunityParams community = CommunityParams::Default();
  community.n = fast ? 2000 : 20000;
  community.u = 1000;
  community.m = 100;

  const size_t kRounds = 8;
  const size_t kQueriesPerRound = fast ? 5000 : 50000;
  const size_t kTopM = 10;
  const size_t kThreads = 4;
  const size_t kShards = 8;

  std::cout << "serve_demo: n=" << community.n << " pages, " << kShards
            << " shards, " << kThreads << " closed-loop workers, "
            << kQueriesPerRound << " queries/round\n";

  for (const bool promote : {false, true}) {
    const RankPromotionConfig config =
        promote ? RankPromotionConfig::Recommended(2)
                : RankPromotionConfig::None();
    std::cout << "\n--- " << config.Label() << " ---\n";

    Rng rng(2026);
    ServingPageState state = MakeServingPageState(community, rng);
    ServeOptions opts;
    opts.shards = kShards;
    opts.seed = 7;
    ShardedRankServer server(MakePromotionPolicy(config), community.n, opts);

    Table table({"round", "epoch", "QPS", "p50 (us)", "p99 (us)",
                 "unknown pages", "aware users (total)"});
    for (size_t round = 0; round < kRounds; ++round) {
      server.Update(state.popularity, state.zero_awareness, state.birth_step);

      WorkloadOptions wl;
      wl.threads = kThreads;
      wl.queries_per_thread = kQueriesPerRound / kThreads;
      wl.top_m = kTopM;
      wl.seed = 1000 + round;
      const WorkloadResult res = RunQueryWorkload(server, wl);
      FoldVisits(server.DrainVisits(), &state, rng);

      uint64_t aware_total = 0;
      for (const uint32_t a : state.aware) aware_total += a;
      table.Row()
          .Cell(static_cast<long long>(round))
          .Cell(static_cast<long long>(server.epoch()))
          .Cell(res.qps, 0)
          .Cell(res.p50_latency_us, 1)
          .Cell(res.p99_latency_us, 1)
          .Cell(static_cast<long long>(state.ZeroAwarenessPages()))
          .Cell(static_cast<long long>(aware_total));
    }
    table.Print(std::cout);
  }

  std::cout << "\nSelective promotion spends a slice of every served page on "
               "the unknown pool,\nso the pool drains within a few epochs; "
               "deterministic ranking leaves it intact.\n";
  return 0;
}
