// dump_metrics: exercise every instrumented subsystem against one
// MetricsRegistry and print the registered metric names, one per line:
//
//   counter net/accepts
//   gauge serve/epoch
//   histogram net/request_ns
//   ...
//
// This is the live inventory docs/METRICS.md documents; tools/lint_docs.py
// --metrics diffs this output against the doc's tables (with <...>
// placeholders for per-instance segments like policy families and arm
// names), so a metric added in code without a doc row — or documented but
// no longer registered — fails CI.
//
//   ./build/tools/dump_metrics            # one "kind name" line per metric
//   ./build/tools/dump_metrics --values   # append current values

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bai/arm_scheduler.h"
#include "bai/bai_controller.h"
#include "core/community.h"
#include "core/policy/policy_factory.h"
#include "core/policy/promotion_policy.h"
#include "core/ranking_policy.h"
#include "exp/experiment_manager.h"
#include "fault/fault.h"
#include "net/client.h"
#include "net/daemon.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/feedback.h"
#include "serve/sharded_rank_server.h"
#include "util/rng.h"

namespace {

/// Publishes an epoch and serves a few queries so the lazily-registered
/// serve metrics (per-family latency histograms) appear.
void ExerciseServer(randrank::ShardedRankServer& server,
                    randrank::ServingPageState& state, randrank::Rng& rng) {
  server.Update(state.popularity, state.zero_awareness, state.birth_step);
  auto ctx = server.CreateContext();
  std::vector<uint32_t> out;
  for (int q = 0; q < 8; ++q) server.ServeTopM(ctx, 10, &out);
  randrank::FoldVisits(server.DrainVisits(), &state, rng);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace randrank;

  bool values = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--values") == 0) values = true;
  }

  obs::MetricsRegistry registry;
  obs::TraceOptions topts;
  topts.sample_every = 1;
  obs::TraceLog trace(topts);

  CommunityParams community = CommunityParams::Default();
  community.n = 400;
  community.u = 100;
  community.m = 20;

  Rng rng(7);

  // Serve layer (the default "serve" prefix): promotion-family histogram
  // under latency_ns/.
  {
    ServingPageState state = MakeServingPageState(community, rng);
    ServeOptions opts;
    opts.shards = 2;
    opts.metrics = &registry;
    opts.trace = &trace;
    ShardedRankServer server(
        MakePromotionPolicy(RankPromotionConfig::Selective(0.3, 2)),
        community.n, opts);
    ExerciseServer(server, state, rng);

    // Net layer: daemon + one client round-trip of every request frame.
    net::NetDaemonOptions nopts;
    nopts.metrics = &registry;
    nopts.trace = &trace;
    net::NetDaemon daemon(server, nopts);
    daemon.Start();
    net::NetClient client;
    if (client.Connect("127.0.0.1", daemon.port(), 10)) {
      net::NetClient::QueryResult result;
      client.Query(10, 42, &result);
      std::string text;
      client.Scrape(&text);
      net::HealthReplyFrame health;
      client.Health(&health);
    }
    daemon.Drain();
  }

  // Fault layer: an armed injector eagerly registers fault/fired_total plus
  // one fault/fired/<point> counter per planned point; the doomed publish it
  // kills (and the clean retry) put real values behind the serve-layer
  // degradation accounting registered above.
  {
    ServingPageState state = MakeServingPageState(community, rng);
    ServeOptions opts;
    opts.shards = 2;
    opts.metrics = &registry;
    ShardedRankServer server(
        MakePromotionPolicy(RankPromotionConfig::Selective(0.3, 2)),
        community.n, opts);
    fault::FaultPlan plan;
    std::string error;
    if (!fault::FaultPlan::Parse(
            "point=publish.rcu_publish,action=fail,nth=1,max_fires=1", &plan,
            &error)) {
      std::cerr << "dump_metrics: fault plan: " << error << "\n";
      return 1;
    }
    fault::FaultInjector injector(plan, &registry);
    fault::ScopedFaultInjector scoped(&injector);
    server.Update(state.popularity, state.zero_awareness,
                  state.birth_step);  // rolled back by the planned fault
    server.Update(state.popularity, state.zero_awareness,
                  state.birth_step);  // recovers
  }

  // Experiment layer: two arms and one adaptive step through the
  // BaiController, so the exp/bai/* decision metrics and per-arm posterior
  // gauges register alongside the per-arm serve metrics and the /live gauge
  // snapshot.
  {
    std::vector<ArmSpec> arms;
    arms.push_back({"control", MakePolicyFromLabel("none")});
    arms.push_back({"treatment", MakePolicyFromLabel("selective(r=0.10,k=2)")});
    ExperimentOptions eopts;
    eopts.shards = 2;
    eopts.queries_per_epoch = 200;
    eopts.metrics = &registry;
    eopts.trace = &trace;
    const size_t num_arms = arms.size();
    ExperimentManager experiment(community, std::move(arms), eopts);
    bai::BaiControllerOptions copts;
    copts.metrics = &registry;
    copts.trace = &trace;
    // min_clicks 2^60: never eliminate in an inventory run.
    bai::BaiController controller(
        &experiment, bai::MakeTopTwoThompsonScheduler(num_arms, 1ULL << 60),
        copts);
    controller.Step();
  }

  const obs::MetricsSnapshot snap = registry.Snapshot();
  for (const auto& [name, value] : snap.counters) {
    std::cout << "counter " << name;
    if (values) std::cout << " " << value;
    std::cout << "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    std::cout << "gauge " << name;
    if (values) std::cout << " " << value;
    std::cout << "\n";
  }
  for (const auto& [name, hist] : snap.histograms) {
    std::cout << "histogram " << name;
    if (values) std::cout << " " << hist.total;
    std::cout << "\n";
  }
  return 0;
}
