#include "fault/fault.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/policy/promotion_policy.h"
#include "core/ranking_policy.h"
#include "obs/metrics.h"
#include "serve/sharded_rank_server.h"

#include "serve_fixture.h"

namespace randrank {
namespace {

using fault::Action;
using fault::Decision;
using fault::FaultInjector;
using fault::FaultPlan;
using fault::ScopedFaultInjector;
using testutil::Fixture;

// ---------------------------------------------------------------------------
// Plan parsing
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, ParsesRulesAndSeed) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::Parse(
      "point=publish.shards,action=fail,nth=2,max_fires=1;"
      " point=net.write , action=partial , bytes=3 , prob=0.25 ;"
      "point=serve.query,action=delay,delay_us=500,from_epoch=2,to_epoch=4,"
      "prob=0.99999999999999999999999;"
      "seed=42",
      &plan, &error))
      << error;
  EXPECT_EQ(plan.seed, 42u);
  ASSERT_EQ(plan.rules.size(), 3u);

  EXPECT_EQ(plan.rules[0].point, "publish.shards");
  EXPECT_EQ(plan.rules[0].action, Action::kFail);
  EXPECT_EQ(plan.rules[0].nth, 2u);
  EXPECT_EQ(plan.rules[0].max_fires, 1u);

  EXPECT_EQ(plan.rules[1].point, "net.write");
  EXPECT_EQ(plan.rules[1].action, Action::kPartialWrite);
  EXPECT_EQ(plan.rules[1].bytes, 3u);
  EXPECT_DOUBLE_EQ(plan.rules[1].prob, 0.25);

  EXPECT_EQ(plan.rules[2].point, "serve.query");
  EXPECT_EQ(plan.rules[2].action, Action::kDelay);
  EXPECT_EQ(plan.rules[2].delay_us, 500u);
  EXPECT_EQ(plan.rules[2].from_epoch, 2u);
  EXPECT_EQ(plan.rules[2].to_epoch, 4u);
  // More digits than a double holds round to the nearest double.
  EXPECT_EQ(plan.rules[2].prob, 1.0);
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  FaultPlan plan;
  std::string error;
  EXPECT_FALSE(
      FaultPlan::Parse("point=serve.query,bogus_key=1", &plan, &error));
  EXPECT_NE(error.find("unknown key"), std::string::npos) << error;
  EXPECT_FALSE(FaultPlan::Parse("point=serve.query,nth=abc", &plan, &error));
  EXPECT_NE(error.find("bad value for \"nth\""), std::string::npos)
      << error;
  // Integers past 2^64 - 1 are refused, not wrapped (nth=0 fires always).
  EXPECT_FALSE(FaultPlan::Parse("point=serve.query,nth=18446744073709551616",
                                &plan, &error));
  EXPECT_NE(error.find("bad value for \"nth\""), std::string::npos)
      << error;
  EXPECT_FALSE(FaultPlan::Parse(
      "point=serve.query,delay_us=99999999999999999999999", &plan, &error));
  EXPECT_NE(error.find("bad value for \"delay_us\""), std::string::npos)
      << error;
  EXPECT_FALSE(
      FaultPlan::Parse("point=serve.query,action=explode", &plan, &error));
  EXPECT_NE(error.find("bad value for \"action\""), std::string::npos)
      << error;
  EXPECT_FALSE(FaultPlan::Parse("point=serve.query,prob=1.5", &plan, &error));
  EXPECT_NE(error.find("bad value for \"prob\""), std::string::npos)
      << error;
  EXPECT_FALSE(FaultPlan::Parse("action=fail,nth=1", &plan, &error));
  EXPECT_NE(error.find("without point"), std::string::npos) << error;
  EXPECT_FALSE(FaultPlan::Parse("point=serve.query,justaword", &plan, &error));
  EXPECT_NE(error.find("'='"), std::string::npos) << error;
}

// A misspelt or retired point would arm nothing, so Parse refuses it and
// names the points that exist.
TEST(FaultPlanTest, RejectsUnknownPoints) {
  FaultPlan plan;
  std::string error;
  for (const char* spec : {"point=publish.shard,action=fail,every=1",
                           "point=queue.serve,action=delay",
                           "point=serve.query;point=p"}) {
    SCOPED_TRACE(spec);
    EXPECT_FALSE(FaultPlan::Parse(spec, &plan, &error));
    EXPECT_NE(error.find("unknown point"), std::string::npos) << error;
    for (const std::string_view point : fault::kPoints) {
      EXPECT_NE(error.find(point), std::string::npos) << error;
    }
  }
  EXPECT_TRUE(plan.rules.empty());  // a failed Parse writes nothing
  for (const std::string_view point : fault::kPoints) {
    EXPECT_TRUE(FaultPlan::Parse("point=" + std::string(point), &plan,
                                 &error))
        << error;
  }
}

TEST(FaultPlanTest, EmptyAndBareSeedSpecsAreValid) {
  FaultPlan plan;
  ASSERT_TRUE(FaultPlan::Parse("", &plan));
  EXPECT_TRUE(plan.rules.empty());
  ASSERT_TRUE(FaultPlan::Parse("seed=9", &plan));
  EXPECT_EQ(plan.seed, 9u);
  EXPECT_TRUE(plan.rules.empty());
}

// ---------------------------------------------------------------------------
// Schedule semantics: everything deterministic given (plan, seed)
// ---------------------------------------------------------------------------

// Hits `point` `hits` times and returns the 1-based hit indices that fired.
std::vector<uint64_t> FirePattern(FaultInjector& injector,
                                  std::string_view point, uint64_t hits,
                                  uint64_t epoch = 0) {
  std::vector<uint64_t> fired;
  const uint64_t hash = fault::Hash(point);
  Decision decision;
  for (uint64_t h = 1; h <= hits; ++h) {
    if (injector.Evaluate(hash, point, epoch, &decision)) fired.push_back(h);
  }
  return fired;
}

TEST(FaultInjectorTest, NthHitFiresExactlyOnce) {
  FaultPlan plan;
  ASSERT_TRUE(FaultPlan::Parse("point=serve.query,nth=3", &plan));
  FaultInjector injector(plan);
  EXPECT_EQ(FirePattern(injector, fault::kServeQuery, 10),
            (std::vector<uint64_t>{3}));
  EXPECT_EQ(injector.fired(fault::kServeQuery), 1u);
  EXPECT_EQ(injector.fired_total(), 1u);
}

TEST(FaultInjectorTest, EveryStrideAndMaxFires) {
  FaultPlan plan;
  ASSERT_TRUE(
      FaultPlan::Parse("point=serve.query,every=4,max_fires=2", &plan));
  FaultInjector injector(plan);
  EXPECT_EQ(FirePattern(injector, fault::kServeQuery, 20),
            (std::vector<uint64_t>{4, 8}));  // third multiple capped away
  EXPECT_EQ(injector.fired_total(), 2u);
}

TEST(FaultInjectorTest, EpochRangeGatesFiring) {
  FaultPlan plan;
  ASSERT_TRUE(
      FaultPlan::Parse("point=serve.query,from_epoch=2,to_epoch=3", &plan));
  FaultInjector injector(plan);
  const uint64_t hash = fault::Hash(fault::kServeQuery);
  Decision decision;
  std::vector<uint64_t> fired_epochs;
  for (uint64_t epoch = 0; epoch <= 5; ++epoch) {
    if (injector.Evaluate(hash, fault::kServeQuery, epoch, &decision)) {
      fired_epochs.push_back(epoch);
    }
  }
  EXPECT_EQ(fired_epochs, (std::vector<uint64_t>{2, 3}));
}

TEST(FaultInjectorTest, ProbabilityScheduleReplaysExactlyUnderSameSeed) {
  FaultPlan plan;
  ASSERT_TRUE(FaultPlan::Parse("point=serve.query,prob=0.3;seed=42", &plan));
  FaultInjector a(plan);
  FaultInjector b(plan);
  const std::vector<uint64_t> pattern_a =
      FirePattern(a, fault::kServeQuery, 1000);
  const std::vector<uint64_t> pattern_b =
      FirePattern(b, fault::kServeQuery, 1000);
  EXPECT_EQ(pattern_a, pattern_b);
  // The coin is fair-ish: ~300 fires, loose bounds so this can't flake.
  EXPECT_GT(pattern_a.size(), 200u);
  EXPECT_LT(pattern_a.size(), 400u);

  FaultPlan other = plan;
  other.seed = 43;
  FaultInjector c(other);
  EXPECT_NE(FirePattern(c, fault::kServeQuery, 1000), pattern_a);
}

TEST(FaultInjectorTest, UnarmedPointNeverFires) {
  FaultPlan plan;
  ASSERT_TRUE(FaultPlan::Parse("point=publish.merge", &plan));
  FaultInjector injector(plan);
  EXPECT_TRUE(FirePattern(injector, fault::kNetWrite, 100).empty());
  EXPECT_EQ(injector.fired_total(), 0u);
  EXPECT_EQ(injector.fired(fault::kNetWrite), 0u);
}

TEST(FaultInjectorTest, RegistryCountersAreEagerAndTrackFires) {
  obs::MetricsRegistry registry;
  FaultPlan plan;
  ASSERT_TRUE(FaultPlan::Parse("point=serve.query,every=2", &plan));
  FaultInjector injector(plan, &registry);
  // Scrapeable before the first fire.
  obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("fault/fired_total"), 0u);
  EXPECT_EQ(snap.counters.at("fault/fired/serve.query"), 0u);

  FirePattern(injector, fault::kServeQuery, 10);
  snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("fault/fired_total"), 5u);
  EXPECT_EQ(snap.counters.at("fault/fired/serve.query"), 5u);
}

TEST(FaultInjectorTest, CheckIsInertWithNoInjectorInstalled) {
  Decision decision;
  EXPECT_FALSE(fault::Check(fault::kServeQuery, fault::Hash(fault::kServeQuery),
                            0, &decision));
  // CheckAbortable must be a no-op too, not a crash.
  fault::CheckAbortable(fault::kPublishMerge,
                        fault::Hash(fault::kPublishMerge), 0);
}

TEST(FaultInjectorTest, AbortableSitesIgnoreSocketOnlyActions) {
  FaultPlan plan;
  ASSERT_TRUE(FaultPlan::Parse("point=publish.merge,action=reset", &plan));
  FaultInjector injector(plan);
  ScopedFaultInjector scoped(&injector);
  // A reset decision at an abortable phase is meaningless; the site must
  // swallow it rather than abort the publish.
  fault::CheckAbortable(fault::kPublishMerge,
                        fault::Hash(fault::kPublishMerge), 0);
  // The rule fired, the site ignored it.
  EXPECT_EQ(injector.fired(fault::kPublishMerge), 1u);
}

// ---------------------------------------------------------------------------
// Transactional publish: every phase rolls back atomically
// ---------------------------------------------------------------------------

std::unique_ptr<ShardedRankServer> MakeServer(size_t n,
                                              obs::MetricsRegistry* metrics) {
  ServeOptions opts;
  opts.shards = 4;
  opts.seed = 11;
  opts.metrics = metrics;
  return std::make_unique<ShardedRankServer>(
      MakePromotionPolicy(RankPromotionConfig::Selective(0.3, 2)), n, opts);
}

// Injects one kFail at `point` during the second publish and proves the
// failed Update is a perfect no-op: the server keeps serving the previous
// epoch bit-identically to a twin that never saw the attempt, the degraded
// accounting trips, and the next clean publish recovers.
void ExpectPublishRollsBackAt(std::string_view point) {
  SCOPED_TRACE(std::string("fault point: ") + std::string(point));
  const size_t n = 1200;
  Fixture fx(n, 40);
  obs::MetricsRegistry faulty_reg;
  obs::MetricsRegistry twin_reg;
  auto faulty = MakeServer(n, &faulty_reg);
  auto twin = MakeServer(n, &twin_reg);
  ASSERT_TRUE(faulty->Update(fx.popularity, fx.zero, fx.birth));
  ASSERT_TRUE(twin->Update(fx.popularity, fx.zero, fx.birth));

  Fixture doomed(n, 40, /*seed=*/9);
  {
    FaultPlan plan;
    std::string error;
    ASSERT_TRUE(FaultPlan::Parse("point=" + std::string(point) +
                                     ",action=fail,nth=1,max_fires=1",
                                 &plan, &error))
        << error;
    FaultInjector injector(plan, &faulty_reg);
    ScopedFaultInjector scoped(&injector);
    EXPECT_FALSE(faulty->Update(doomed.popularity, doomed.zero, doomed.birth));
    EXPECT_EQ(injector.fired(point), 1u);
    EXPECT_EQ(injector.fired_total(), 1u);
  }

  // Degraded accounting: still on epoch 1, failure counted and exported.
  EXPECT_EQ(faulty->epoch(), 1u);
  EXPECT_EQ(faulty->publish_failures(), 1u);
  EXPECT_EQ(faulty->epochs_since_publish(), 1u);
  EXPECT_TRUE(faulty->degraded());
  obs::MetricsSnapshot snap = faulty_reg.Snapshot();
  EXPECT_EQ(snap.counters.at("serve/publish_failures"), 1u);
  // The failure is booked to the phase the point guards, and to no other.
  for (size_t i = 0; i < ShardedRankServer::kPublishPhases.size(); ++i) {
    const std::string phase(ShardedRankServer::kPublishPhases[i]);
    const uint64_t expected = point == "publish." + phase ? 1 : 0;
    EXPECT_EQ(snap.counters.at("serve/publish_failures/" + phase), expected)
        << phase;
    EXPECT_EQ(faulty->publish_failures(i), expected) << phase;
  }
  EXPECT_EQ(snap.gauges.at("serve/degraded"), 1.0);
  EXPECT_EQ(snap.gauges.at("serve/epochs_since_publish"), 1.0);
  EXPECT_EQ(snap.counters.at("fault/fired/" + std::string(point)), 1u);

  // The rolled-back server serves bit-identically to the twin that never
  // attempted the doomed publish — same contexts, same queries, same pages.
  ShardedRankServer::Context cf = faulty->CreateContext();
  ShardedRankServer::Context ct = twin->CreateContext();
  std::vector<uint32_t> a;
  std::vector<uint32_t> b;
  for (int q = 0; q < 64; ++q) {
    const size_t m = 1 + static_cast<size_t>(q % 17);
    ASSERT_EQ(faulty->ServeTopM(cf, m, &a), twin->ServeTopM(ct, m, &b));
    ASSERT_EQ(a, b) << "query " << q << " diverged after rollback";
  }

  // Recovery: with the injector gone the same inputs publish cleanly and the
  // degraded state clears.
  ASSERT_TRUE(faulty->Update(doomed.popularity, doomed.zero, doomed.birth));
  EXPECT_EQ(faulty->epoch(), 2u);
  EXPECT_FALSE(faulty->degraded());
  EXPECT_EQ(faulty->epochs_since_publish(), 0u);
  EXPECT_EQ(faulty->publish_failures(), 1u);  // history is kept
  snap = faulty_reg.Snapshot();
  EXPECT_EQ(snap.gauges.at("serve/degraded"), 0.0);
  EXPECT_EQ(snap.gauges.at("serve/epochs_since_publish"), 0.0);
  ShardedRankServer::Context c2 = faulty->CreateContext();
  EXPECT_EQ(faulty->ServeTopM(c2, 10, &a), 10u);
}

TEST(PublishRollbackTest, ShardBuildFailureRollsBack) {
  ExpectPublishRollsBackAt(fault::kPublishShards);
}

TEST(PublishRollbackTest, MergeFailureRollsBack) {
  ExpectPublishRollsBackAt(fault::kPublishMerge);
}

TEST(PublishRollbackTest, EpochStateFailureRollsBack) {
  ExpectPublishRollsBackAt(fault::kPublishEpochState);
}

TEST(PublishRollbackTest, RcuPublishFailureRollsBack) {
  ExpectPublishRollsBackAt(fault::kPublishRcu);
}

TEST(PublishRollbackTest, FailedHotSwapRollsThePolicyBack) {
  const size_t n = 800;
  Fixture fx(n, 30);
  auto server = MakeServer(n, nullptr);
  ASSERT_TRUE(server->Update(fx.popularity, fx.zero, fx.birth));
  const std::string old_label = server->policy()->Label();

  auto replacement =
      MakePromotionPolicy(RankPromotionConfig::Selective(0.5, 3));
  ASSERT_NE(replacement->Label(), old_label);
  {
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::Parse(
        "point=publish.rcu_publish,action=fail,nth=1,max_fires=1", &plan));
    FaultInjector injector(plan);
    ScopedFaultInjector scoped(&injector);
    EXPECT_FALSE(
        server->Update(fx.popularity, fx.zero, fx.birth, replacement));
  }
  // Queries are still served under the old policy...
  EXPECT_EQ(server->policy()->Label(), old_label);
  // ...and the pending swap was rolled back too: the next clean Update must
  // not publish under a policy that never made it to an epoch.
  ASSERT_TRUE(server->Update(fx.popularity, fx.zero, fx.birth));
  EXPECT_EQ(server->policy()->Label(), old_label);
  EXPECT_EQ(server->epoch(), 2u);

  // A clean hot-swap still works afterwards.
  ASSERT_TRUE(server->Update(fx.popularity, fx.zero, fx.birth, replacement));
  EXPECT_EQ(server->policy()->Label(), replacement->Label());
}

TEST(PublishRollbackTest, ReadersServeCorrectlyThroughRepeatedFailures) {
  const size_t n = 2000;
  Fixture fx(n, 50);
  Fixture alt(n, 50, /*seed=*/9);
  auto server = MakeServer(n, nullptr);
  ASSERT_TRUE(server->Update(fx.popularity, fx.zero, fx.birth));

  std::atomic<bool> stop{false};
  std::atomic<size_t> wrong{0};
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      ShardedRankServer::Context ctx = server->CreateContext();
      std::vector<uint32_t> out;
      while (!stop.load(std::memory_order_relaxed)) {
        if (server->ServeTopM(ctx, 12, &out) != 12 || out.size() != 12) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  FaultPlan plan;
  ASSERT_TRUE(
      FaultPlan::Parse("point=publish.rcu_publish,action=fail,every=2", &plan));
  FaultInjector injector(plan);
  ScopedFaultInjector scoped(&injector);
  size_t failures = 0;
  for (int i = 0; i < 11; ++i) {
    const Fixture& inputs = (i % 2 == 0) ? alt : fx;
    if (!server->Update(inputs.popularity, inputs.zero, inputs.birth)) {
      ++failures;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(failures, 5u);  // every=2 over 11 attempts: hits 2,4,6,8,10
  EXPECT_EQ(server->publish_failures(), 5u);
  EXPECT_EQ(server->epoch(), 1u + (11 - 5));
  EXPECT_FALSE(server->degraded());  // attempt 11 published cleanly
}

}  // namespace
}  // namespace randrank
