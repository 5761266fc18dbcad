#include "exp/experiment_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/community.h"
#include "core/policy/epsilon_tail_policy.h"
#include "core/policy/plackett_luce_policy.h"
#include "core/policy/promotion_policy.h"
#include "core/ranking_policy.h"
#include "exp/live_metrics.h"
#include "exp/page_lifecycle.h"
#include "exp/traffic_split.h"
#include "obs/metrics.h"
#include "serve/sharded_rank_server.h"
#include "util/rng.h"
#include "util/stats.h"

#include "serve_fixture.h"

namespace randrank {
namespace {

using testutil::Fixture;

// --- Hash bucketing ------------------------------------------------------

// Arm occupancy matches the split fractions, chi-squared tested at several
// fraction vectors (the experiment layer's routing-unbiasedness guarantee).
TEST(HashBucketerTest, SplitFractionsHoldChiSquared) {
  const size_t kIds = 100000;
  const std::vector<std::vector<double>> splits = {
      {0.5, 0.5},
      {0.9, 0.1},
      {0.25, 0.25, 0.25, 0.25},
      {0.6, 0.3, 0.1},
      {0.01, 0.99},
  };
  for (const auto& fractions : splits) {
    TrafficSplit split;
    split.fractions = fractions;
    ASSERT_TRUE(split.Valid());
    const HashBucketer bucketer(split);
    std::vector<double> observed(fractions.size(), 0.0);
    for (uint64_t id = 0; id < kIds; ++id) {
      const size_t arm = bucketer.ArmForId(id);
      ASSERT_LT(arm, fractions.size());
      observed[arm] += 1.0;
    }
    // One-sample goodness of fit against the expected occupancy.
    double chi2 = 0.0;
    for (size_t a = 0; a < fractions.size(); ++a) {
      const double expected = fractions[a] * static_cast<double>(kIds);
      chi2 += (observed[a] - expected) * (observed[a] - expected) / expected;
    }
    EXPECT_LE(chi2, ChiSquaredCritical(fractions.size() - 1, 0.001))
        << "fractions[0]=" << fractions[0] << " arms=" << fractions.size();
  }
}

// Assignment is a pure function of (salt, id): stable across calls, epochs,
// and bucketer instances; different salts bucket independently.
TEST(HashBucketerTest, AssignmentIsDeterministicAndSaltKeyed) {
  const TrafficSplit split = TrafficSplit::Even(3, 77);
  const HashBucketer bucketer(split);
  const HashBucketer clone(split);
  TrafficSplit other_salt = split;
  other_salt.salt = 78;
  const HashBucketer resalted(other_salt);

  size_t moved = 0;
  for (uint64_t id = 0; id < 5000; ++id) {
    const size_t arm = bucketer.ArmForId(id);
    // Same bucketer, repeated call ("across epochs"): identical.
    EXPECT_EQ(bucketer.ArmForId(id), arm);
    // Fresh instance, same split ("across process runs"): identical.
    EXPECT_EQ(clone.ArmForId(id), arm);
    moved += resalted.ArmForId(id) != arm;
  }
  // A different salt re-buckets roughly 2/3 of a 3-arm population.
  EXPECT_GT(moved, 2500u);
}

// Ramping the LAST arm's fraction up only moves units INTO it: nobody who
// was in the treatment leaves mid-ramp (1% -> 5% -> 50%).
TEST(HashBucketerTest, RampingTheLastArmIsMonotone) {
  std::vector<std::set<uint64_t>> members;
  for (const double f : {0.01, 0.05, 0.2, 0.5}) {
    TrafficSplit split;
    split.fractions = {1.0 - f, f};
    const HashBucketer bucketer(split);
    std::set<uint64_t> in_treatment;
    for (uint64_t id = 0; id < 20000; ++id) {
      if (bucketer.ArmForId(id) == 1) in_treatment.insert(id);
    }
    if (!members.empty()) {
      for (const uint64_t id : members.back()) {
        EXPECT_TRUE(in_treatment.count(id))
            << "unit " << id << " fell out of the treatment during a ramp";
      }
      EXPECT_GT(in_treatment.size(), members.back().size());
    }
    members.push_back(std::move(in_treatment));
  }
}

// --- Satellite: segment-preserving reallocation --------------------------

// Eliminating an arm through Reallocated moves ONLY the eliminated arm's
// users: every survivor keeps the assignment it had, and the freed traffic
// lands on the growing arms in the requested proportions.
TEST(HashBucketerTest, ReallocatedMovesOnlyTheEliminatedArmsUsers) {
  const size_t kIds = 30000;
  const TrafficSplit even = TrafficSplit::Even(4, 19);
  const HashBucketer before(even);
  TrafficSplit after_split = even;
  after_split.fractions = {0.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0};
  ASSERT_TRUE(after_split.Valid());
  const HashBucketer after = before.Reallocated(after_split);

  std::vector<double> occupancy(4, 0.0);
  size_t moved = 0;
  for (uint64_t id = 0; id < kIds; ++id) {
    const size_t old_arm = before.ArmForId(id);
    const size_t new_arm = after.ArmForId(id);
    occupancy[new_arm] += 1.0;
    if (old_arm == 0) {
      EXPECT_NE(new_arm, 0u) << "unit " << id << " stayed on a dead arm";
      ++moved;
    } else {
      ASSERT_EQ(new_arm, old_arm)
          << "surviving unit " << id << " flipped arms during elimination";
    }
  }
  EXPECT_EQ(occupancy[0], 0.0);
  // The ceded quarter spread over the survivors: occupancy tracks the new
  // fractions (one-sample chi-squared over the three live arms).
  EXPECT_NEAR(static_cast<double>(moved) / kIds, 0.25, 0.02);
  double chi2 = 0.0;
  for (size_t a = 1; a < 4; ++a) {
    const double expected = static_cast<double>(kIds) / 3.0;
    chi2 += (occupancy[a] - expected) * (occupancy[a] - expected) / expected;
  }
  EXPECT_LE(chi2, ChiSquaredCritical(2, 0.001));
}

// A multi-step ramp via Reallocated is monotone in the strong sense: a unit
// changes arms only by moving FROM an arm whose fraction shrank TO one
// whose fraction grew. Nobody shuffles between two growing (or two
// steady) arms, so the winner's cohort only ever accretes.
TEST(HashBucketerTest, ReallocatedRampNeverFlipsSurvivingUsers) {
  const size_t kIds = 20000;
  TrafficSplit split = TrafficSplit::Even(4, 7);
  HashBucketer bucketer(split);
  std::vector<size_t> prev_arm(kIds);
  for (uint64_t id = 0; id < kIds; ++id) {
    prev_arm[id] = bucketer.ArmForId(id);
  }
  std::vector<double> prev_fractions = split.fractions;

  const std::vector<std::vector<double>> ramp = {
      {0.2, 0.2, 0.2, 0.4},
      {0.1, 0.1, 0.1, 0.7},
      {0.0, 0.05, 0.05, 0.9},
  };
  std::set<uint64_t> winners;  // arm 3's cohort, across stages
  for (const auto& fractions : ramp) {
    TrafficSplit next = bucketer.split();
    next.fractions = fractions;
    ASSERT_TRUE(next.Valid());
    bucketer = bucketer.Reallocated(next);
    for (uint64_t id = 0; id < kIds; ++id) {
      const size_t arm = bucketer.ArmForId(id);
      if (arm != prev_arm[id]) {
        EXPECT_LT(fractions[prev_arm[id]], prev_fractions[prev_arm[id]])
            << "unit " << id << " left an arm that was not shrinking";
        EXPECT_GT(fractions[arm], prev_fractions[arm])
            << "unit " << id << " entered an arm that was not growing";
      }
      if (arm == 3) {
        winners.insert(id);
      } else {
        EXPECT_EQ(winners.count(id), 0u)
            << "unit " << id << " fell out of the ramping winner";
      }
      prev_arm[id] = arm;
    }
    prev_fractions = fractions;
  }
  // The winner really absorbed the ramp.
  EXPECT_NEAR(static_cast<double>(winners.size()) / kIds, 0.9, 0.02);
}

// Routing consumes no randomness, so it cannot be entangled with the
// policies' draws: two experiments with the same seed but different arm
// policies route the identical traffic stream identically.
TEST(HashBucketerTest, RoutingIsIndependentOfPolicyDraws) {
  CommunityParams community = CommunityParams::Default();
  community.n = 400;
  community.u = 200;
  community.m = 20;
  // An endless page lifetime draws no deaths: the run has no churn.
  community.lifetime_days = std::numeric_limits<double>::infinity();

  ExperimentOptions opts;
  opts.queries_per_epoch = 3000;
  opts.threads = 2;
  opts.shards = 2;
  opts.seed = 42;
  opts.split.fractions = {0.7, 0.3};

  const auto run = [&](std::shared_ptr<const StochasticRankingPolicy> a,
                       std::shared_ptr<const StochasticRankingPolicy> b) {
    std::vector<ArmSpec> arms;
    arms.push_back({"a", std::move(a)});
    arms.push_back({"b", std::move(b)});
    ExperimentManager exp(community, std::move(arms), opts);
    exp.RunEpoch();
    return std::pair<uint64_t, uint64_t>(exp.ArmSnapshot(0).queries,
                                         exp.ArmSnapshot(1).queries);
  };
  const auto promo = run(
      MakePromotionPolicy(RankPromotionConfig::None()),
      MakePromotionPolicy(RankPromotionConfig::Selective(0.3, 2)));
  const auto weighted = run(MakePlackettLucePolicy(0.2),
                            MakeEpsilonTailPolicy(0.4, 3));
  EXPECT_EQ(promo.first, weighted.first);
  EXPECT_EQ(promo.second, weighted.second);
  EXPECT_EQ(promo.first + promo.second, 3000u);
}

// --- Page lifecycle ------------------------------------------------------

TEST(PageLifecycleTest, DeathsMatchTheRetirementRateAndApplyResetsPages) {
  CommunityParams community = CommunityParams::Default();
  community.n = 2000;
  community.lifetime_days = 100.0;  // 20 expected deaths/day
  const PageLifecycle lifecycle(community);
  EXPECT_NEAR(lifecycle.deaths_per_epoch(), 20.0, 1e-12);

  Rng rng(9);
  double total = 0.0;
  const int kEpochs = 200;
  for (int e = 0; e < kEpochs; ++e) {
    total += static_cast<double>(lifecycle.DrawDeaths(rng).size());
  }
  // Poisson(20) mean over 200 epochs: within 5 sigma of 20.
  EXPECT_NEAR(total / kEpochs, 20.0, 5.0 * std::sqrt(20.0 / kEpochs));

  // Halving the epoch cadence halves the per-epoch deaths.
  const PageLifecycle half(community, 2.0);
  EXPECT_NEAR(half.deaths_per_epoch(), 10.0, 1e-12);

  ServingPageState state;
  state.users = community.u;
  state.quality = {0.3, 0.2, 0.1};
  state.aware = {10, 20, 30};
  state.popularity = {0.3, 0.2, 0.1};
  state.zero_awareness = {0, 0, 0};
  state.birth_step = {0, 0, 0};
  PageLifecycle::ApplyDeaths({1}, 7, &state);
  EXPECT_EQ(state.aware[1], 0u);
  EXPECT_DOUBLE_EQ(state.popularity[1], 0.0);
  EXPECT_EQ(state.zero_awareness[1], 1);
  EXPECT_EQ(state.birth_step[1], 7);
  EXPECT_DOUBLE_EQ(state.quality[1], 0.2);  // quality slot survives rebirth
  EXPECT_EQ(state.aware[0], 10u);           // neighbors untouched
}

// --- LiveMetrics ---------------------------------------------------------

TEST(LiveMetricsTest, AbsorbResolvesClicksAndNewbornClocks) {
  ServingPageState state;
  state.users = 10;
  state.quality = {0.4, 0.2, 0.1, 0.3};
  state.aware = {5, 0, 1, 2};
  state.popularity = {0.2, 0.0, 0.01, 0.06};
  state.zero_awareness = {0, 1, 0, 0};
  state.birth_step = {0, 0, 0, 0};

  LiveMetrics metrics(4);
  LiveMetrics::Shard shard(4);

  // Page 1 is born at epoch 2; first click lands in epoch 4 -> TTFC 2.
  metrics.RecordBirths({1}, 2);
  metrics.BeginEpoch(4);
  const uint32_t q1[] = {0, 1};
  const uint32_t q2[] = {0, 3};
  shard.RecordResult(q1, 2);
  shard.RecordResult(q2, 2);
  shard.RecordClick(1);  // undiscovered newborn
  shard.RecordClick(0);
  metrics.Absorb(shard, state);

  const LiveMetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.queries, 2u);
  EXPECT_EQ(snap.slots_served, 4u);
  EXPECT_EQ(snap.clicks, 2u);
  EXPECT_DOUBLE_EQ(snap.click_qpc, (0.2 + 0.4) / 2.0);
  EXPECT_DOUBLE_EQ(snap.tail_share, 0.5);
  EXPECT_EQ(snap.distinct_pages, 3u);  // pages 0, 1, 3
  EXPECT_EQ(snap.newborn_births, 1u);
  EXPECT_EQ(snap.newborn_clicked, 1u);
  EXPECT_DOUBLE_EQ(snap.ttfc_median_epochs, 2.0);
  // A second click on the same newborn must not restart the clock.
  LiveMetrics::Shard again(4);
  again.RecordResult(q1, 2);
  again.RecordClick(1);
  metrics.BeginEpoch(5);
  metrics.Absorb(again, state);
  EXPECT_EQ(metrics.Snapshot().newborn_clicked, 1u);
  EXPECT_DOUBLE_EQ(metrics.Snapshot().ttfc_median_epochs, 2.0);
  // Censored samples: one tracked newborn, already clicked -> no censor.
  EXPECT_EQ(metrics.TtfcSamples(99.0).size(), 1u);
  EXPECT_DOUBLE_EQ(metrics.TtfcSamples(99.0)[0], 2.0);
  // An unclicked newborn picks up the censor value.
  metrics.RecordBirths({2}, 5);
  const std::vector<double> samples = metrics.TtfcSamples(99.0);
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_DOUBLE_EQ(samples[1], 99.0);
}

// --- Policy hot-swap on the serving engine -------------------------------

// A hot-swap publishes atomically with the epoch: the published policy, the
// ranking state, and the epoch cache all flip together, and the server's
// accessors observe the new policy only after the publish.
TEST(HotSwapTest, SwapPublishesWithTheEpoch) {
  const size_t n = 240;
  Fixture fx(n, 40);
  ServeOptions opts;
  opts.shards = 4;
  ShardedRankServer server(
      MakePromotionPolicy(RankPromotionConfig::Selective(0.3, 2)), n, opts);
  server.Update(fx.popularity, fx.zero, fx.birth);
  EXPECT_EQ(server.epoch(), 1u);
  EXPECT_EQ(server.policy()->Label(), "selective(r=0.30,k=2)");

  // Swap to Plackett-Luce: one publish, epoch advances by one, the cache is
  // rebuilt for the NEW policy (alias-table state).
  server.Update(fx.popularity, fx.zero, fx.birth, MakePlackettLucePolicy(0.1));
  EXPECT_EQ(server.epoch(), 2u);
  EXPECT_EQ(server.policy()->Label(), "plackett-luce(T=0.10)");
  auto ctx = server.CreateContext();
  std::vector<uint32_t> out;
  ASSERT_EQ(server.ServeTopM(ctx, n, &out), n);
  EXPECT_EQ(std::set<uint32_t>(out.begin(), out.end()).size(), n);

  // Swap to strict deterministic ranking: serving must now reproduce the
  // deterministic order exactly — the swapped-in policy is really the one
  // serving, not a stale member.
  server.Update(fx.popularity, fx.zero, fx.birth,
                MakePromotionPolicy(RankPromotionConfig::None()));
  EXPECT_EQ(server.epoch(), 3u);
  std::vector<uint32_t> det_a;
  std::vector<uint32_t> det_b;
  ASSERT_EQ(server.ServeTopM(ctx, n, &det_a), n);
  ASSERT_EQ(server.ServeTopM(ctx, n, &det_b), n);
  EXPECT_EQ(det_a, det_b);  // r=0: no randomness left
  // Null policy keeps the current one (the 4-arg overload's behavior).
  server.Update(fx.popularity, fx.zero, fx.birth);
  EXPECT_EQ(server.policy()->Label(), "none");
}

// The acceptance property: hot-swaps under full concurrent query load drop
// nothing and misroute nothing — every query returns a complete, duplicate-
// free result realized under exactly one epoch's policy. Runs under TSan in
// CI (the swap also flips epoch-cache contents).
TEST(HotSwapTest, ConcurrentQueriesSurviveContinuousSwaps) {
  const size_t n = 300;
  const size_t m = 12;
  Fixture fx(n, 60);
  ServeOptions opts;
  opts.shards = 4;
  ShardedRankServer server(
      MakePromotionPolicy(RankPromotionConfig::Selective(0.2, 2)), n, opts);
  server.Update(fx.popularity, fx.zero, fx.birth);

  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> malformed{0};
  std::atomic<size_t> running{0};
  const size_t kReaders = 4;
  const size_t kQuotaPerReader = 2000;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      running.fetch_add(1, std::memory_order_release);
      auto ctx = server.CreateContext();
      std::vector<uint32_t> out;
      std::set<uint32_t> seen;
      for (size_t q = 0; q < kQuotaPerReader; ++q) {
        const size_t got = server.ServeTopM(ctx, m, &out);
        if (got != m || out.size() != m) {
          malformed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        seen.clear();
        seen.insert(out.begin(), out.end());
        if (seen.size() != m) {
          malformed.fetch_add(1, std::memory_order_relaxed);
        }
        served.fetch_add(1, std::memory_order_relaxed);
        server.RecordVisit(ctx, out.front());
      }
      server.FlushFeedback(ctx);
      running.fetch_sub(1, std::memory_order_release);
    });
  }

  // The writer cycles through every family (promotion, Plackett-Luce,
  // epsilon-tail, strict-deterministic) plus plain republishes, swapping
  // continuously until every reader has finished its quota — so swaps and
  // queries genuinely overlap for the whole run.
  const std::vector<std::shared_ptr<const StochasticRankingPolicy>> cycle = {
      MakePlackettLucePolicy(0.1),
      nullptr,  // republish, no swap
      MakeEpsilonTailPolicy(0.3, 3),
      MakePromotionPolicy(RankPromotionConfig::None()),
      MakePromotionPolicy(RankPromotionConfig::Selective(0.2, 2)),
  };
  // At least kMinSwaps publishes always happen (even if a loaded machine
  // lets the readers drain their quota early), and swapping continues for
  // as long as any reader is still querying.
  const size_t kMinSwaps = 10;
  size_t swaps = 0;
  while (swaps < kMinSwaps || running.load(std::memory_order_acquire) > 0) {
    server.Update(fx.popularity, fx.zero, fx.birth,
                  cycle[swaps % cycle.size()]);
    ++swaps;
  }
  for (auto& th : readers) th.join();

  EXPECT_EQ(server.epoch(), 1u + swaps);
  EXPECT_EQ(malformed.load(), 0u) << "a query was dropped or mixed epochs";
  EXPECT_EQ(served.load(), kReaders * kQuotaPerReader);
  // The policy being served is the one the last swap published (a trailing
  // republish — the nullptr cycle slot — keeps its predecessor, cycle[0]).
  ASSERT_GE(swaps, 1u);
  const size_t last = (swaps - 1) % cycle.size();
  const auto& expected = cycle[last] != nullptr ? cycle[last] : cycle[0];
  EXPECT_EQ(server.policy()->Label(), expected->Label());
}

// --- ExperimentManager ---------------------------------------------------

TEST(ExperimentManagerTest, ValidatesArmsAndSplit) {
  CommunityParams community = CommunityParams::Default();
  community.n = 200;
  community.u = 100;
  community.m = 10;
  EXPECT_THROW(ExperimentManager(community, {}, {}), std::invalid_argument);

  std::vector<ArmSpec> arms;
  arms.push_back({"a", MakePromotionPolicy(RankPromotionConfig::None())});
  arms.push_back({"b", nullptr});
  EXPECT_THROW(ExperimentManager(community, std::move(arms), {}),
               std::invalid_argument);

  ExperimentOptions bad_split;
  bad_split.split.fractions = {0.5, 0.2};  // does not sum to 1
  std::vector<ArmSpec> two;
  two.push_back({"a", MakePromotionPolicy(RankPromotionConfig::None())});
  two.push_back({"b", MakePromotionPolicy(RankPromotionConfig::None())});
  EXPECT_THROW(ExperimentManager(community, std::move(two), bad_split),
               std::invalid_argument);
}

// Regression: each arm's server owns e.g. exp/arm:X/queries as a counter,
// and the registry rejects re-registering a name as a different kind — so
// the epoch's live gauges must land under their own /live segment, or an
// instrumented experiment throws on its first publish.
TEST(ExperimentManagerTest, MetricsRegistryAttachesWithoutKindCollisions) {
  CommunityParams community = CommunityParams::Default();
  community.n = 400;
  community.u = 100;
  community.m = 20;
  obs::MetricsRegistry registry;
  std::vector<ArmSpec> arms;
  arms.push_back({"control", MakePromotionPolicy(RankPromotionConfig::None())});
  arms.push_back(
      {"treatment",
       MakePromotionPolicy(RankPromotionConfig::Selective(0.1, 2))});
  ExperimentOptions opts;
  opts.shards = 2;
  opts.queries_per_epoch = 200;
  opts.metrics = &registry;
  ExperimentManager experiment(community, std::move(arms), opts);
  ASSERT_NO_THROW(experiment.RunEpoch());

  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.count("exp/arm:treatment/queries"), 1u);
  EXPECT_EQ(snap.gauges.count("exp/arm:treatment/live/queries"), 1u);
  EXPECT_EQ(snap.gauges.count("exp/arm:treatment/split"), 1u);
  EXPECT_EQ(snap.gauges.count("exp/arm:control/live/clicks"), 1u);
}

// The full live loop: split traffic, per-arm feedback isolation, shared
// churn, and the paper's discovery race decided by the rank test — the
// miniature of examples/live_ab, asserted.
TEST(ExperimentManagerTest, RandomizedArmDiscoversNewbornsFasterThanDeterministic) {
  CommunityParams community = CommunityParams::Default();
  community.n = 800;
  community.u = 400;
  community.m = 40;
  community.lifetime_days = 60.0;  // ~13 newborns per epoch

  ExperimentOptions opts;
  opts.shards = 4;
  opts.threads = 2;
  opts.queries_per_epoch = 8000;
  opts.prediscovered_fraction = 0.9;
  opts.seed = 0x5ab7ULL;

  std::vector<ArmSpec> arms;
  arms.push_back({"control", MakePromotionPolicy(RankPromotionConfig::None())});
  arms.push_back(
      {"treatment",
       MakePromotionPolicy(RankPromotionConfig::Selective(0.15, 2))});
  ExperimentManager exp(community, std::move(arms), opts);

  const size_t kEpochs = 10;
  for (size_t e = 0; e < kEpochs; ++e) exp.RunEpoch();
  EXPECT_EQ(exp.epoch(), static_cast<int64_t>(kEpochs));

  const LiveMetricsSnapshot control = exp.ArmSnapshot(0);
  const LiveMetricsSnapshot treatment = exp.ArmSnapshot(1);

  // Even split, user-level diversion: arm occupancy near 50% of traffic.
  EXPECT_EQ(control.queries + treatment.queries,
            static_cast<uint64_t>(kEpochs * opts.queries_per_epoch));
  EXPECT_NEAR(static_cast<double>(control.queries) /
                  static_cast<double>(control.queries + treatment.queries),
              0.5, 0.1);

  // Shared churn: both arms tracked the identical newborn cohort.
  EXPECT_EQ(control.newborn_births, treatment.newborn_births);
  EXPECT_GT(control.newborn_births, 50u);

  // Strict deterministic ranking never surfaces zero-popularity pages in a
  // top-10, so it clicks (essentially) no newborns and spends nothing on
  // the undiscovered tail; the randomized arm pays a small tail share and
  // discovers most of the cohort.
  EXPECT_DOUBLE_EQ(control.tail_share, 0.0);
  EXPECT_GT(treatment.tail_share, 0.0);
  EXPECT_GT(treatment.newborn_clicked, treatment.newborn_births / 2);
  EXPECT_LT(control.newborn_clicked, treatment.newborn_clicked);
  // Exposure spread: the deterministic arm concentrates impressions on its
  // fixed top-m; the randomized arm reaches more distinct pages.
  EXPECT_GT(treatment.distinct_pages, control.distinct_pages);
  EXPECT_LT(treatment.impression_gini, control.impression_gini);

  // The headline statistic: newborn time-to-first-click, censored at the
  // horizon, compared by the Mann-Whitney rank test. Strongly negative z
  // means the randomized arm discovers significantly faster.
  const double censor = static_cast<double>(kEpochs) + 1.0;
  const std::vector<double> control_ttfc = exp.ArmTtfcSamples(0, censor);
  const std::vector<double> treatment_ttfc = exp.ArmTtfcSamples(1, censor);
  EXPECT_LT(Percentile(treatment_ttfc, 50.0), Percentile(control_ttfc, 50.0));
  EXPECT_LT(MannWhitneyZ(treatment_ttfc, control_ttfc), -3.29);
}

// The click law is the community's rank->visit law (paper Eq. 4). With a
// bias exponent of 60 a click reaches rank 2 with odds 2^-60 against rank 1,
// so every click lands on rank 1 — under selective(r=0.5, k=2) the
// protected head, always a discovered page — and none reaches the
// undiscovered half of the community, though the policy promotes it into
// ranks 2 and below.
TEST(ExperimentManagerTest, ClickLawFollowsCommunityRankBias) {
  CommunityParams community = CommunityParams::Default();
  community.n = 400;
  community.u = 200;
  community.m = 20;
  community.rank_bias_exponent = 60.0;

  ExperimentOptions opts;
  opts.queries_per_epoch = 2000;
  opts.shards = 2;
  opts.prediscovered_fraction = 0.5;
  opts.seed = 61;

  std::vector<ArmSpec> arms;
  arms.push_back(
      {"selective",
       MakePromotionPolicy(RankPromotionConfig::Selective(0.5, 2))});
  ExperimentManager exp(community, std::move(arms), opts);
  const size_t kEpochs = 3;
  for (size_t e = 0; e < kEpochs; ++e) exp.RunEpoch();

  const LiveMetricsSnapshot snap = exp.ArmSnapshot(0);
  EXPECT_EQ(snap.clicks, kEpochs * opts.queries_per_epoch);
  EXPECT_DOUBLE_EQ(snap.tail_share, 0.0);
}

// Mid-run controls: SetSplit ramps traffic at the next epoch (hash-stable),
// SwapPolicy publishes with the next epoch, and the JSONL feed reflects
// both.
TEST(ExperimentManagerTest, RampAndHotSwapApplyAtTheNextEpoch) {
  CommunityParams community = CommunityParams::Default();
  community.n = 300;
  community.u = 150;
  community.m = 15;
  // An endless page lifetime draws no deaths: the run has no churn.
  community.lifetime_days = std::numeric_limits<double>::infinity();

  ExperimentOptions opts;
  opts.queries_per_epoch = 2000;
  opts.threads = 1;
  opts.shards = 2;
  opts.seed = 31;
  opts.split.fractions = {0.9, 0.1};

  std::vector<ArmSpec> arms;
  arms.push_back({"control", MakePromotionPolicy(RankPromotionConfig::None())});
  arms.push_back(
      {"treatment",
       MakePromotionPolicy(RankPromotionConfig::Selective(0.05, 2))});
  ExperimentManager exp(community, std::move(arms), opts);

  exp.RunEpoch();
  const uint64_t treatment_before = exp.ArmSnapshot(1).epoch_queries;

  TrafficSplit ramped = exp.bucketer().split();
  ramped.fractions = {0.5, 0.5};
  exp.SetSplit(ramped);
  exp.SwapPolicy(1, MakePromotionPolicy(RankPromotionConfig::Selective(0.10, 2)));
  // Neither change applies until the next epoch opens.
  EXPECT_DOUBLE_EQ(exp.bucketer().split().fractions[1], 0.1);
  EXPECT_EQ(exp.arm_spec(1).policy->Label(), "selective(r=0.05,k=2)");

  // The next epoch is served — and therefore reported — entirely under the
  // new split and policy: no epoch ever mixes configurations.
  exp.RunEpoch();
  EXPECT_DOUBLE_EQ(exp.bucketer().split().fractions[1], 0.5);
  EXPECT_EQ(exp.arm_spec(1).policy->Label(), "selective(r=0.10,k=2)");
  EXPECT_EQ(exp.arm_server(1).policy()->Label(), "selective(r=0.10,k=2)");
  const uint64_t treatment_after = exp.ArmSnapshot(1).epoch_queries;
  EXPECT_GT(treatment_after, treatment_before * 2);

  std::ostringstream os;
  exp.EmitEpochJsonl(os);
  const std::string feed = os.str();
  EXPECT_NE(feed.find("\"arm\":\"treatment\""), std::string::npos);
  EXPECT_NE(feed.find("\"policy\":\"selective(r=0.10,k=2)\""), std::string::npos);
  EXPECT_NE(feed.find("\"split\":0.5"), std::string::npos);
  EXPECT_EQ(std::count(feed.begin(), feed.end(), '\n'), 2);
}

// Elimination (a zero fraction), reallocation, and a policy hot-swap staged
// together all land on the SAME next publish: the eliminated arm serves not
// one further query, survivors keep their users (segment-preserving
// reallocation), and the swapped policy serves that whole epoch — no epoch
// mixes configurations. Runs under TSan in CI with the threaded worker pool.
TEST(ExperimentManagerTest, EliminationReallocationAndSwapComposeAtomically) {
  CommunityParams community = CommunityParams::Default();
  community.n = 300;
  community.u = 150;
  community.m = 15;
  // An endless page lifetime draws no deaths: the run has no churn.
  community.lifetime_days = std::numeric_limits<double>::infinity();

  ExperimentOptions opts;
  opts.queries_per_epoch = 3000;
  opts.threads = 2;
  opts.shards = 2;
  opts.seed = 53;
  opts.split.fractions = {0.34, 0.33, 0.33};

  std::vector<ArmSpec> arms;
  arms.push_back({"control", MakePromotionPolicy(RankPromotionConfig::None())});
  arms.push_back(
      {"mid", MakePromotionPolicy(RankPromotionConfig::Selective(0.05, 2))});
  arms.push_back(
      {"loser", MakePromotionPolicy(RankPromotionConfig::Uniform(0.5, 1))});
  ExperimentManager exp(community, std::move(arms), opts);
  exp.RunEpoch();

  // Remember every unit's assignment under the old split.
  const size_t kIds = 10000;
  std::vector<size_t> before(kIds);
  for (uint64_t id = 0; id < kIds; ++id) {
    before[id] = exp.bucketer().ArmForId(id);
  }

  // Stage all three changes; none applies until the next epoch opens.
  TrafficSplit next = exp.bucketer().split();
  next.fractions = {0.5, 0.5, 0.0};
  exp.SetSplit(next);
  exp.SwapPolicy(0,
                 MakePromotionPolicy(RankPromotionConfig::Selective(0.10, 2)));
  EXPECT_DOUBLE_EQ(exp.bucketer().split().fractions[2], 0.33);
  EXPECT_EQ(exp.arm_spec(0).policy->Label(), "none");

  exp.RunEpoch();

  // The epoch ran entirely under the new configuration.
  EXPECT_DOUBLE_EQ(exp.bucketer().split().fractions[2], 0.0);
  EXPECT_EQ(exp.arm_spec(0).policy->Label(), "selective(r=0.10,k=2)");
  EXPECT_EQ(exp.arm_server(0).policy()->Label(), "selective(r=0.10,k=2)");
  EXPECT_EQ(exp.ArmSnapshot(2).epoch_queries, 0u);
  EXPECT_EQ(exp.ArmSnapshot(0).epoch_queries + exp.ArmSnapshot(1).epoch_queries,
            static_cast<uint64_t>(opts.queries_per_epoch));

  // Segment preservation: only the eliminated arm's users moved.
  for (uint64_t id = 0; id < kIds; ++id) {
    const size_t arm = exp.bucketer().ArmForId(id);
    if (before[id] == 2) {
      EXPECT_NE(arm, 2u);
    } else {
      ASSERT_EQ(arm, before[id]) << "surviving unit " << id << " flipped";
    }
  }
}

}  // namespace
}  // namespace randrank
