#include "bai/arm_scheduler.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "bai/bai_controller.h"
#include "core/community.h"
#include "core/policy/promotion_policy.h"
#include "core/ranking_policy.h"
#include "exp/experiment_manager.h"
#include "obs/metrics.h"

namespace randrank::bai {
namespace {

// Synthetic epoch evidence: arm a receives `clicks` reward samples with the
// given mean and a small constant spread (sq_sum chosen so the empirical
// variance is `var`).
ArmObservation MakeObs(uint64_t clicks, double mean, double var = 0.01) {
  ArmObservation obs;
  obs.queries = clicks * 4;
  obs.clicks = clicks;
  obs.reward_sum = mean * static_cast<double>(clicks);
  obs.reward_sq_sum =
      (var + mean * mean) * static_cast<double>(clicks);
  obs.cvar = mean;  // tests that exercise the guardrail override this
  return obs;
}

// A fixed gap instance: arm `best` at mean 0.6, everyone else at 0.3.
std::vector<ArmObservation> GapEpoch(size_t arms, size_t best,
                                     uint64_t clicks) {
  std::vector<ArmObservation> epoch(arms);
  for (size_t a = 0; a < arms; ++a) {
    epoch[a] = MakeObs(clicks, a == best ? 0.6 : 0.3);
  }
  return epoch;
}

void ExpectValidFractions(const SchedulerDecision& d, size_t arms) {
  ASSERT_EQ(d.fractions.size(), arms);
  double total = 0.0;
  for (const double f : d.fractions) {
    EXPECT_GE(f, 0.0);
    total += f;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ArmSchedulerTest, ConstructionAndEliminationGuards) {
  EXPECT_THROW(TopTwoThompsonScheduler(1), std::invalid_argument);
  EXPECT_THROW(SuccessiveEliminationScheduler(0), std::invalid_argument);

  TopTwoThompsonScheduler sched(3);
  EXPECT_EQ(sched.active_arms(), 3u);
  sched.Eliminate(1);
  sched.Eliminate(1);  // idempotent
  EXPECT_EQ(sched.active_arms(), 2u);
  EXPECT_FALSE(sched.active(1));
  sched.Eliminate(0);
  // The last active arm cannot be retired: a live experiment always serves
  // someone.
  sched.Eliminate(2);
  EXPECT_EQ(sched.active_arms(), 1u);
  EXPECT_TRUE(sched.active(2));
}

TEST(ArmSchedulerTest, DecisionsAreDeterministicGivenTheObservationStream) {
  for (int which = 0; which < 2; ++which) {
    const auto make = [&]() -> std::unique_ptr<ArmScheduler> {
      if (which == 0) return MakeTopTwoThompsonScheduler(4);
      return MakeSuccessiveEliminationScheduler(4);
    };
    auto a = make();
    auto b = make();
    for (int e = 0; e < 12; ++e) {
      a->Observe(GapEpoch(4, 2, 150));
      b->Observe(GapEpoch(4, 2, 150));
      const SchedulerDecision da = a->Decide();
      const SchedulerDecision db = b->Decide();
      ASSERT_EQ(da.fractions, db.fractions) << a->Name() << " epoch " << e;
      EXPECT_EQ(da.best, db.best);
      EXPECT_EQ(da.eliminated, db.eliminated);
      EXPECT_EQ(da.stop, db.stop);
    }
  }
}

TEST(TopTwoThompsonTest, IdentifiesThePlantedBestAndRetiresEpigons) {
  const size_t kArms = 4;
  const size_t kBest = 1;
  TopTwoThompsonScheduler sched(kArms);
  SchedulerDecision d;
  size_t epochs = 0;
  while (epochs < 60) {
    sched.Observe(GapEpoch(kArms, kBest, 200));
    d = sched.Decide();
    ExpectValidFractions(d, kArms);
    // Eliminated arms stay at exactly zero forever.
    for (size_t a = 0; a < kArms; ++a) {
      if (!sched.active(a)) {
        EXPECT_EQ(d.fractions[a], 0.0);
      }
    }
    ++epochs;
    if (d.stop) break;
  }
  EXPECT_TRUE(d.stop) << "no stop within " << epochs << " epochs";
  EXPECT_EQ(d.best, kBest);
  EXPECT_EQ(sched.active_arms(), 1u);
  EXPECT_TRUE(sched.active(kBest));
  EXPECT_DOUBLE_EQ(d.fractions[kBest], 1.0);
  EXPECT_DOUBLE_EQ(d.confidence, 1.0);

  // The posterior agrees with the verdict.
  const std::vector<ArmPosterior> post = sched.Posteriors();
  ASSERT_EQ(post.size(), kArms);
  EXPECT_NEAR(post[kBest].mean, 0.6, 0.05);
  EXPECT_TRUE(post[kBest].active);
  for (size_t a = 0; a < kArms; ++a) {
    if (a != kBest) {
      EXPECT_FALSE(post[a].active);
    }
  }
}

TEST(TopTwoThompsonTest, LeaderGetsItsShareWhileChallengersSurvive) {
  // min_clicks 2^30: never eliminate, to isolate the sampling rule.
  TopTwoThompsonScheduler sched(3, 1 << 30);
  SchedulerDecision d;
  for (int e = 0; e < 8; ++e) {
    sched.Observe(GapEpoch(3, 0, 200));
    d = sched.Decide();
  }
  ExpectValidFractions(d, 3);
  EXPECT_EQ(d.best, 0u);
  // Leader share plus proportional challengers, floored.
  EXPECT_NEAR(d.fractions[0], TopTwoThompsonScheduler::kLeaderShare, 0.05);
  for (size_t a = 1; a < 3; ++a) {
    EXPECT_GE(d.fractions[a], TopTwoThompsonScheduler::kExploreFloor - 1e-9);
  }
}

TEST(SuccessiveEliminationTest, EvenSplitThenDominatedArmsFallOff) {
  const size_t kArms = 4;
  const size_t kBest = 3;
  SuccessiveEliminationScheduler sched(kArms);

  // Before any evidence: even over all arms.
  SchedulerDecision d = sched.Decide();
  ExpectValidFractions(d, kArms);
  for (size_t a = 0; a < kArms; ++a) {
    EXPECT_NEAR(d.fractions[a], 0.25, 1e-9);
  }

  size_t epochs = 0;
  while (epochs < 80) {
    sched.Observe(GapEpoch(kArms, kBest, 120));
    d = sched.Decide();
    ExpectValidFractions(d, kArms);
    // The sampling rule stays even over the survivors.
    const double even = 1.0 / static_cast<double>(sched.active_arms());
    for (size_t a = 0; a < kArms; ++a) {
      if (sched.active(a)) {
        EXPECT_NEAR(d.fractions[a], even, 1e-9);
      } else {
        EXPECT_EQ(d.fractions[a], 0.0);
      }
    }
    ++epochs;
    if (d.stop) break;
  }
  EXPECT_TRUE(d.stop);
  EXPECT_EQ(d.best, kBest);
  EXPECT_DOUBLE_EQ(d.confidence, 0.95);  // 1 - kDelta
}

TEST(SuccessiveEliminationTest, NoEliminationWithoutEnoughClicks) {
  SuccessiveEliminationScheduler sched(3);
  // Huge gap but tiny samples: the radius must keep everyone alive.
  for (int e = 0; e < 20; ++e) {
    std::vector<ArmObservation> epoch = {MakeObs(2, 0.9), MakeObs(2, 0.1),
                                         MakeObs(2, 0.1)};
    sched.Observe(epoch);
    const SchedulerDecision d = sched.Decide();
    EXPECT_TRUE(d.eliminated.empty());
  }
  EXPECT_EQ(sched.active_arms(), 3u);
}

// --- BaiController over a real experiment --------------------------------

ExperimentOptions SmallExpOptions(uint64_t seed) {
  ExperimentOptions opts;
  opts.shards = 2;
  opts.threads = 2;
  opts.queries_per_epoch = 4000;
  opts.prediscovered_fraction = 0.5;
  opts.seed = seed;
  return opts;
}

CommunityParams SmallCommunity() {
  CommunityParams community = CommunityParams::Default();
  community.n = 600;
  community.u = 300;
  community.m = 30;
  return community;
}

TEST(BaiControllerTest, ValidatesItsInputs) {
  CommunityParams community = SmallCommunity();
  std::vector<ArmSpec> arms;
  arms.push_back({"a", MakePromotionPolicy(RankPromotionConfig::None())});
  arms.push_back(
      {"b", MakePromotionPolicy(RankPromotionConfig::Selective(0.1, 2))});
  ExperimentOptions opts = SmallExpOptions(3);
  opts.split = TrafficSplit::Even(2);
  ExperimentManager exp(community, std::move(arms), opts);

  EXPECT_THROW(BaiController(nullptr, MakeTopTwoThompsonScheduler(2)),
               std::invalid_argument);
  EXPECT_THROW(BaiController(&exp, nullptr), std::invalid_argument);
  // Arm-count mismatch.
  EXPECT_THROW(BaiController(&exp, MakeTopTwoThompsonScheduler(3)),
               std::invalid_argument);
}

// The tested guardrail path: an arm whose clicked-quality tail collapses
// (heavy uniform randomization promoting undiscovered junk) is demoted by
// the CVaR guardrail — auto-rollback — even though the scheduler's own
// elimination rule was disabled. Runs threaded, so TSan covers the
// controller + experiment composition.
TEST(BaiControllerTest, CvarGuardrailDemotesTheTailCollapsingArm) {
  CommunityParams community = SmallCommunity();
  std::vector<ArmSpec> arms;
  arms.push_back(
      {"control", MakePromotionPolicy(RankPromotionConfig::None())});
  arms.push_back(
      {"gentle", MakePromotionPolicy(RankPromotionConfig::Selective(0.05, 2))});
  arms.push_back(
      {"reckless", MakePromotionPolicy(RankPromotionConfig::Uniform(0.9, 1))});
  ExperimentOptions opts = SmallExpOptions(17);
  opts.split = TrafficSplit::Even(3);
  ExperimentManager exp(community, std::move(arms), opts);

  BaiControllerOptions copts;
  copts.guardrail_floor = 0.7;
  copts.guardrail_epochs = 2;
  obs::MetricsRegistry registry;
  copts.metrics = &registry;
  // min_clicks 2^30: statistical elimination off.
  BaiController controller(&exp, MakeTopTwoThompsonScheduler(3, 1 << 30),
                           copts);

  for (int e = 0; e < 10 && controller.eliminations().empty(); ++e) {
    controller.Step();
  }
  ASSERT_FALSE(controller.eliminations().empty())
      << "guardrail never fired on the tail-collapsing arm";
  const EliminationEvent& event = controller.eliminations().front();
  EXPECT_EQ(event.arm, 2u);
  EXPECT_TRUE(event.by_guardrail);
  EXPECT_FALSE(controller.scheduler().active(2));

  const obs::MetricsSnapshot snap = registry.Snapshot();
  const auto demotions = snap.counters.find("exp/bai/guardrail_demotions");
  ASSERT_NE(demotions, snap.counters.end());
  EXPECT_GE(demotions->second, 1u);

  // The next decision routes the reckless arm's traffic to the survivors.
  controller.Step();
  EXPECT_EQ(controller.last_decision().fractions[2], 0.0);
}

// End-to-end adaptive run on live traffic: the planted best arm (the only
// one that discovers newborns without trashing quality) is identified, the
// epigons are retired, and the terminal allocation concentrates on the
// winner. The miniature of examples/adaptive_bai, asserted.
TEST(BaiControllerTest, AdaptiveRunConvergesOnThePlantedBestArm) {
  CommunityParams community = SmallCommunity();
  std::vector<ArmSpec> arms;
  arms.push_back(
      {"best", MakePromotionPolicy(RankPromotionConfig::Selective(0.05, 2))});
  arms.push_back(
      {"mid", MakePromotionPolicy(RankPromotionConfig::Uniform(0.5, 1))});
  arms.push_back(
      {"worst", MakePromotionPolicy(RankPromotionConfig::Uniform(0.9, 1))});
  ExperimentOptions opts = SmallExpOptions(29);
  opts.split = TrafficSplit::Even(3);
  obs::MetricsRegistry registry;
  opts.metrics = &registry;
  ExperimentManager exp(community, std::move(arms), opts);

  BaiControllerOptions copts;
  copts.guardrail = false;  // let the statistical rule do all the work
  copts.metrics = &registry;
  BaiController controller(&exp, MakeTopTwoThompsonScheduler(3, 400), copts);

  const size_t ran = controller.Run(40);
  EXPECT_TRUE(controller.stopped()) << "no convergence in " << ran << " epochs";
  EXPECT_EQ(controller.best(), 0u);
  EXPECT_EQ(controller.scheduler().active_arms(), 1u);
  EXPECT_EQ(controller.eliminations().size(), 2u);
  EXPECT_EQ(controller.allocation_history().size(), ran);
  // Terminal traffic rides the winner.
  EXPECT_DOUBLE_EQ(controller.last_decision().fractions[0], 1.0);

  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.gauges.count("exp/bai/best_arm"), 1u);
  EXPECT_EQ(snap.gauges.count("exp/bai/arm:best/posterior_mean"), 1u);
  EXPECT_EQ(snap.gauges.count("exp/bai/arm:worst/active"), 1u);
  const auto stopped = snap.gauges.find("exp/bai/stopped");
  ASSERT_NE(stopped, snap.gauges.end());
  EXPECT_DOUBLE_EQ(stopped->second, 1.0);
  const auto epochs = snap.counters.find("exp/bai/epochs");
  ASSERT_NE(epochs, snap.counters.end());
  EXPECT_EQ(epochs->second, ran);
}

}  // namespace
}  // namespace randrank::bai
