// Cross-module integration tests: the paper's central claims checked
// end-to-end on reduced-scale communities, and agreement between the three
// independent steady-state methods (analysis, mean-field, agent simulation).

#include <gtest/gtest.h>

#include <cmath>

#include "harness/presets.h"
#include "model/analytic_model.h"
#include "sim/agent_sim.h"
#include "sim/mean_field.h"

namespace randrank {
namespace {

CommunityParams MidCommunity() {
  // n=2000, u=200, m=20, v=20/day: large enough for stable steady state,
  // small enough for CI.
  return ScaledDown(CommunityParams::Default(), 5);
}

SimOptions MidOptions(uint64_t seed) {
  SimOptions o;
  o.warmup_days = 900;
  o.measure_days = 365;
  o.seed = seed;
  o.ghost_count = 24;
  o.ghost_max_age = 1200;
  return o;
}

double MeanSimQpc(const CommunityParams& community,
                  const RankPromotionConfig& config, uint64_t base_seed,
                  int seeds = 3) {
  double total = 0.0;
  for (int s = 0; s < seeds; ++s) {
    SimOptions options = MidOptions(base_seed + static_cast<uint64_t>(s));
    options.ghost_count = 0;
    AgentSimulator sim(community, config, options);
    total += sim.Run().normalized_qpc;
  }
  return total / seeds;
}

TEST(IntegrationTest, AnalysisVsSimulationQpcNone) {
  // Fig. 5's "analysis vs simulation" correspondence, deterministic case.
  // QPC under entrenchment depends on which qualities got lucky, so the
  // simulation side is a three-seed mean and the tolerance is generous
  // (the paper's own Fig. 5 analysis/simulation points differ visibly).
  AnalyticModel analytic(MidCommunity(), RankPromotionConfig::None(), 1024);
  const double a = analytic.NormalizedQpc();
  const double s = MeanSimQpc(MidCommunity(), RankPromotionConfig::None(), 101);
  EXPECT_NEAR(a, s, 0.3) << "analytic=" << a << " sim=" << s;
}

TEST(IntegrationTest, AnalysisVsSimulationQpcSelective) {
  const RankPromotionConfig config = RankPromotionConfig::Selective(0.1, 1);
  AnalyticModel analytic(MidCommunity(), config, 1024);
  const double a = analytic.NormalizedQpc();
  const double s = MeanSimQpc(MidCommunity(), config, 103);
  EXPECT_NEAR(a, s, 0.3) << "analytic=" << a << " sim=" << s;
}

TEST(IntegrationTest, MeanFieldVsSimulationQpc) {
  MeanFieldOptions mo;
  mo.max_classes = 1024;
  const RankPromotionConfig config = RankPromotionConfig::Selective(0.1, 1);
  MeanFieldModel mf(MidCommunity(), config, mo);
  const double a = mf.NormalizedQpc();
  const double s = MeanSimQpc(MidCommunity(), config, 105);
  EXPECT_NEAR(a, s, 0.3) << "meanfield=" << a << " sim=" << s;
}

TEST(IntegrationTest, HeadlineResultSelectiveR01BeatsNone) {
  // The recommendation of Section 6.4 delivers a substantial QPC gain on the
  // (scaled) default community, by every method.
  AnalyticModel a_none(MidCommunity(), RankPromotionConfig::None(), 1024);
  AnalyticModel a_sel(MidCommunity(), RankPromotionConfig::Recommended(), 1024);
  EXPECT_GT(a_sel.NormalizedQpc(), a_none.NormalizedQpc() * 1.1);

  AgentSimulator s_none(MidCommunity(), RankPromotionConfig::None(),
                        MidOptions(107));
  AgentSimulator s_sel(MidCommunity(), RankPromotionConfig::Recommended(),
                       MidOptions(107));
  EXPECT_GT(s_sel.Run().normalized_qpc, s_none.Run().normalized_qpc * 1.05);
}

TEST(IntegrationTest, SelectiveDominatesUniformInSimulation) {
  const CommunityParams community = MidCommunity();
  AgentSimulator uniform(community, RankPromotionConfig::Uniform(0.1, 1),
                         MidOptions(109));
  AgentSimulator selective(community, RankPromotionConfig::Selective(0.1, 1),
                           MidOptions(109));
  const SimResult ru = uniform.Run();
  const SimResult rs = selective.Run();
  EXPECT_GE(rs.normalized_qpc, ru.normalized_qpc - 0.03);
  // TBP: selective must be no slower (usually much faster).
  if (rs.tbp_samples > 0 && ru.tbp_samples > 0 &&
      !std::isnan(rs.mean_tbp) && !std::isnan(ru.mean_tbp)) {
    EXPECT_LT(rs.mean_tbp, ru.mean_tbp * 1.1);
  }
}

TEST(IntegrationTest, RandomizationNeverHurtsMuchAcrossCommunityTypes) {
  // Section 7's robustness claim on a grid of small communities, two-seed
  // means per point.
  for (const size_t scale : {10, 20}) {
    for (const double lifetime : {0.5, 1.5}) {
      CommunityParams p = ScaledDown(CommunityParams::Default(), scale);
      p.lifetime_days = lifetime * 365.0;
      double q_none = 0.0;
      double q_sel = 0.0;
      for (int s = 0; s < 2; ++s) {
        SimOptions o;
        o.warmup_days = static_cast<size_t>(p.lifetime_days * 2.0);
        o.measure_days = 300;
        o.ghost_count = 0;
        o.seed = 42 + scale + static_cast<uint64_t>(s) * 1000;
        AgentSimulator none(p, RankPromotionConfig::None(), o);
        AgentSimulator sel(p, RankPromotionConfig::Recommended(), o);
        q_none += none.Run().normalized_qpc / 2.0;
        q_sel += sel.Run().normalized_qpc / 2.0;
      }
      EXPECT_GT(q_sel, q_none - 0.1)
          << "scale=" << scale << " lifetime=" << lifetime;
    }
  }
}

TEST(IntegrationTest, MixedSurfingRandomizationStillHelps) {
  // Fig. 8: at moderate surfing fractions promotion still wins.
  CommunityParams p = MidCommunity();
  SimOptions o = MidOptions(113);
  o.ghost_count = 0;
  o.surf_fraction = 0.2;
  AgentSimulator none(p, RankPromotionConfig::None(), o);
  AgentSimulator sel(p, RankPromotionConfig::Recommended(), o);
  EXPECT_GE(sel.Run().qpc, none.Run().qpc * 0.98);
}

}  // namespace
}  // namespace randrank
