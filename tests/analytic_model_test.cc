#include "model/analytic_model.h"

#include <gtest/gtest.h>

#include <cmath>

#include "harness/presets.h"

namespace randrank {
namespace {

// Scaled-down default community keeps the tests fast; the shapes tested here
// are scale-free.
CommunityParams SmallCommunity() {
  return ScaledDown(CommunityParams::Default(), 10);  // n=1000, m=10, v=10
}

// Quality-class cap for the tests (the model's default is 2048).
constexpr size_t kFastClasses = 512;

TEST(AnalyticModelTest, FixedPointConverges) {
  AnalyticModel model(SmallCommunity(), RankPromotionConfig::None(),
                      kFastClasses);
  const SteadyState& s = model.Solve();
  EXPECT_TRUE(s.converged) << "residual " << s.residual;
  EXPECT_GT(s.z, 0.0);
  EXPECT_LT(s.z, 1000.0);
}

TEST(AnalyticModelTest, ConvergesUnderSelectivePromotion) {
  AnalyticModel model(SmallCommunity(),
                      RankPromotionConfig::Selective(0.2, 1), kFastClasses);
  EXPECT_TRUE(model.Solve().converged);
}

TEST(AnalyticModelTest, ConvergesUnderUniformPromotion) {
  AnalyticModel model(SmallCommunity(), RankPromotionConfig::Uniform(0.2, 1),
                      kFastClasses);
  EXPECT_TRUE(model.Solve().converged);
}

TEST(AnalyticModelTest, AwarenessDistributionsSumToOne) {
  AnalyticModel model(SmallCommunity(),
                      RankPromotionConfig::Selective(0.1, 1), kFastClasses);
  const SteadyState& s = model.Solve();
  for (const auto& f : s.awareness) {
    double total = 0.0;
    for (const double x : f) total += x;
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(AnalyticModelTest, QpcWithinBounds) {
  AnalyticModel model(SmallCommunity(), RankPromotionConfig::None(),
                      kFastClasses);
  const double qpc = model.Qpc();
  EXPECT_GT(qpc, 0.0);
  EXPECT_LE(qpc, 0.4);
  const double norm = model.NormalizedQpc();
  EXPECT_GT(norm, 0.0);
  EXPECT_LE(norm, 1.0 + 1e-9);
}

TEST(AnalyticModelTest, SelectivePromotionImprovesQpc) {
  // The paper's central claim (Fig. 5): moderate selective randomization
  // beats deterministic ranking on QPC.
  AnalyticModel none(SmallCommunity(), RankPromotionConfig::None(),
                     kFastClasses);
  AnalyticModel selective(SmallCommunity(),
                          RankPromotionConfig::Selective(0.1, 1),
                          kFastClasses);
  EXPECT_GT(selective.NormalizedQpc(), none.NormalizedQpc());
}

TEST(AnalyticModelTest, SelectiveBeatsUniformOnTbp) {
  // Fig. 4(b): selective promotion discovers pages faster than uniform at
  // equal r, because the pool contains only zero-awareness pages. This is a
  // default-community phenomenon: in tiny communities even the bottom of the
  // list gets visits and the effect washes out (cf. Fig. 7a).
  const CommunityParams community = CommunityParams::Default();
  AnalyticModel selective(community, RankPromotionConfig::Selective(0.1, 1),
                          kFastClasses);
  AnalyticModel uniform(community, RankPromotionConfig::Uniform(0.1, 1),
                        kFastClasses);
  EXPECT_LT(selective.Tbp(0.4), uniform.Tbp(0.4));
}

TEST(AnalyticModelTest, TbpDecreasesWithR) {
  const CommunityParams community = CommunityParams::Default();
  double prev = std::numeric_limits<double>::infinity();
  for (const double r : {0.05, 0.1, 0.2}) {
    AnalyticModel model(community, RankPromotionConfig::Selective(r, 1),
                        kFastClasses);
    const double tbp = model.Tbp(0.4);
    EXPECT_LT(tbp, prev) << "r=" << r;
    prev = tbp;
  }
}

TEST(AnalyticModelTest, PromotionShiftsAwarenessMassUpward) {
  // Fig. 3: under selective promotion high-quality pages spend most of their
  // lifetime near full awareness; without it, near zero.
  AnalyticModel none(SmallCommunity(), RankPromotionConfig::None(),
                     kFastClasses);
  AnalyticModel sel(SmallCommunity(), RankPromotionConfig::Selective(0.2, 1),
                    kFastClasses);
  const std::vector<double> f_none = none.AwarenessDistributionFor(0.4);
  const std::vector<double> f_sel = sel.AwarenessDistributionFor(0.4);
  const size_t m = f_none.size() - 1;
  double high_none = 0.0;
  double high_sel = 0.0;
  for (size_t i = m / 2; i <= m; ++i) {
    high_none += f_none[i];
    high_sel += f_sel[i];
  }
  EXPECT_GT(high_sel, high_none);
}

TEST(AnalyticModelTest, PopularityTrajectoryMonotone) {
  AnalyticModel model(SmallCommunity(),
                      RankPromotionConfig::Selective(0.2, 1), kFastClasses);
  const std::vector<double> traj = model.PopularityTrajectory(0.4, 300);
  ASSERT_EQ(traj.size(), 301u);
  EXPECT_DOUBLE_EQ(traj[0], 0.0);
  for (size_t t = 1; t < traj.size(); ++t) {
    EXPECT_GE(traj[t], traj[t - 1] - 1e-12);
    EXPECT_LE(traj[t], 0.4 + 1e-12);
  }
}

TEST(AnalyticModelTest, PromotedTrajectoryRisesFaster) {
  // Fig. 4(a) on the default community: the selective curve reaches high
  // popularity while the deterministic curve is still near zero.
  AnalyticModel none(CommunityParams::Default(), RankPromotionConfig::None(),
                     kFastClasses);
  AnalyticModel sel(CommunityParams::Default(),
                    RankPromotionConfig::Selective(0.2, 1), kFastClasses);
  const std::vector<double> t_none = none.PopularityTrajectory(0.4, 300);
  const std::vector<double> t_sel = sel.PopularityTrajectory(0.4, 300);
  EXPECT_GT(t_sel[150], t_none[150] + 0.05);
}

TEST(AnalyticModelTest, KTwoProtectsTopResult) {
  // k = 2 must converge and not crash; its QPC should be within a few
  // percent of k = 1 (only one slot differs).
  AnalyticModel k1(SmallCommunity(), RankPromotionConfig::Selective(0.1, 1),
                   kFastClasses);
  AnalyticModel k2(SmallCommunity(), RankPromotionConfig::Selective(0.1, 2),
                   kFastClasses);
  EXPECT_NEAR(k1.NormalizedQpc(), k2.NormalizedQpc(), 0.15);
}

class AnalyticSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(AnalyticSweepTest, ConvergesAcrossR) {
  const double r = GetParam();
  AnalyticModel model(SmallCommunity(), RankPromotionConfig::Selective(r, 1),
                      kFastClasses);
  const SteadyState& s = model.Solve();
  EXPECT_TRUE(s.converged) << "r=" << r << " residual=" << s.residual;
  EXPECT_GT(model.Qpc(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(RSweep, AnalyticSweepTest,
                         ::testing::Values(0.01, 0.05, 0.1, 0.15, 0.2));

}  // namespace
}  // namespace randrank
