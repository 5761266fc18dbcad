#include "sim/mean_field.h"

#include <gtest/gtest.h>

#include <cmath>

#include "harness/presets.h"
#include "model/analytic_model.h"

namespace randrank {
namespace {

MeanFieldOptions FastOptions() {
  MeanFieldOptions o;
  o.max_classes = 512;
  o.trajectory_points = 200;
  return o;
}

TEST(MeanFieldTest, Converges) {
  MeanFieldModel model(CommunityParams::Default(),
                       RankPromotionConfig::None(), FastOptions());
  const MeanFieldState& s = model.Solve();
  EXPECT_TRUE(s.converged) << "residual " << s.residual;
}

TEST(MeanFieldTest, UndiscoveredPlusDiscoveredEqualsN) {
  MeanFieldModel model(CommunityParams::Default(),
                       RankPromotionConfig::Selective(0.1, 1), FastOptions());
  const MeanFieldState& s = model.Solve();
  // Z_c + F(0) Z_c / lambda = count_c per class (mass conservation).
  const double lambda = model.params().lambda();
  for (size_t c = 0; c < s.classes.size(); ++c) {
    const double discovered = s.F.f0() * s.zero_mass[c] / lambda;
    EXPECT_NEAR(s.zero_mass[c] + discovered, s.classes.count[c],
                s.classes.count[c] * 1e-9);
  }
}

TEST(MeanFieldTest, TrajectoriesMonotone) {
  MeanFieldModel model(CommunityParams::Default(),
                       RankPromotionConfig::Selective(0.1, 1), FastOptions());
  const MeanFieldState& s = model.Solve();
  for (const auto& a : s.awareness) {
    for (size_t j = 1; j < a.size(); ++j) {
      EXPECT_GE(a[j], a[j - 1] - 1e-12);
      EXPECT_LE(a[j], 1.0 + 1e-12);
    }
  }
}

TEST(MeanFieldTest, QpcBounds) {
  MeanFieldModel model(CommunityParams::Default(),
                       RankPromotionConfig::None(), FastOptions());
  EXPECT_GT(model.Qpc(), 0.0);
  EXPECT_LE(model.Qpc(), 0.4);
  EXPECT_LE(model.NormalizedQpc(), 1.0 + 1e-9);
}

TEST(MeanFieldTest, SelectivePromotionImprovesQpc) {
  MeanFieldModel none(CommunityParams::Default(),
                      RankPromotionConfig::None(), FastOptions());
  MeanFieldModel sel(CommunityParams::Default(),
                     RankPromotionConfig::Selective(0.1, 1), FastOptions());
  EXPECT_GT(sel.NormalizedQpc(), none.NormalizedQpc());
}

TEST(MeanFieldTest, TbpDecreasesWithR) {
  double prev = std::numeric_limits<double>::infinity();
  for (const double r : {0.05, 0.1, 0.2}) {
    MeanFieldModel model(CommunityParams::Default(),
                         RankPromotionConfig::Selective(r, 1), FastOptions());
    const double tbp = model.Tbp(0.4);
    EXPECT_LT(tbp, prev) << "r=" << r;
    prev = tbp;
  }
}

TEST(MeanFieldTest, ScalesToMillionPages) {
  MeanFieldModel model(CommunityOfSize(1000000),
                       RankPromotionConfig::Selective(0.1, 1), FastOptions());
  const MeanFieldState& s = model.Solve();
  EXPECT_TRUE(s.converged);
  EXPECT_GT(model.NormalizedQpc(), 0.0);
}

TEST(MeanFieldTest, PerQueryListsDiscoverFasterAtScale) {
  // Fig. 7a regime: per-query merges avoid the one-discovery-per-slot-day
  // saturation, keeping promoted QPC high at large n.
  MeanFieldOptions per_day = FastOptions();
  MeanFieldOptions per_query = FastOptions();
  per_query.per_query_lists = true;
  MeanFieldModel day(CommunityOfSize(100000),
                     RankPromotionConfig::Selective(0.1, 1), per_day);
  MeanFieldModel query(CommunityOfSize(100000),
                       RankPromotionConfig::Selective(0.1, 1), per_query);
  EXPECT_GT(query.NormalizedQpc(), day.NormalizedQpc());
  EXPECT_LT(query.Tbp(0.4), day.Tbp(0.4));
}

TEST(MeanFieldTest, PerQueryNeverWorseAndCoincidesAtLightTraffic) {
  // Per-query merges can only speed discovery up. The regimes coincide when
  // traffic is so light that no slot expects >= 1 visit/day (vu ~ 5 over
  // n = 10^4); the gap peaks at mid traffic where per-day saturation binds
  // while per-query discovery keeps up with churn.
  double light_gap = 0.0;
  for (const double vu : {1000.0, 100.0, 5.0}) {
    CommunityParams p = CommunityParams::Default();
    p.visits_per_day = vu;
    MeanFieldOptions per_query = FastOptions();
    per_query.per_query_lists = true;
    MeanFieldModel day(p, RankPromotionConfig::Selective(0.1, 1),
                       FastOptions());
    MeanFieldModel query(p, RankPromotionConfig::Selective(0.1, 1),
                         per_query);
    EXPECT_GT(query.NormalizedQpc(), day.NormalizedQpc() - 0.01)
        << "vu=" << vu;
    if (vu == 5.0) {
      light_gap = std::fabs(day.NormalizedQpc() - query.NormalizedQpc());
    }
  }
  EXPECT_LT(light_gap, 0.05);
}

TEST(MeanFieldTest, AgreesWithAnalyticOnDefaultCommunity) {
  // Independent derivations of the same steady state should land close on
  // normalized QPC for the deterministic baseline.
  MeanFieldModel mf(CommunityParams::Default(), RankPromotionConfig::None(),
                    FastOptions());
  AnalyticModel an(CommunityParams::Default(), RankPromotionConfig::None(),
                   512);
  EXPECT_NEAR(mf.NormalizedQpc(), an.NormalizedQpc(), 0.15);
}

}  // namespace
}  // namespace randrank
