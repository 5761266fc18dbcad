#include "model/fixed_point.h"

#include <gtest/gtest.h>

#include "harness/presets.h"

namespace randrank {
namespace {

// The shared Section 5.3 loop driven by toy models: each test supplies its
// own refresh/rank_of pair instead of Theorem 1 chains or cohort
// trajectories, so the loop's stopping rule and its reported z are checked
// apart from either model.
struct Toy {
  CommunityParams params = ScaledDown(CommunityParams::Default(), 10);
  QualityClasses classes = QualityClasses::FromCommunity(params, 16);
  size_t refreshes = 0;
  double last_z = -1.0;
  double last_f0 = -1.0;
};

TEST(FixedPointTest, ContractiveToyConvergesAndReturnsTheLastRefreshZ) {
  Toy toy;
  // Ranks fixed in x, and a z that follows F(0): F settles geometrically.
  const FixedPoint fp = SolveFixedPoint(
      toy.params, RankPromotionConfig::Selective(0.1, 1), toy.classes,
      /*per_query_lists=*/false,
      [&toy](const VisitRateCurve& F) {
        ++toy.refreshes;
        toy.last_f0 = F.f0();
        toy.last_z = 20.0 + 1000.0 * F.f0();
        return toy.last_z;
      },
      [](double x) { return 1.0 + 300.0 / (1.0 + 1000.0 * x); });

  EXPECT_TRUE(fp.converged);
  EXPECT_LT(fp.iterations, kFixedPointMaxIterations);
  EXPECT_LT(fp.residual, kFixedPointTolerance);
  // One refresh per round plus the final self-consistent one, under the
  // returned F; z is that last refresh's count, not the damped estimate.
  EXPECT_EQ(toy.refreshes, fp.iterations + 1);
  EXPECT_EQ(toy.last_f0, fp.F.f0());
  EXPECT_EQ(fp.z, toy.last_z);

  // F is tabulated on the log-spaced popularity grid q_min/u .. q_max.
  ASSERT_EQ(fp.F.grid().size(), kFixedPointGridPoints);
  const double x_lo =
      toy.classes.value.back() / static_cast<double>(toy.params.u);
  EXPECT_NEAR(fp.F.x_lo(), x_lo, x_lo * 1e-12);
  EXPECT_NEAR(fp.F.x_hi(), toy.classes.value.front(), 1e-12);
}

TEST(FixedPointTest, ToyThatNeverSettlesStopsAtTheCap) {
  Toy toy;
  // Every refresh flips the whole rank map between the top and the bottom
  // of the list, so F keeps swinging whatever the damping.
  bool top = false;
  const FixedPoint fp = SolveFixedPoint(
      toy.params, RankPromotionConfig::None(), toy.classes,
      /*per_query_lists=*/false,
      [&](const VisitRateCurve& F) {
        ++toy.refreshes;
        top = !top;
        toy.last_z = 50.0 + F.f0();
        return toy.last_z;
      },
      [&](double) { return top ? 1.0 : static_cast<double>(toy.params.n); });

  EXPECT_FALSE(fp.converged);
  EXPECT_EQ(fp.iterations, kFixedPointMaxIterations);
  EXPECT_GE(fp.residual, kFixedPointTolerance);
  EXPECT_EQ(toy.refreshes, kFixedPointMaxIterations + 1);
  EXPECT_EQ(fp.z, toy.last_z);
}

}  // namespace
}  // namespace randrank
