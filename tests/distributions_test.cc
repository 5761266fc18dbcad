#include "util/distributions.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.h"

namespace randrank {
namespace {

TEST(PowerLawQuantilesTest, TopValueIsMax) {
  PowerLawQuantiles q(2.1, 0.4);
  EXPECT_DOUBLE_EQ(q.Value(0, 100), 0.4);
}

TEST(PowerLawQuantilesTest, Decreasing) {
  PowerLawQuantiles q(2.1, 0.4);
  const std::vector<double> values = q.Values(1000);
  for (size_t i = 1; i < values.size(); ++i) {
    EXPECT_LT(values[i], values[i - 1]);
  }
}

TEST(PowerLawQuantilesTest, TailExponentMatches) {
  // value(i) ~ i^{-1/(a-1)}; check the log-log slope between far apart ranks.
  PowerLawQuantiles q(2.1, 0.4);
  const double v10 = q.Value(9, 100000);
  const double v1000 = q.Value(999, 100000);
  const double slope = (std::log(v1000) - std::log(v10)) /
                       (std::log(1000.0) - std::log(10.0));
  EXPECT_NEAR(slope, -1.0 / 1.1, 1e-9);
}

TEST(PowerLawQuantilesTest, AllPositive) {
  PowerLawQuantiles q(2.1, 0.4);
  for (const double v : q.Values(10000)) EXPECT_GT(v, 0.0);
}

TEST(RankBiasSamplerTest, PmfSumsToOne) {
  RankBiasSampler sampler(1000);
  double total = 0.0;
  for (size_t i = 1; i <= 1000; ++i) total += sampler.Pmf(i);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(RankBiasSamplerTest, FollowsPowerLaw) {
  RankBiasSampler sampler(1000);
  // Pmf(i) proportional to i^{-3/2}: check ratio between ranks 1 and 4 is 8.
  EXPECT_NEAR(sampler.Pmf(1) / sampler.Pmf(4), 8.0, 1e-9);
}

TEST(RankBiasSamplerTest, SamplesConcentrateOnTop) {
  RankBiasSampler sampler(10000);
  Rng rng(79);
  int top10 = 0;
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) top10 += sampler.Sample(rng) <= 10;
  // P(rank <= 10) = sum_{1..10} i^-1.5 / sum_{1..10000} i^-1.5 ~ 0.78.
  double expected = 0.0;
  for (size_t i = 1; i <= 10; ++i) expected += sampler.Pmf(i);
  EXPECT_NEAR(static_cast<double>(top10) / kDraws, expected, 0.01);
}

TEST(RankBiasSamplerTest, ThetaNormalizes) {
  RankBiasSampler sampler(100);
  double total = 0.0;
  for (size_t i = 1; i <= 100; ++i) {
    total += sampler.theta() * std::pow(static_cast<double>(i), -1.5);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(RankBiasSamplerTest, CustomExponent) {
  RankBiasSampler sampler(100, 2.0);
  EXPECT_NEAR(sampler.Pmf(1) / sampler.Pmf(2), 4.0, 1e-9);
}

TEST(RankBiasSamplerTest, SampleWithinRange) {
  RankBiasSampler sampler(17);
  Rng rng(83);
  for (int i = 0; i < 10000; ++i) {
    const size_t rank = sampler.Sample(rng);
    EXPECT_GE(rank, 1u);
    EXPECT_LE(rank, 17u);
  }
}

}  // namespace
}  // namespace randrank
