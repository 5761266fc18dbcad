#include "util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace randrank {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a() == b();
  EXPECT_LT(equal, 3);
}

TEST(RngTest, ZeroSeedIsUsable) {
  Rng rng(0);
  std::set<uint64_t> seen;
  for (int i = 0; i < 64; ++i) seen.insert(rng());
  EXPECT_GT(seen.size(), 60u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / kDraws, 0.5, 0.005);
}

TEST(RngTest, NextIndexRespectsBound) {
  Rng rng(13);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextIndex(bound), bound);
  }
}

TEST(RngTest, NextIndexUniform) {
  Rng rng(17);
  std::vector<int> counts(10, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextIndex(10)];
  for (const int c : counts) EXPECT_NEAR(c, kDraws / 10, kDraws / 10 * 0.1);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) hits += rng.NextBernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(31);
  double sum = 0.0;
  const int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) sum += rng.NextExponential(2.0);
  EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
}

TEST(RngTest, PoissonSmallMean) {
  Rng rng(37);
  double sum = 0.0;
  const int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    sum += static_cast<double>(rng.NextPoisson(3.5));
  }
  EXPECT_NEAR(sum / kDraws, 3.5, 0.05);
}

TEST(RngTest, PoissonLargeMeanUsesNormalApprox) {
  Rng rng(41);
  double sum = 0.0;
  const int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    sum += static_cast<double>(rng.NextPoisson(200.0));
  }
  EXPECT_NEAR(sum / kDraws, 200.0, 1.0);
}

TEST(RngTest, PoissonZeroMean) {
  Rng rng(43);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextPoisson(0.0), 0u);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(47);
  double sum = 0.0;
  double sq = 0.0;
  const int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.01);
  EXPECT_NEAR(sq / kDraws, 1.0, 0.02);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(53);
  Rng b = a.Fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a() == b();
  EXPECT_LT(equal, 3);
}

TEST(RngTest, SatisfiesUniformRandomBitGenerator) {
  static_assert(Rng::min() == 0);
  static_assert(Rng::max() == ~0ULL);
  Rng rng(59);
  std::vector<int> v{1, 2, 3, 4, 5};
  // Compiles and runs with <random>-style usage.
  std::shuffle(v.begin(), v.end(), rng);
  EXPECT_EQ(v.size(), 5u);
}

}  // namespace
}  // namespace randrank
