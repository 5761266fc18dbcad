#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace randrank {
namespace {

TEST(RunningStatsTest, EmptyDefaults) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats s;
  s.Add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStatsTest, KnownMoments) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, MergeEqualsSequential) {
  RunningStats a;
  RunningStats b;
  RunningStats all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i * 0.7) * 10.0;
    (i % 2 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a;
  a.Add(1.0);
  a.Add(2.0);
  RunningStats empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2u);
  RunningStats b;
  b.Merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(PercentileTest, MedianAndExtremes) {
  std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100.0), 5.0);
}

TEST(PercentileTest, Interpolates) {
  std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 25.0), 2.5);
}

TEST(PercentileTest, EmptyReturnsNan) {
  EXPECT_TRUE(std::isnan(Percentile({}, 50.0)));
}

TEST(NormalQuantileTest, MatchesKnownValues) {
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(NormalQuantile(0.975), 1.959963985, 1e-6);
  EXPECT_NEAR(NormalQuantile(0.999), 3.090232306, 1e-6);
  EXPECT_NEAR(NormalQuantile(0.001), -3.090232306, 1e-6);
  // Deep-tail region exercises the rational tail branch.
  EXPECT_NEAR(NormalQuantile(1e-6), -4.753424309, 1e-5);
}

TEST(ChiSquaredCriticalTest, MatchesTables) {
  // Wilson-Hilferty is a few percent off at df=1, sub-0.2% by df>=10.
  EXPECT_NEAR(ChiSquaredCritical(1, 0.05), 3.841, 0.15);
  EXPECT_NEAR(ChiSquaredCritical(10, 0.05), 18.307, 0.05);
  EXPECT_NEAR(ChiSquaredCritical(20, 0.01), 37.566, 0.08);
  EXPECT_NEAR(ChiSquaredCritical(10, 0.001), 29.588, 0.25);
}

TEST(TwoSampleChiSquaredTest, IdenticalCountsGiveZero) {
  const std::vector<double> a{10.0, 20.0, 30.0};
  size_t df = 99;
  EXPECT_DOUBLE_EQ(TwoSampleChiSquared(a, a, &df), 0.0);
  EXPECT_EQ(df, 2u);
}

TEST(TwoSampleChiSquaredTest, ProportionalCountsGiveZero) {
  // Unequal sample sizes with identical proportions must not register as
  // different distributions; unequal totals keep the full df (NR "chstwo" —
  // no equal-totals constraint).
  const std::vector<double> a{10.0, 20.0, 30.0};
  const std::vector<double> b{30.0, 60.0, 90.0};
  size_t df = 0;
  EXPECT_NEAR(TwoSampleChiSquared(a, b, &df), 0.0, 1e-12);
  EXPECT_EQ(df, 3u);
}

TEST(TwoSampleChiSquaredTest, SkipsJointlyEmptyCells) {
  const std::vector<double> a{10.0, 0.0, 30.0};
  const std::vector<double> b{12.0, 0.0, 28.0};
  size_t df = 0;
  TwoSampleChiSquared(a, b, &df);
  EXPECT_EQ(df, 1u);
}

TEST(TwoSampleChiSquaredTest, DetectsGrossDifference) {
  const std::vector<double> a{100.0, 0.0};
  const std::vector<double> b{0.0, 100.0};
  size_t df = 0;
  const double stat = TwoSampleChiSquared(a, b, &df);
  EXPECT_GT(stat, ChiSquaredCritical(df, 0.001));
}

TEST(TwoSampleChiSquaredTest, EmptySamplesAreDegenerate) {
  const std::vector<double> zeros{0.0, 0.0};
  size_t df = 99;
  EXPECT_DOUBLE_EQ(TwoSampleChiSquared(zeros, zeros, &df), 0.0);
  EXPECT_EQ(df, 0u);
}

TEST(MergeSparseCellsTest, PoolsAdjacentCellsToMinimumMass) {
  std::vector<double> a{1.0, 2.0, 50.0, 1.0, 1.0, 1.0};
  std::vector<double> b{1.0, 2.0, 50.0, 1.0, 1.0, 1.0};
  MergeSparseCells(&a, &b, 10.0);
  // Cells: [1+2+50 merged across both samples reaches 10 at index 2], then
  // the sparse tail folds into the last emitted cell.
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_GE(a[i] + b[i], 10.0) << "cell " << i;
  }
  double total_a = 0.0;
  for (const double x : a) total_a += x;
  EXPECT_DOUBLE_EQ(total_a, 56.0);  // mass conserved
}

TEST(MergeSparseCellsTest, AllSparseCollapsesToOneCell) {
  std::vector<double> a{1.0, 1.0};
  std::vector<double> b{1.0, 1.0};
  MergeSparseCells(&a, &b, 100.0);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_DOUBLE_EQ(a[0], 2.0);
  EXPECT_DOUBLE_EQ(b[0], 2.0);
}

TEST(GiniCoefficientTest, EvenMassScoresZeroAndConcentrationApproachesOne) {
  EXPECT_DOUBLE_EQ(GiniCoefficient({}), 0.0);
  EXPECT_DOUBLE_EQ(GiniCoefficient({0.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(GiniCoefficient({3.0, 3.0, 3.0, 3.0}), 0.0);
  // All mass on one of n entries: G = (n-1)/n.
  EXPECT_DOUBLE_EQ(GiniCoefficient({0.0, 0.0, 0.0, 7.0}), 0.75);
  // Order must not matter (the function sorts internally).
  EXPECT_DOUBLE_EQ(GiniCoefficient({5.0, 1.0, 2.0}),
                   GiniCoefficient({1.0, 2.0, 5.0}));
  // A known hand-computed case: {1, 3} -> G = 1/4.
  EXPECT_DOUBLE_EQ(GiniCoefficient({1.0, 3.0}), 0.25);
}

TEST(ShannonEntropyBitsTest, UniformHitsLog2AndDegeneratesToZero) {
  EXPECT_DOUBLE_EQ(ShannonEntropyBits({}), 0.0);
  EXPECT_DOUBLE_EQ(ShannonEntropyBits({0.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(ShannonEntropyBits({2.0, 2.0, 2.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(ShannonEntropyBits({9.0}), 0.0);
  // Zero cells contribute nothing: {4, 4, 0} == {4, 4}.
  EXPECT_DOUBLE_EQ(ShannonEntropyBits({4.0, 4.0, 0.0}), 1.0);
  // {3, 1}: H = -(3/4)log2(3/4) - (1/4)log2(1/4).
  const double expected =
      -(0.75 * std::log2(0.75)) - (0.25 * std::log2(0.25));
  EXPECT_NEAR(ShannonEntropyBits({3.0, 1.0}), expected, 1e-12);
}

TEST(MannWhitneyZTest, SeparatedSamplesRejectAndIdenticalDoNot) {
  // a entirely below b: strongly negative z.
  std::vector<double> lo;
  std::vector<double> hi;
  for (int i = 0; i < 30; ++i) {
    lo.push_back(static_cast<double>(i));
    hi.push_back(100.0 + static_cast<double>(i));
  }
  EXPECT_LT(MannWhitneyZ(lo, hi), -5.0);
  EXPECT_GT(MannWhitneyZ(hi, lo), 5.0);
  // Identical samples: z == 0 by symmetry (all ranks shared).
  EXPECT_DOUBLE_EQ(MannWhitneyZ(lo, lo), 0.0);
  // Degenerate cases return 0 instead of NaN.
  EXPECT_DOUBLE_EQ(MannWhitneyZ({}, hi), 0.0);
  EXPECT_DOUBLE_EQ(MannWhitneyZ(lo, {}), 0.0);
  EXPECT_DOUBLE_EQ(MannWhitneyZ({1.0, 1.0}, {1.0, 1.0}), 0.0);
}

TEST(MannWhitneyZTest, CensoredTiesKeepTheTestUsable) {
  // Right-censored durations at a common horizon (the live_ab TTFC shape):
  // the a-arm finishes early, most of the b-arm never finishes and records
  // the censor value. Midranks + tie correction must still separate them.
  const double censor = 50.0;
  std::vector<double> fast{1, 2, 2, 3, 4, 5, 5, 6, 8, censor, censor, 9};
  std::vector<double> slow{censor, censor, censor, censor, censor,
                           censor, censor, censor, 12.0,   censor};
  EXPECT_LT(MannWhitneyZ(fast, slow), -2.5);
}

}  // namespace
}  // namespace randrank
