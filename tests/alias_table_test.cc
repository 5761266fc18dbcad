#include "util/alias_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "util/rng.h"
#include "util/stats.h"

namespace randrank {
namespace {

// Builds `table` over `weights` with each entry's id equal to its index, so
// a sampled id is the sampled index.
void BuildWithIndexIds(AliasTable& table, const std::vector<double>& weights) {
  std::vector<uint32_t> ids(weights.size());
  std::iota(ids.begin(), ids.end(), 0u);
  table.Build(weights.data(), ids.data(), weights.size());
}

// Exact structural property: every column's acceptance probability is in
// [0, 1], its own id is its index and its alias id is in range, for any
// weight vector (tables built by BuildWithIndexIds).
void ExpectWellFormed(const AliasTable& table) {
  for (size_t i = 0; i < table.size(); ++i) {
    EXPECT_GE(table.column(i).accept, 0.0) << "column " << i;
    EXPECT_LE(table.column(i).accept, 1.0) << "column " << i;
    EXPECT_EQ(table.column(i).id, i) << "column " << i;
    EXPECT_LT(table.column(i).alias_id, table.size()) << "column " << i;
  }
}

std::vector<double> SampleHistogram(const AliasTable& table, int draws,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<double> counts(table.size(), 0.0);
  for (int t = 0; t < draws; ++t) counts[table.Sample(rng)] += 1.0;
  return counts;
}

// Degenerate case: all-equal weights. Every column must keep its own mass
// (acceptance 1 exactly, up to the construction's arithmetic on equal
// inputs) and draws must be uniform.
TEST(AliasTableTest, AllEqualWeightsSampleUniformly) {
  const size_t n = 16;
  AliasTable table;
  BuildWithIndexIds(table, std::vector<double>(n, 3.25));
  ASSERT_EQ(table.size(), n);
  ExpectWellFormed(table);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(table.column(i).accept, 1.0) << "column " << i;
  }

  const int kDraws = 64000;
  const std::vector<double> counts = SampleHistogram(table, kDraws, 11);
  std::vector<double> expected(n, static_cast<double>(kDraws) / n);
  size_t df = 0;
  const double chi2 = TwoSampleChiSquared(counts, expected, &df);
  EXPECT_LE(chi2, ChiSquaredCritical(df, 0.001));
}

// Degenerate case: one weight dominating by many orders of magnitude. The
// dominant index must absorb essentially all draws, and the starved columns
// must still alias into range (this is the regime where naive alias
// constructions leave dangling aliases).
TEST(AliasTableTest, OneDominantWeightAbsorbsTheMass) {
  const size_t n = 8;
  std::vector<double> weights(n, 1e-12);
  weights[3] = 1.0;
  AliasTable table;
  BuildWithIndexIds(table, weights);
  ExpectWellFormed(table);

  const int kDraws = 20000;
  const std::vector<double> counts = SampleHistogram(table, kDraws, 12);
  EXPECT_GT(counts[3], 0.999 * kDraws);
}

// Degenerate case: n = 1 must always return index 0, and n = 0 must build
// an empty (unusable but valid) table.
TEST(AliasTableTest, SingleElementAlwaysSampled) {
  AliasTable table;
  BuildWithIndexIds(table, std::vector<double>{0.7});
  ASSERT_EQ(table.size(), 1u);
  ExpectWellFormed(table);
  Rng rng(13);
  for (int t = 0; t < 100; ++t) EXPECT_EQ(table.Sample(rng), 0u);

  AliasTable empty;
  empty.Build(nullptr, nullptr, 0);
  EXPECT_TRUE(empty.empty());
}

// Zero-weight entries are legal as long as one weight is positive: they
// must never be sampled.
TEST(AliasTableTest, ZeroWeightEntriesAreNeverSampled) {
  AliasTable table;
  BuildWithIndexIds(table, std::vector<double>{0.0, 2.0, 0.0, 1.0});
  ExpectWellFormed(table);
  Rng rng(14);
  for (int t = 0; t < 2000; ++t) {
    const size_t idx = table.Sample(rng);
    EXPECT_TRUE(idx == 1 || idx == 3) << idx;
  }
}

// General-position check against the exact distribution: chi-squared of a
// geometric weight ladder (the softmax-over-scores shape the Plackett-Luce
// epoch state builds).
TEST(AliasTableTest, GeometricLadderMatchesExactProbabilities) {
  const size_t n = 12;
  std::vector<double> weights(n);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    weights[i] = std::pow(0.7, static_cast<double>(i));
    sum += weights[i];
  }
  AliasTable table;
  BuildWithIndexIds(table, weights);
  ExpectWellFormed(table);

  const int kDraws = 120000;
  const std::vector<double> counts = SampleHistogram(table, kDraws, 15);
  std::vector<double> expected(n);
  for (size_t i = 0; i < n; ++i) expected[i] = kDraws * weights[i] / sum;
  size_t df = 0;
  const double chi2 = TwoSampleChiSquared(counts, expected, &df);
  EXPECT_LE(chi2, ChiSquaredCritical(df, 0.001));
}

// Ids are what a draw returns: with the ids a permutation of 0..n-1, id
// ids[i] must come up in proportion to weights[i]. Column i carries ids[i]
// and its alias column's id.
TEST(AliasTableTest, SampledIdsFollowTheirEntriesWeights) {
  const size_t n = 12;
  std::vector<double> weights(n);
  for (size_t i = 0; i < n; ++i) {
    weights[i] = std::pow(0.7, static_cast<double>(i));
  }
  std::vector<uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  Rng shuffle(17);
  for (size_t i = n - 1; i > 0; --i) {
    std::swap(ids[i], ids[shuffle.NextIndex(i + 1)]);
  }
  AliasTable table;
  table.Build(weights.data(), ids.data(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(table.column(i).id, ids[i]) << "column " << i;
    EXPECT_NE(std::find(ids.begin(), ids.end(), table.column(i).alias_id),
              ids.end())
        << "column " << i;
  }

  const int kDraws = 120000;
  const std::vector<double> counts = SampleHistogram(table, kDraws, 16);
  double sum = 0.0;
  for (const double w : weights) sum += w;
  std::vector<double> expected(n);
  for (size_t i = 0; i < n; ++i) expected[ids[i]] = kDraws * weights[i] / sum;
  size_t df = 0;
  const double chi2 = TwoSampleChiSquared(counts, expected, &df);
  EXPECT_LE(chi2, ChiSquaredCritical(df, 0.001));
}

// Lookahead advances its Rng exactly as Sample does: after k Lookahead calls
// on a copy and k Sample calls on the original, the two streams are in the
// same state.
TEST(AliasTableTest, LookaheadAdvancesTheRngExactlyAsSample) {
  std::vector<double> weights(1000);
  for (size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 1.0 + static_cast<double>(i % 7);
  }
  AliasTable table;
  BuildWithIndexIds(table, weights);
  for (const size_t k : {0, 1, 2, 8, 1000}) {
    Rng rng(18 + k);
    Rng ahead = rng;
    for (size_t j = 0; j < k; ++j) table.Lookahead(ahead);
    for (size_t j = 0; j < k; ++j) (void)table.Sample(rng);
    EXPECT_EQ(ahead(), rng()) << "after " << k << " steps";
  }
}

}  // namespace
}  // namespace randrank
