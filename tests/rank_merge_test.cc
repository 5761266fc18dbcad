#include "core/rank_merge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>
#include <set>
#include <vector>

#include "core/policy/promotion_policy.h"
#include "core/ranking_policy.h"
#include "util/rng.h"

namespace randrank {
namespace {

struct Fixture {
  std::vector<double> popularity;
  std::vector<uint8_t> zero;
  std::vector<int64_t> birth;

  explicit Fixture(size_t n, size_t zeros, uint64_t seed = 5) {
    Rng rng(seed);
    popularity.resize(n);
    zero.resize(n);
    birth.resize(n);
    for (size_t i = 0; i < n; ++i) {
      if (i < zeros) {
        popularity[i] = 0.0;
        zero[i] = 1;
      } else {
        popularity[i] = rng.NextDouble() * 0.4 + 1e-6;
        zero[i] = 0;
      }
      birth[i] = static_cast<int64_t>(i);
    }
  }
};

bool IsPermutation(const std::vector<uint32_t>& list, size_t n) {
  if (list.size() != n) return false;
  std::set<uint32_t> seen(list.begin(), list.end());
  return seen.size() == n && *seen.begin() == 0 && *seen.rbegin() == n - 1;
}

TEST(RankMergeTest, NoneRuleSortsByPopularityDescending) {
  Fixture fx(100, 10);
  Ranker ranker(MakePromotionPolicy(RankPromotionConfig::None()));
  Rng rng(1);
  ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
  const std::vector<uint32_t> list = ranker.MaterializeList(rng);
  ASSERT_TRUE(IsPermutation(list, 100));
  for (size_t i = 1; i < list.size(); ++i) {
    EXPECT_GE(fx.popularity[list[i - 1]], fx.popularity[list[i]]);
  }
}

TEST(RankMergeTest, NoneRuleTieBreaksByAge) {
  std::vector<double> pop{0.0, 0.0, 0.0};
  std::vector<uint8_t> zero{1, 1, 1};
  std::vector<int64_t> birth{5, 1, 3};
  Ranker ranker(MakePromotionPolicy(RankPromotionConfig::None()));
  Rng rng(2);
  ranker.Update(pop, zero, birth, rng);
  const std::vector<uint32_t> list = ranker.MaterializeList(rng);
  EXPECT_EQ(list, (std::vector<uint32_t>{1, 2, 0}));
}

// The packed-key sort must give exactly the order of an indirect id sort
// under RankOrderBefore, on input in any order and with ties at both
// levels of the key, and must carry each page's own popularity. Each case
// draws every page's score and birth; `det` is a shuffled subset whose
// sizes straddle powers of two (std::sort switches to insertion sort at 16).
TEST(RankMergeTest, SortByRankOrderMatchesIndirectSort) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr int64_t kSpan = int64_t{1} << 32;  // births span less than this
  // Far below 0 and not a multiple of 2^32, so an offset taken from 0
  // rather than from the earliest birth wraps inside the span.
  constexpr int64_t kOldest = -(int64_t{1} << 40) - 12345;
  const std::vector<double> signed_zeros{0.0, -0.0, 0.25, -0.25};
  const std::vector<double> extremes{
      -kInf, std::numeric_limits<double>::lowest(), -1e300, -3.5, -1.0,
      -std::numeric_limits<double>::denorm_min(), -0.0, 0.0,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(), 1.0, 1e300,
      std::numeric_limits<double>::max(), kInf};
  struct Case {
    const char* name;
    std::function<double(Rng&)> score;
    std::function<int64_t(Rng&)> birth;
    bool whole_span = false;  // det holds a birth at each end of the span
  };
  const std::vector<Case> cases = {
      {"tied levels",
       [](Rng& r) { return 0.1 * static_cast<double>(r.NextIndex(5)); },
       [](Rng& r) { return static_cast<int64_t>(r.NextIndex(40)) - 20; }},
      {"signed zeros",
       [&](Rng& r) { return signed_zeros[r.NextIndex(signed_zeros.size())]; },
       [](Rng& r) { return static_cast<int64_t>(r.NextIndex(8)); }},
      {"negative and infinite",
       [&](Rng& r) { return extremes[r.NextIndex(extremes.size())]; },
       [](Rng& r) { return static_cast<int64_t>(r.NextIndex(4)); }},
      // JokeSite's shape: vote counts above 1, many pages per count.
      {"vote counts",
       [](Rng& r) { return static_cast<double>(r.NextIndex(60)); },
       [](Rng& r) { return static_cast<int64_t>(r.NextIndex(30)); }},
      {"widest birth span",
       [](Rng& r) { return 0.5 * static_cast<double>(r.NextIndex(2)); },
       [](Rng& r) {
         const int64_t offsets[] = {0, 1, kSpan / 2, kSpan - 2, kSpan - 1};
         return kOldest + offsets[r.NextIndex(5)];
       },
       true},
  };
  Rng rng(17);
  for (const Case& c : cases) {
    for (const size_t size : {0, 1, 2, 15, 16, 17, 31, 32, 33, 1023, 1024,
                              1025, 4095, 4096, 4097}) {
      const size_t n = 2 * size + 3;
      std::vector<double> pop(n);
      std::vector<int64_t> birth(n);
      for (size_t p = 0; p < n; ++p) {
        pop[p] = c.score(rng);
        birth[p] = c.birth(rng);
      }
      std::vector<uint32_t> det(n);
      std::iota(det.begin(), det.end(), 0u);
      for (size_t i = n; i > 1; --i) {
        std::swap(det[i - 1], det[rng.NextIndex(i)]);
      }
      det.resize(size);
      if (c.whole_span && size >= 2) {
        birth[det[0]] = kOldest;
        birth[det[1]] = kOldest + kSpan - 1;
      }
      std::vector<uint32_t> expected = det;
      std::sort(expected.begin(), expected.end(),
                [&](uint32_t a, uint32_t b) {
                  return RankOrderBefore(pop[a], birth[a], a, pop[b],
                                         birth[b], b);
                });

      std::vector<double> det_score{1.0, 2.0};  // stale content is replaced
      SortByRankOrder(pop, birth, &det, &det_score);
      ASSERT_EQ(det, expected) << c.name << ", " << size << " pages";
      ASSERT_EQ(det_score.size(), det.size());
      for (size_t i = 0; i < det.size(); ++i) {
        ASSERT_EQ(det_score[i], pop[det[i]])
            << c.name << ", " << size << " pages, slot " << i;
      }
    }
  }
}

TEST(RankMergeTest, SelectivePoolIsExactlyZeroAwareness) {
  Fixture fx(200, 37);
  Ranker ranker(MakePromotionPolicy(RankPromotionConfig::Selective(0.2, 1)));
  Rng rng(3);
  ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
  EXPECT_EQ(ranker.pool().size(), 37u);
  for (const uint32_t p : ranker.pool()) EXPECT_TRUE(fx.zero[p]);
  for (const uint32_t p : ranker.deterministic_order()) {
    EXPECT_FALSE(fx.zero[p]);
  }
}

TEST(RankMergeTest, MaterializedListIsPermutation) {
  Fixture fx(500, 80);
  for (const auto& config :
       {RankPromotionConfig::None(), RankPromotionConfig::Uniform(0.3, 2),
        RankPromotionConfig::Selective(0.15, 4),
        RankPromotionConfig::Selective(1.0, 21)}) {
    Ranker ranker(MakePromotionPolicy(config));
    Rng rng(4);
    ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
    EXPECT_TRUE(IsPermutation(ranker.MaterializeList(rng), 500))
        << config.Label();
  }
}

TEST(RankMergeTest, TopKMinusOneProtected) {
  Fixture fx(300, 50);
  const size_t k = 6;
  Ranker deterministic(MakePromotionPolicy(RankPromotionConfig::None()));
  Ranker promoted(MakePromotionPolicy(RankPromotionConfig::Selective(0.9, k)));
  Rng rng_a(5);
  Rng rng_b(5);
  deterministic.Update(fx.popularity, fx.zero, fx.birth, rng_a);
  promoted.Update(fx.popularity, fx.zero, fx.birth, rng_b);
  const std::vector<uint32_t> base = deterministic.MaterializeList(rng_a);
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<uint32_t> list = promoted.MaterializeList(rng_b);
    for (size_t i = 0; i < k - 1; ++i) {
      EXPECT_EQ(list[i], base[i]) << "position " << i;
    }
  }
}

TEST(RankMergeTest, RZeroSelectiveEqualsDeterministicOrderOfNonZeroPages) {
  // With r = 0 no pool page is ever taken before Ld empties, so promoted
  // pages land at the bottom -- identical to deterministic ranking with ties.
  Fixture fx(100, 20);
  Ranker ranker(MakePromotionPolicy(RankPromotionConfig::Selective(0.0, 1)));
  Rng rng(6);
  ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
  const std::vector<uint32_t> list = ranker.MaterializeList(rng);
  ASSERT_TRUE(IsPermutation(list, 100));
  for (size_t i = 0; i < 80; ++i) EXPECT_FALSE(fx.zero[list[i]]);
  for (size_t i = 80; i < 100; ++i) EXPECT_TRUE(fx.zero[list[i]]);
}

TEST(RankMergeTest, FixedPositionPlacesPoolContiguously) {
  // Appendix A: selective r=1, k=21 puts all pool items at ranks 21..20+z.
  Fixture fx(100, 15);
  Ranker ranker(MakePromotionPolicy(RankPromotionConfig::FixedPosition(21)));
  Rng rng(7);
  ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
  const std::vector<uint32_t> list = ranker.MaterializeList(rng);
  for (size_t i = 0; i < 20; ++i) EXPECT_FALSE(fx.zero[list[i]]);
  for (size_t i = 20; i < 35; ++i) EXPECT_TRUE(fx.zero[list[i]]);
  for (size_t i = 35; i < 100; ++i) EXPECT_FALSE(fx.zero[list[i]]);
}

TEST(RankMergeTest, PoolOrderIsShuffledAcrossRealizations) {
  Fixture fx(60, 30);
  Ranker ranker(MakePromotionPolicy(RankPromotionConfig::FixedPosition(1)));
  Rng rng(8);
  ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
  const std::vector<uint32_t> a = ranker.MaterializeList(rng);
  const std::vector<uint32_t> b = ranker.MaterializeList(rng);
  EXPECT_NE(a, b);  // 30! orderings; collision is negligible
}

TEST(RankMergeTest, UniformPoolMembershipFrequency) {
  Fixture fx(2000, 0);
  Ranker ranker(MakePromotionPolicy(RankPromotionConfig::Uniform(0.25, 1)));
  Rng rng(9);
  double pool_total = 0.0;
  const int kTrials = 200;
  for (int t = 0; t < kTrials; ++t) {
    ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
    pool_total += static_cast<double>(ranker.pool().size());
  }
  EXPECT_NEAR(pool_total / kTrials / 2000.0, 0.25, 0.01);
}

TEST(RankMergeTest, PageAtRankMatchesMaterializedMarginals) {
  // The lazy resolver must produce the same rank-occupancy distribution as
  // full materialization. Compare the frequency that pool pages occupy a
  // given rank under both methods.
  Fixture fx(50, 10);
  const auto policy =
      MakePromotionPolicy(RankPromotionConfig::Selective(0.3, 2));
  Ranker ranker(policy);
  Rng rng(10);
  ranker.Update(fx.popularity, fx.zero, fx.birth, rng);

  const size_t kRank = 5;
  const int kTrials = 40000;
  int lazy_pool_hits = 0;
  int full_pool_hits = 0;
  for (int t = 0; t < kTrials; ++t) {
    const uint32_t lazy = policy->PageAtRank(ranker.view(), kRank, rng);
    lazy_pool_hits += fx.zero[lazy];
    const std::vector<uint32_t> list = ranker.MaterializeList(rng);
    full_pool_hits += fx.zero[list[kRank - 1]];
  }
  EXPECT_NEAR(static_cast<double>(lazy_pool_hits) / kTrials,
              static_cast<double>(full_pool_hits) / kTrials, 0.015);
}

TEST(RankMergeTest, PageAtRankUniformOverPool) {
  Fixture fx(40, 8);
  const auto policy =
      MakePromotionPolicy(RankPromotionConfig::FixedPosition(1));
  Ranker ranker(policy);
  Rng rng(11);
  ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
  // With r=1,k=1 rank 1 is always a pool page, uniform across the pool.
  std::vector<int> counts(40, 0);
  const int kTrials = 80000;
  for (int t = 0; t < kTrials; ++t) {
    ++counts[policy->PageAtRank(ranker.view(), 1, rng)];
  }
  for (uint32_t p = 0; p < 40; ++p) {
    if (fx.zero[p]) {
      EXPECT_NEAR(static_cast<double>(counts[p]) / kTrials, 1.0 / 8.0, 0.01);
    } else {
      EXPECT_EQ(counts[p], 0);
    }
  }
}

TEST(RankMergeTest, PageAtRankDeterministicTail) {
  // Beyond pool exhaustion the tail is the deterministic order.
  Fixture fx(30, 2);
  const auto policy =
      MakePromotionPolicy(RankPromotionConfig::Selective(1.0, 1));
  Ranker ranker(policy);
  Rng rng(12);
  ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
  // Ranks 1..2 are the pool; rank 3.. are det order.
  for (size_t rank = 3; rank <= 30; ++rank) {
    EXPECT_EQ(policy->PageAtRank(ranker.view(), rank, rng),
              ranker.deterministic_order()[rank - 3]);
  }
}

TEST(RankMergeTest, EmptyPoolFallsBackToDeterministic) {
  Fixture fx(25, 0);
  const auto policy =
      MakePromotionPolicy(RankPromotionConfig::Selective(0.5, 1));
  Ranker ranker(policy);
  Rng rng(13);
  ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
  EXPECT_TRUE(ranker.pool().empty());
  const std::vector<uint32_t> list = ranker.MaterializeList(rng);
  for (size_t rank = 1; rank <= 25; ++rank) {
    EXPECT_EQ(policy->PageAtRank(ranker.view(), rank, rng), list[rank - 1]);
  }
}

TEST(RankMergeTest, AllPagesInPool) {
  Fixture fx(25, 25);
  Ranker ranker(MakePromotionPolicy(RankPromotionConfig::Selective(0.4, 3)));
  Rng rng(14);
  ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
  EXPECT_EQ(ranker.pool().size(), 25u);
  EXPECT_TRUE(IsPermutation(ranker.MaterializeList(rng), 25));
}

TEST(RankMergeTest, MaterializeWithPositionsConsistent) {
  Fixture fx(120, 30);
  const auto policy =
      MakePromotionPolicy(RankPromotionConfig::Selective(0.25, 2));
  Ranker ranker(policy);
  Rng rng(15);
  ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
  std::vector<uint32_t> det_pos;
  std::vector<uint32_t> pool_pos;
  const std::vector<uint32_t> list =
      policy->MaterializeWithPositions(ranker.view(), rng, &det_pos,
                                       &pool_pos);
  ASSERT_EQ(det_pos.size(), ranker.deterministic_order().size());
  ASSERT_EQ(pool_pos.size(), ranker.pool().size());
  for (size_t j = 0; j < det_pos.size(); ++j) {
    EXPECT_EQ(list[det_pos[j]], ranker.deterministic_order()[j]);
  }
  std::set<uint32_t> pool_pages(ranker.pool().begin(), ranker.pool().end());
  for (const uint32_t pos : pool_pos) {
    EXPECT_TRUE(pool_pages.count(list[pos]));
  }
}

// Property test for the lazy path: over many realizations, the page
// occupying each probed rank under PageAtRank must match the frequency
// observed from full MaterializeList realizations — per page, not just
// pool-vs-det — for both promotion rules and k in {1, 2}.
class LazyMarginalsTest
    : public ::testing::TestWithParam<std::tuple<PromotionRule, size_t>> {};

TEST_P(LazyMarginalsTest, PageAtRankMatchesMaterializeFrequencies) {
  const auto [rule, k] = GetParam();
  const size_t n = 36;
  const size_t zeros = 9;
  Fixture fx(n, zeros, /*seed=*/123 + k);
  const RankPromotionConfig config =
      rule == PromotionRule::kUniform ? RankPromotionConfig::Uniform(0.3, k)
                                      : RankPromotionConfig::Selective(0.3, k);
  const auto policy = MakePromotionPolicy(config);
  Ranker ranker(policy);
  Rng rng(200 + k);
  // One Update fixes the pool (the uniform rule re-samples membership per
  // Update, so marginals are compared over a single fixed pool).
  ranker.Update(fx.popularity, fx.zero, fx.birth, rng);

  const int kTrials = 25000;
  const std::vector<size_t> probe_ranks = {1, 2, 3, 5, 9, n};
  // lazy_freq[r][p] / full_freq[r][p]: occupancy counts per probed rank.
  std::vector<std::vector<int>> lazy_freq(probe_ranks.size(),
                                          std::vector<int>(n, 0));
  std::vector<std::vector<int>> full_freq = lazy_freq;
  for (int t = 0; t < kTrials; ++t) {
    for (size_t i = 0; i < probe_ranks.size(); ++i) {
      ++lazy_freq[i][policy->PageAtRank(ranker.view(), probe_ranks[i], rng)];
    }
    const std::vector<uint32_t> list = ranker.MaterializeList(rng);
    for (size_t i = 0; i < probe_ranks.size(); ++i) {
      ++full_freq[i][list[probe_ranks[i] - 1]];
    }
  }
  for (size_t i = 0; i < probe_ranks.size(); ++i) {
    for (uint32_t p = 0; p < n; ++p) {
      EXPECT_NEAR(static_cast<double>(lazy_freq[i][p]) / kTrials,
                  static_cast<double>(full_freq[i][p]) / kTrials, 0.02)
          << config.Label() << " rank " << probe_ranks[i] << " page " << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rules, LazyMarginalsTest,
    ::testing::Combine(::testing::Values(PromotionRule::kUniform,
                                         PromotionRule::kSelective),
                       ::testing::Values<size_t>(1, 2)));

TEST(RankMergeTest, TopMFullLengthIsPermutation) {
  Fixture fx(200, 40);
  Ranker ranker(MakePromotionPolicy(RankPromotionConfig::Selective(0.3, 2)));
  Rng rng(51);
  ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
  EXPECT_TRUE(IsPermutation(ranker.TopM(200, rng), 200));
  // Asking for more than n caps at n.
  EXPECT_TRUE(IsPermutation(ranker.TopM(10000, rng), 200));
  EXPECT_TRUE(ranker.TopM(0, rng).empty());
}

TEST(RankMergeTest, TopMPrefixHasNoDuplicates) {
  Fixture fx(150, 50);
  Ranker ranker(MakePromotionPolicy(RankPromotionConfig::Selective(0.8, 1)));
  Rng rng(52);
  ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<uint32_t> top = ranker.TopM(25, rng);
    ASSERT_EQ(top.size(), 25u);
    const std::set<uint32_t> seen(top.begin(), top.end());
    ASSERT_EQ(seen.size(), top.size()) << "pool draw repeated a page";
  }
}

TEST(RankMergeTest, TopMMarginalsMatchMaterializePrefix) {
  // O(m) prefix realization must be distributed exactly as the first m slots
  // of a full materialization.
  Fixture fx(50, 10);
  Ranker ranker(MakePromotionPolicy(RankPromotionConfig::Selective(0.3, 2)));
  Rng rng(53);
  ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
  const size_t m = 8;
  const int kTrials = 30000;
  std::vector<double> top_pool_freq(m, 0.0);
  std::vector<double> full_pool_freq(m, 0.0);
  for (int t = 0; t < kTrials; ++t) {
    const std::vector<uint32_t> top = ranker.TopM(m, rng);
    const std::vector<uint32_t> list = ranker.MaterializeList(rng);
    for (size_t j = 0; j < m; ++j) {
      top_pool_freq[j] += fx.zero[top[j]];
      full_pool_freq[j] += fx.zero[list[j]];
    }
  }
  for (size_t j = 0; j < m; ++j) {
    EXPECT_NEAR(top_pool_freq[j] / kTrials, full_pool_freq[j] / kTrials, 0.015)
        << "rank " << j + 1;
  }
}

TEST(RankMergeTest, TopMUnderNoneRuleIsDeterministicPrefix) {
  Fixture fx(80, 0);
  Ranker ranker(MakePromotionPolicy(RankPromotionConfig::None()));
  Rng rng(54);
  ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
  const std::vector<uint32_t> top = ranker.TopM(15, rng);
  ASSERT_EQ(top.size(), 15u);
  for (size_t j = 0; j < top.size(); ++j) {
    EXPECT_EQ(top[j], ranker.deterministic_order()[j]);
  }
}

TEST(RankMergeTest, PoolPrefixSamplerDrawsWholePoolWithoutReplacement) {
  std::vector<uint32_t> pool(97);
  std::iota(pool.begin(), pool.end(), 1000);
  PoolPrefixSampler sampler(pool.data(), pool.size());
  Rng rng(55);
  std::set<uint32_t> seen;
  while (sampler.remaining() > 0) seen.insert(sampler.Next(rng));
  EXPECT_EQ(seen.size(), pool.size());
  EXPECT_EQ(*seen.begin(), 1000u);
  EXPECT_EQ(*seen.rbegin(), 1096u);
}

TEST(RankMergeTest, PoolPrefixSamplerFirstDrawIsUniform) {
  std::vector<uint32_t> pool = {0, 1, 2, 3, 4};
  PoolPrefixSampler sampler;
  Rng rng(56);
  std::vector<int> counts(5, 0);
  const int kTrials = 50000;
  for (int t = 0; t < kTrials; ++t) {
    sampler.Reset(pool.data(), pool.size());
    ++counts[sampler.Next(rng)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kTrials, 0.2, 0.01);
  }
}

class MergePropertyTest
    : public ::testing::TestWithParam<std::tuple<double, size_t, size_t>> {};

TEST_P(MergePropertyTest, AlwaysPermutationAndProtected) {
  const auto [r, k, zeros] = GetParam();
  Fixture fx(150, zeros, /*seed=*/99 + k);
  Ranker ranker(MakePromotionPolicy(RankPromotionConfig::Selective(r, k)));
  Rng rng(17 + static_cast<uint64_t>(r * 100));
  ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
  const std::vector<uint32_t> list = ranker.MaterializeList(rng);
  ASSERT_TRUE(IsPermutation(list, 150));
  const size_t protect = std::min(k - 1, ranker.deterministic_order().size());
  for (size_t i = 0; i < protect; ++i) {
    EXPECT_EQ(list[i], ranker.deterministic_order()[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MergePropertyTest,
    ::testing::Combine(::testing::Values(0.0, 0.1, 0.5, 0.9, 1.0),
                       ::testing::Values<size_t>(1, 2, 6, 21),
                       ::testing::Values<size_t>(0, 5, 75, 150)));

}  // namespace
}  // namespace randrank
