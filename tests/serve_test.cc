#include "serve/sharded_rank_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/policy/policy_factory.h"
#include "core/policy/promotion_policy.h"
#include "core/rank_merge.h"
#include "core/ranking_policy.h"
#include "fault/fault.h"
#include "serve/epoch_prefix_cache.h"
#include "serve/feedback.h"
#include "serve/query_workload.h"
#include "serve/rank_snapshot.h"
#include "serve/snapshot_store.h"
#include "util/rng.h"

#include "serve_fixture.h"
#include "util/stats.h"

namespace randrank {
namespace {

using testutil::Fixture;

// A corpus that churns every epoch, with the ties the rank key has to
// break: popularity takes five levels, so many pages tie; neighbouring pages
// share a birth; and every epoch some pages move level while others die
// (popularity 0, zero awareness, one birth shared by that epoch's dead).
// About one page in 200 sits at the top level, so the top 25 reach the
// levels where ts-promo's duel draws from the pool.
struct ChurnedCorpus {
  static constexpr double kLevels[] = {0.0, 0.02, 0.05, 0.1, 0.5};
  std::vector<double> popularity;
  std::vector<uint8_t> zero;
  std::vector<int64_t> birth;
  Rng rng{41};

  explicit ChurnedCorpus(size_t n) : popularity(n), zero(n), birth(n) {
    for (size_t p = 0; p < n; ++p) {
      const size_t level = Level(0);
      popularity[p] = kLevels[level];
      // Half the pages at level 0 are known: they tie in the det list.
      zero[p] = level == 0 && rng.NextIndex(2) == 0;
      birth[p] = static_cast<int64_t>(p / 4);
    }
  }

  size_t Level(size_t lowest) {
    return rng.NextIndex(200) == 0 ? 4 : lowest + rng.NextIndex(4 - lowest);
  }

  void Churn(int64_t epoch) {
    const size_t n = popularity.size();
    for (int i = 0; i < 60; ++i) {
      const size_t p = rng.NextIndex(n);
      popularity[p] = kLevels[Level(1)];
      zero[p] = 0;
    }
    for (int i = 0; i < 30; ++i) {
      const size_t p = rng.NextIndex(n);
      popularity[p] = 0.0;
      zero[p] = 1;
      birth[p] = static_cast<int64_t>(n / 4) + epoch;
    }
  }
};

constexpr size_t kChurnPages = 2000;
constexpr int kChurnEpochs = 12;
constexpr int kChurnSwapEpoch = 7;

// Publishes kChurnEpochs churned epochs of `corpus` through `server`. One
// publish is rolled back at each publish.* fault point before its epoch's
// clean publish, and epoch kChurnSwapEpoch hot-swaps to `swap_label`.
// `after_epoch(epoch)` runs after every clean publish.
template <typename AfterEpoch>
void RunChurnedSequence(ShardedRankServer& server, ChurnedCorpus& corpus,
                        const std::string& swap_label,
                        const AfterEpoch& after_epoch) {
  static constexpr std::pair<int, std::string_view> kRollbacks[] = {
      {3, fault::kPublishShards},
      {5, fault::kPublishMerge},
      {8, fault::kPublishEpochState},
      {10, fault::kPublishRcu}};
  for (int epoch = 1; epoch <= kChurnEpochs; ++epoch) {
    corpus.Churn(epoch);
    for (const auto& [at, point] : kRollbacks) {
      if (at != epoch) continue;
      fault::FaultPlan plan;
      ASSERT_TRUE(fault::FaultPlan::Parse(
          "point=" + std::string(point) + ",action=fail,nth=1,max_fires=1",
          &plan));
      fault::FaultInjector injector(plan);
      fault::ScopedFaultInjector scoped(&injector);
      ASSERT_FALSE(server.Update(corpus.popularity, corpus.zero, corpus.birth))
          << point;
    }
    std::shared_ptr<const StochasticRankingPolicy> swap;
    if (epoch == kChurnSwapEpoch) swap = MakePolicyFromLabel(swap_label);
    ASSERT_TRUE(
        server.Update(corpus.popularity, corpus.zero, corpus.birth, swap));
    after_epoch(epoch);
  }
}

TEST(SnapshotStoreTest, PublishAndHandleRefresh) {
  SnapshotStore<int> store;
  SnapshotHandle<int> handle(&store);
  EXPECT_EQ(handle.Get(), nullptr);
  store.Publish(std::make_shared<int>(7));
  ASSERT_NE(handle.Get(), nullptr);
  EXPECT_EQ(*handle.Get(), 7);
  store.Publish(std::make_shared<int>(9));
  EXPECT_EQ(*handle.Get(), 9);
  EXPECT_EQ(store.version(), 2u);
}

TEST(SnapshotStoreTest, HandleKeepsOldGenerationAliveUntilRefresh) {
  SnapshotStore<int> store;
  SnapshotHandle<int> handle(&store);
  auto first = std::make_shared<int>(1);
  std::weak_ptr<int> watch = first;
  store.Publish(std::move(first));
  const int* pinned = handle.Get();
  store.Publish(std::make_shared<int>(2));
  // The superseded snapshot must stay valid for the reader still using it.
  EXPECT_FALSE(watch.expired());
  EXPECT_EQ(*pinned, 1);
  handle.Get();  // refresh releases the pin
  EXPECT_TRUE(watch.expired());
}

TEST(RankSnapshotTest, BuildMatchesRankerOverSamePages) {
  Fixture fx(120, 24);
  std::vector<uint32_t> all_pages(120);
  for (uint32_t p = 0; p < 120; ++p) all_pages[p] = p;
  const auto policy =
      MakePromotionPolicy(RankPromotionConfig::Selective(0.3, 2));
  Ranker ranker(policy);
  Rng rng_a(8);
  Rng rng_b(8);
  ranker.Update(fx.popularity, fx.zero, fx.birth, rng_a);
  const auto snap = RankSnapshot::Build(policy, 1, all_pages, fx.popularity,
                                        fx.zero, fx.birth, rng_b);
  EXPECT_EQ(snap->det, ranker.deterministic_order());
  EXPECT_EQ(snap->pool, ranker.pool());
  EXPECT_EQ(snap->n(), 120u);
  for (size_t j = 0; j < snap->det.size(); ++j) {
    EXPECT_EQ(snap->det_score[j], fx.popularity[snap->det[j]]);
    EXPECT_EQ(snap->det_birth[j], fx.birth[snap->det[j]]);
  }
}

TEST(RankSnapshotTest, TopMAndPageAtRankMatchMaterializeMarginals) {
  // The per-shard serve primitives must agree with the Ranker reference
  // distribution over the same page state.
  Fixture fx(40, 8);
  std::vector<uint32_t> all_pages(40);
  for (uint32_t p = 0; p < 40; ++p) all_pages[p] = p;
  const auto policy =
      MakePromotionPolicy(RankPromotionConfig::Selective(0.4, 2));
  Ranker ranker(policy);
  Rng rng(9);
  ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
  const auto snap = RankSnapshot::Build(policy, 1, all_pages, fx.popularity,
                                        fx.zero, fx.birth, rng);

  const size_t m = 6;
  const int kTrials = 25000;
  std::vector<double> top_pool_freq(m, 0.0);
  std::vector<double> lazy_pool_freq(m, 0.0);
  std::vector<double> full_pool_freq(m, 0.0);
  std::vector<uint32_t> top;
  for (int t = 0; t < kTrials; ++t) {
    top.clear();
    ASSERT_EQ(snap->TopM(m, rng, &top), m);
    const std::vector<uint32_t> list = ranker.MaterializeList(rng);
    for (size_t j = 0; j < m; ++j) {
      top_pool_freq[j] += fx.zero[top[j]];
      lazy_pool_freq[j] += fx.zero[snap->PageAtRank(j + 1, rng)];
      full_pool_freq[j] += fx.zero[list[j]];
    }
  }
  for (size_t j = 0; j < m; ++j) {
    EXPECT_NEAR(top_pool_freq[j] / kTrials, full_pool_freq[j] / kTrials, 0.02)
        << "TopM rank " << j + 1;
    EXPECT_NEAR(lazy_pool_freq[j] / kTrials, full_pool_freq[j] / kTrials, 0.02)
        << "PageAtRank rank " << j + 1;
  }
}

TEST(ServeTest, ServesNothingBeforeFirstUpdate) {
  ShardedRankServer server(
      MakePromotionPolicy(RankPromotionConfig::Recommended(1)), 100);
  auto ctx = server.CreateContext();
  std::vector<uint32_t> out;
  EXPECT_EQ(server.ServeTopM(ctx, 10, &out), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(ServeTest, FullListIsPermutationAcrossShardCounts) {
  Fixture fx(211, 40);
  for (const size_t shards : {1u, 2u, 5u, 8u}) {
    ServeOptions opts;
    opts.shards = shards;
    ShardedRankServer server(
        MakePromotionPolicy(RankPromotionConfig::Selective(0.3, 2)), 211, opts);
    server.Update(fx.popularity, fx.zero, fx.birth);
    auto ctx = server.CreateContext();
    std::vector<uint32_t> out;
    ASSERT_EQ(server.ServeTopM(ctx, 211, &out), 211u) << shards;
    std::set<uint32_t> seen(out.begin(), out.end());
    EXPECT_EQ(seen.size(), 211u) << shards;
    EXPECT_EQ(*seen.rbegin(), 210u) << shards;
  }
}

TEST(ServeTest, NoneRuleMatchesGlobalDeterministicOrderShardedOrNot) {
  struct Case {
    size_t n;
    size_t zeros;
    size_t shards;
    bool coarse_births;
  };
  // The second corpus ties 60 pages at popularity 0, spread over all 7
  // shards (ids 0, 5, 10, ... mod 7). Its births fall with the id and are
  // shared by neighbouring pages, so the merge must apply both levels of
  // the tie-break: earlier birth first, then the lower id.
  for (const Case c : {Case{300, 0, 7, false}, Case{311, 60, 7, true}}) {
    SCOPED_TRACE(testing::Message() << "n=" << c.n << " zeros=" << c.zeros
                                    << " shards=" << c.shards);
    Fixture fx(c.n, c.zeros);
    if (c.coarse_births) {
      for (size_t i = 0; i < c.n; ++i) {
        fx.birth[i] = static_cast<int64_t>((c.n - i) / 10);
      }
    }
    Ranker ranker(MakePromotionPolicy(RankPromotionConfig::None()));
    Rng rng(3);
    ranker.Update(fx.popularity, fx.zero, fx.birth, rng);

    ServeOptions opts;
    opts.shards = c.shards;
    ShardedRankServer server(MakePromotionPolicy(RankPromotionConfig::None()),
                             c.n, opts);
    server.Update(fx.popularity, fx.zero, fx.birth);
    auto ctx = server.CreateContext();
    std::vector<uint32_t> out;
    EXPECT_EQ(server.ServeTopM(ctx, c.n, &out), c.n);
    // With no randomization the served list must be the global sort
    // exactly, whatever the shard count.
    EXPECT_EQ(out, ranker.deterministic_order());
  }

  // The same must hold after every epoch of a churned publish sequence,
  // rollbacks and a hot-swap included, and the order must follow the rank
  // key read straight from the inputs.
  for (const size_t shards : {1u, 4u, 7u}) {
    SCOPED_TRACE(testing::Message() << "churned, shards=" << shards);
    ChurnedCorpus corpus(kChurnPages);
    ServeOptions opts;
    opts.shards = shards;
    ShardedRankServer server(MakePolicyFromLabel("none"), kChurnPages, opts);
    auto ctx = server.CreateContext();
    Ranker ranker(MakePolicyFromLabel("none"));
    Rng rng(3);
    std::vector<uint32_t> out;
    RunChurnedSequence(server, corpus, "none", [&](int epoch) {
      SCOPED_TRACE(testing::Message() << "epoch " << epoch);
      ranker.Update(corpus.popularity, corpus.zero, corpus.birth, rng);
      ASSERT_EQ(server.ServeTopM(ctx, kChurnPages, &out), kChurnPages);
      EXPECT_EQ(out, ranker.deterministic_order());
      EXPECT_TRUE(std::is_sorted(
          out.begin(), out.end(), [&](uint32_t a, uint32_t b) {
            return RankOrderBefore(corpus.popularity[a], corpus.birth[a], a,
                                   corpus.popularity[b], corpus.birth[b], b);
          }));
    });
  }
}

// Served lists over a churned publish sequence, pinned across commits: for
// `none`, the uniform rule and every standard family, at 1, 4 and 7 shards,
// every epoch's lists (four ServeTopM(25) calls on one seeded context) fold
// into one FNV-1a digest. The sequence rolls back one publish at each
// publish.* fault point and hot-swaps to the next label at epoch 7. Any
// change to the partition draws, the pool order, the deterministic order or
// the epoch state moves a digest; update a constant only in a change that
// means to alter served lists.
TEST(ServeTest, ChurnedPublishSequenceMatchesPinnedDigests) {
  std::vector<std::string> labels = {"none", "uniform(r=0.10,k=2)"};
  for (const auto& policy : StandardPolicyFamilies()) {
    labels.push_back(policy->Label());
  }
  const size_t kShards[] = {1, 4, 7};
  const uint64_t kExpected[][3] = {
      // none
      {0xdd25021f6ca03dc3ULL, 0xa73c29786e189a34ULL, 0x8e9fd50243cb11e9ULL},
      // uniform(r=0.10,k=2)
      {0x7c198e9799a35249ULL, 0xb595497af90a7641ULL, 0xe1a95adf973cb9f4ULL},
      // selective(r=0.10,k=2)
      {0x0c274c3252d6b8abULL, 0x4d9cb844769837b9ULL, 0x53dc0db33772e9a9ULL},
      // plackett-luce(T=0.05), which hot-swaps to eps-tail: neither has a
      // pool, so no shard count changes its lists.
      {0x6a1f893d1aac6c8bULL, 0x6a1f893d1aac6c8bULL, 0x6a1f893d1aac6c8bULL},
      // eps-tail(eps=0.10,k=10), which hot-swaps to ts-promo
      {0x61fbc5eea18fa9c5ULL, 0x8ec62b367d0f5e2fULL, 0x6a8e85c7873d03e2ULL},
      // ts-promo(a=1.00,b=3.00,c=20.0,k=1)
      {0x47aae9abb9594027ULL, 0x3aed2fe7c410c595ULL, 0x306da125db9b8dc4ULL},
  };
  ASSERT_EQ(labels.size(), std::size(kExpected));
  for (size_t l = 0; l < labels.size(); ++l) {
    for (size_t s = 0; s < std::size(kShards); ++s) {
      SCOPED_TRACE(testing::Message()
                   << labels[l] << " shards=" << kShards[s]);
      ChurnedCorpus corpus(kChurnPages);
      ServeOptions opts;
      opts.shards = kShards[s];
      opts.seed = 0xc4e5;
      ShardedRankServer server(MakePolicyFromLabel(labels[l]), kChurnPages,
                               opts);
      auto ctx = server.CreateContext();
      uint64_t h = 0xcbf29ce484222325ULL;
      const auto fold = [&h](uint64_t value) {
        for (int byte = 0; byte < 8; ++byte) {
          h ^= (value >> (8 * byte)) & 0xff;
          h *= 0x100000001b3ULL;
        }
      };
      std::vector<uint32_t> out;
      RunChurnedSequence(server, corpus, labels[(l + 1) % labels.size()],
                         [&](int) {
                           for (int q = 0; q < 4; ++q) {
                             fold(server.ServeTopM(ctx, 25, &out));
                             for (const uint32_t page : out) fold(page);
                           }
                         });
      EXPECT_EQ(server.epoch(), static_cast<uint64_t>(kChurnEpochs));
      EXPECT_EQ(h, kExpected[l][s]) << "digest 0x" << std::hex << h;
    }
  }
}

TEST(ServeTest, ProtectedPrefixIsStableAcrossRealizations) {
  Fixture fx(150, 30);
  const size_t k = 6;
  ServeOptions opts;
  opts.shards = 4;
  ShardedRankServer server(
      MakePromotionPolicy(RankPromotionConfig::Selective(0.9, k)), 150, opts);
  server.Update(fx.popularity, fx.zero, fx.birth);
  auto ctx = server.CreateContext();
  std::vector<uint32_t> first;
  server.ServeTopM(ctx, k - 1, &first);
  std::vector<uint32_t> out;
  for (int trial = 0; trial < 25; ++trial) {
    server.ServeTopM(ctx, 40, &out);
    for (size_t i = 0; i < k - 1; ++i) {
      ASSERT_EQ(out[i], first[i]) << "trial " << trial << " slot " << i;
    }
  }
}

// The acceptance property of the sharded merge: the served top-m has the
// same distribution as the prefix of a full MaterializeList realization over
// identical global page state, regardless of shard count.
TEST(ServeTest, ServedTopMMatchesMaterializeListMarginals) {
  const size_t n = 60;
  const size_t zeros = 12;
  const size_t m = 10;
  const int kTrials = 30000;
  Fixture fx(n, zeros);
  const auto policy =
      MakePromotionPolicy(RankPromotionConfig::Selective(0.3, 2));

  Ranker ranker(policy);
  Rng rng(21);
  ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
  std::vector<double> reference_pool_freq(m, 0.0);
  for (int t = 0; t < kTrials; ++t) {
    const std::vector<uint32_t> list = ranker.MaterializeList(rng);
    for (size_t j = 0; j < m; ++j) reference_pool_freq[j] += fx.zero[list[j]];
  }

  for (const size_t shards : {1u, 4u}) {
    ServeOptions opts;
    opts.shards = shards;
    opts.seed = 1000 + shards;
    ShardedRankServer server(policy, n, opts);
    server.Update(fx.popularity, fx.zero, fx.birth);
    auto ctx = server.CreateContext();
    std::vector<double> served_pool_freq(m, 0.0);
    std::vector<uint32_t> out;
    for (int t = 0; t < kTrials; ++t) {
      ASSERT_EQ(server.ServeTopM(ctx, m, &out), m);
      for (size_t j = 0; j < m; ++j) served_pool_freq[j] += fx.zero[out[j]];
    }
    for (size_t j = 0; j < m; ++j) {
      EXPECT_NEAR(served_pool_freq[j] / kTrials,
                  reference_pool_freq[j] / kTrials, 0.02)
          << "shards=" << shards << " rank=" << j + 1;
    }
  }
}

// The batched path's contract: a batch of B is bit-identical to B
// sequential queries on the same context, because both consume the same Rng
// stream through the same per-query serve core — batching amortizes setup,
// never changes results.
TEST(ServeTest, ServeBatchIsPairwiseIdenticalToSequentialQueries) {
  const size_t n = 500;
  const size_t m = 15;
  const size_t kBatch = 32;
  Fixture fx(n, 100);
  ServeOptions opts;
  opts.shards = 4;
  opts.seed = 77;

  // Two identical servers; contexts created identically get identical
  // per-query Rng streams.
  ShardedRankServer sequential(
      MakePromotionPolicy(RankPromotionConfig::Selective(0.4, 3)), n, opts);
  ShardedRankServer batched(
      MakePromotionPolicy(RankPromotionConfig::Selective(0.4, 3)), n, opts);
  sequential.Update(fx.popularity, fx.zero, fx.birth);
  batched.Update(fx.popularity, fx.zero, fx.birth);
  auto seq_ctx = sequential.CreateContext();
  auto batch_ctx = batched.CreateContext();

  std::vector<std::vector<uint32_t>> expected(kBatch);
  size_t expected_total = 0;
  for (size_t q = 0; q < kBatch; ++q) {
    expected_total += sequential.ServeTopM(seq_ctx, m, &expected[q]);
  }

  QueryBatch batch(m, kBatch);
  ASSERT_EQ(batched.ServeBatch(batch_ctx, &batch), expected_total);
  EXPECT_EQ(batch.epoch, 1u);
  for (size_t q = 0; q < kBatch; ++q) {
    EXPECT_EQ(batch.results[q], expected[q]) << "query " << q;
  }
}

TEST(ServeTest, ServeBatchBeforeFirstUpdateServesNothing) {
  ShardedRankServer server(
      MakePromotionPolicy(RankPromotionConfig::Recommended(1)), 100);
  auto ctx = server.CreateContext();
  QueryBatch batch(10, 4);
  batch.results[0].push_back(42);  // stale content must be cleared
  batch.epoch = 9;
  EXPECT_EQ(server.ServeBatch(ctx, &batch), 0u);
  for (const auto& result : batch.results) EXPECT_TRUE(result.empty());
  EXPECT_EQ(batch.epoch, 0u);
}

// Satellite acceptance test: the served randomized tail must draw from the
// law of Ranker::MaterializeList over the same global page state.
// Statistic: pool pages among the served top-m (sparse-merged cells,
// two-sample chi-squared at alpha = 1e-3), plus a per-rank marginal
// cross-check against the reference.
TEST(ServeTest, ServedTailMatchesMaterializeListChiSquared) {
  const size_t n = 600;
  const size_t m = 12;
  const int kTrials = 20000;
  Fixture fx(n, 120);
  const auto policy =
      MakePromotionPolicy(RankPromotionConfig::Selective(0.35, 2));

  // Index 0: served by the sharded server; index 1: the reference.
  std::vector<std::vector<double>> pool_counts(2,
                                               std::vector<double>(m + 1, 0.0));
  std::vector<std::vector<double>> rank_freq(2, std::vector<double>(m, 0.0));
  const auto tally = [&](size_t side, const std::vector<uint32_t>& list) {
    size_t hits = 0;
    for (size_t j = 0; j < m; ++j) {
      hits += fx.zero[list[j]];
      rank_freq[side][j] += fx.zero[list[j]];
    }
    pool_counts[side][hits] += 1.0;
  };

  ServeOptions opts;
  opts.shards = 4;
  opts.seed = 900;
  ShardedRankServer server(policy, n, opts);
  server.Update(fx.popularity, fx.zero, fx.birth);
  auto ctx = server.CreateContext();
  std::vector<uint32_t> out;
  for (int t = 0; t < kTrials; ++t) {
    ASSERT_EQ(server.ServeTopM(ctx, m, &out), m);
    tally(0, out);
  }

  Ranker ranker(policy);
  Rng rng(901);
  ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
  for (int t = 0; t < kTrials; ++t) tally(1, ranker.MaterializeList(rng));

  MergeSparseCells(&pool_counts[0], &pool_counts[1], 32.0);
  size_t df = 0;
  const double chi2 = TwoSampleChiSquared(pool_counts[0], pool_counts[1], &df);
  ASSERT_GT(df, 0u);
  EXPECT_LE(chi2, ChiSquaredCritical(df, 0.001))
      << "served tail distribution drifted from MaterializeList (df=" << df
      << ")";

  for (size_t j = 0; j < m; ++j) {
    EXPECT_NEAR(rank_freq[0][j] / kTrials, rank_freq[1][j] / kTrials, 0.02)
        << "rank " << j + 1;
  }
}

TEST(ServeTest, EpochPrefixCacheBuildPartitionsTheView) {
  const size_t n = 97;
  Fixture fx(n, 20);
  ServeOptions opts;
  opts.shards = 3;
  ShardedRankServer server(
      MakePromotionPolicy(RankPromotionConfig::Selective(0.5, 2)), n, opts);
  server.Update(fx.popularity, fx.zero, fx.birth);
  auto ctx = server.CreateContext();
  // Reach the published cache through a full-list query's invariants: the
  // cache partitions all pages (det + pool) and preserves the global order
  // law, so a full realization is a permutation.
  std::vector<uint32_t> out;
  EXPECT_EQ(server.ServeTopM(ctx, n, &out), n);
  std::set<uint32_t> seen(out.begin(), out.end());
  EXPECT_EQ(seen.size(), n);
  // And the deterministic prefix (k-1 = 1 protected slot) is stable.
  std::vector<uint32_t> again;
  server.ServeTopM(ctx, 1, &again);
  EXPECT_EQ(again[0], out[0]);
}

TEST(ServeTest, BatchedWorkloadFeedsVisitsBackLikeSequential) {
  const size_t n = 400;
  Fixture fx(n, 80);
  ServeOptions opts;
  opts.shards = 4;
  ShardedRankServer server(
      MakePromotionPolicy(RankPromotionConfig::Recommended(2)), n, opts);
  server.Update(fx.popularity, fx.zero, fx.birth);

  WorkloadOptions wl;
  wl.threads = 2;
  wl.queries_per_thread = 1500;
  wl.top_m = 10;
  wl.batch_size = 16;
  wl.seed = 4;
  const WorkloadResult result = RunQueryWorkload(server, wl);
  EXPECT_EQ(result.queries, 3000u);
  EXPECT_EQ(result.visits, 3000u);
  EXPECT_GT(result.qps, 0.0);

  const std::vector<uint64_t> counts = server.DrainVisits();
  uint64_t total = 0;
  for (const uint64_t c : counts) total += c;
  EXPECT_EQ(total, 3000u);
}

TEST(ServeTest, PoolDrawsAreUniformAcrossShards) {
  // r=1, k=1: rank 1 is always a pool page, uniform over the global pool —
  // including pages on different shards.
  const size_t n = 48;
  Fixture fx(n, 16);
  ServeOptions opts;
  opts.shards = 6;
  ShardedRankServer server(
      MakePromotionPolicy(RankPromotionConfig::Selective(1.0, 1)), n, opts);
  server.Update(fx.popularity, fx.zero, fx.birth);
  auto ctx = server.CreateContext();
  std::vector<int> counts(n, 0);
  std::vector<uint32_t> out;
  const int kTrials = 48000;
  for (int t = 0; t < kTrials; ++t) {
    server.ServeTopM(ctx, 1, &out);
    ++counts[out[0]];
  }
  for (uint32_t p = 0; p < n; ++p) {
    if (fx.zero[p]) {
      EXPECT_NEAR(static_cast<double>(counts[p]) / kTrials, 1.0 / 16.0, 0.01);
    } else {
      EXPECT_EQ(counts[p], 0) << p;
    }
  }
}

// The race test: a writer republishes snapshots continuously while reader
// threads serve queries. Run under -DRANDRANK_TSAN=ON this is the
// ThreadSanitizer acceptance check; in a normal build it still validates
// that every served list under concurrent swaps is well-formed.
TEST(ServeTest, SnapshotSwapUnderConcurrentReadersIsSafe) {
  const size_t n = 500;
  Fixture fx(n, 100);
  ServeOptions opts;
  opts.shards = 4;
  ShardedRankServer server(
      MakePromotionPolicy(RankPromotionConfig::Selective(0.2, 2)), n, opts);
  server.Update(fx.popularity, fx.zero, fx.birth);

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  const size_t kReaders = 4;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&server, &stop, &bad, n] {
      auto ctx = server.CreateContext();
      std::vector<uint32_t> out;
      while (!stop.load(std::memory_order_acquire)) {
        const size_t served = server.ServeTopM(ctx, 20, &out);
        if (served != 20) {
          ++bad;
          continue;
        }
        std::set<uint32_t> seen(out.begin(), out.end());
        if (seen.size() != out.size() || *seen.rbegin() >= n) ++bad;
        server.RecordVisit(ctx, out[0]);
      }
      server.FlushFeedback(ctx);
    });
  }

  // Writer: mutate popularity and republish as fast as possible.
  std::vector<double> popularity = fx.popularity;
  Rng writer_rng(77);
  for (int swap = 0; swap < 200; ++swap) {
    const size_t p = writer_rng.NextIndex(n);
    popularity[p] = writer_rng.NextDouble() * 0.4;
    server.Update(popularity, fx.zero, fx.birth);
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(server.epoch(), 201u);
  EXPECT_GT(server.total_visits(), 0u);
}

TEST(ServeTest, FeedbackCountsDrainExactly) {
  ShardedRankServer server(MakePromotionPolicy(RankPromotionConfig::None()), 10,
                           {.shards = 2});
  auto ctx = server.CreateContext();
  for (int i = 0; i < 10; ++i) server.RecordVisit(ctx, 3);
  server.RecordVisit(ctx, 7);
  server.FlushFeedback(ctx);
  EXPECT_EQ(server.total_visits(), 11u);
  const std::vector<uint64_t> counts = server.DrainVisits();
  EXPECT_EQ(counts[3], 10u);
  EXPECT_EQ(counts[7], 1u);
  // Drain resets.
  const std::vector<uint64_t> again = server.DrainVisits();
  for (const uint64_t c : again) EXPECT_EQ(c, 0u);
}

TEST(ServeTest, FoldVisitsConvertsAwarenessAndClearsPoolFlag) {
  CommunityParams params = CommunityParams::Default();
  params.n = 20;
  params.u = 100;
  params.m = 10;
  Rng rng(9);
  ServingPageState state = MakeServingPageState(params, rng);
  EXPECT_EQ(state.ZeroAwarenessPages(), 20u);

  std::vector<uint64_t> visits(20, 0);
  visits[4] = 2000;  // ~ everyone has seen page 4 at least once
  visits[9] = 1;
  FoldVisits(visits, &state, rng);
  EXPECT_EQ(state.aware[4], 100u);
  EXPECT_NEAR(state.popularity[4], state.quality[4], 1e-12);
  EXPECT_EQ(state.zero_awareness[4], 0);
  EXPECT_EQ(state.zero_awareness[9], 0);
  EXPECT_LE(state.aware[9], 1u);
  EXPECT_EQ(state.ZeroAwarenessPages(), 18u);
}

TEST(ServeTest, WorkloadClosedLoopFeedsVisitsBack) {
  const size_t n = 400;
  Fixture fx(n, 80);
  ServeOptions opts;
  opts.shards = 4;
  ShardedRankServer server(
      MakePromotionPolicy(RankPromotionConfig::Recommended(2)), n, opts);
  server.Update(fx.popularity, fx.zero, fx.birth);

  WorkloadOptions wl;
  wl.threads = 2;
  wl.queries_per_thread = 2000;
  wl.top_m = 10;
  wl.seed = 4;
  const WorkloadResult result = RunQueryWorkload(server, wl);
  EXPECT_EQ(result.queries, 4000u);
  EXPECT_EQ(result.visits, 4000u);
  EXPECT_GT(result.qps, 0.0);
  EXPECT_GE(result.p99_latency_us, result.p50_latency_us);

  const std::vector<uint64_t> counts = server.DrainVisits();
  uint64_t total = 0;
  for (const uint64_t c : counts) total += c;
  EXPECT_EQ(total, 4000u);
}

TEST(ServeTest, ServeLoopDiscoversZeroAwarenessPagesUnderSelectiveRule) {
  // Close the loop a few times: with selective promotion the pool drains as
  // served clicks create awareness; with no promotion, rank-biased traffic
  // on an initially unknown community cannot (popularity stays 0 only until
  // clicks land, but zero-awareness pages with poor deterministic rank stay
  // buried far longer).
  CommunityParams params = CommunityParams::Default();
  params.n = 300;
  params.u = 200;
  params.m = 20;
  Rng rng(31);
  ServingPageState state = MakeServingPageState(params, rng);

  ServeOptions opts;
  opts.shards = 4;
  opts.seed = 7;
  ShardedRankServer server(
      MakePromotionPolicy(RankPromotionConfig::Selective(0.5, 1)), params.n,
      opts);
  const size_t before = state.ZeroAwarenessPages();
  for (int round = 0; round < 5; ++round) {
    server.Update(state.popularity, state.zero_awareness, state.birth_step);
    WorkloadOptions wl;
    wl.threads = 1;
    wl.queries_per_thread = 1500;
    wl.top_m = 20;
    wl.seed = 100 + round;
    RunQueryWorkload(server, wl);
    FoldVisits(server.DrainVisits(), &state, rng);
  }
  EXPECT_LT(state.ZeroAwarenessPages(), before / 2)
      << "selective promotion should surface unknown pages quickly";
}

}  // namespace
}  // namespace randrank
