#include "serve/batch_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/policy/promotion_policy.h"
#include "core/ranking_policy.h"
#include "serve/sharded_rank_server.h"
#include "util/rng.h"

#include "serve_fixture.h"

namespace randrank {
namespace {

using testutil::Fixture;

std::unique_ptr<ShardedRankServer> MakeServer(const Fixture& fx, size_t n) {
  ServeOptions opts;
  opts.shards = 4;
  auto server = std::make_unique<ShardedRankServer>(
      MakePromotionPolicy(RankPromotionConfig::Selective(0.3, 2)), n, opts);
  server->Update(fx.popularity, fx.zero, fx.birth);
  return server;
}

TEST(BatchQueueTest, FutureResolvesWithServedResults) {
  const size_t n = 200;
  Fixture fx(n, 40);
  auto server = MakeServer(fx, n);
  BatchQueue queue(*server);

  std::future<std::vector<uint32_t>> f = queue.Submit(10);
  const std::vector<uint32_t> results = f.get();
  ASSERT_EQ(results.size(), 10u);
  const std::set<uint32_t> seen(results.begin(), results.end());
  EXPECT_EQ(seen.size(), 10u);
  for (const uint32_t page : results) EXPECT_LT(page, n);
  queue.Stop();
}

TEST(BatchQueueTest, ManyProducersAllFuturesComplete) {
  const size_t n = 300;
  const size_t kProducers = 4;
  const size_t kPerProducer = 500;
  Fixture fx(n, 60);
  auto server = MakeServer(fx, n);
  BatchQueue queue(*server);

  std::atomic<size_t> served{0};
  std::atomic<size_t> wrong{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      std::vector<std::future<std::vector<uint32_t>>> window;
      window.reserve(kPerProducer);
      for (size_t q = 0; q < kPerProducer; ++q) window.push_back(queue.Submit(7));
      for (auto& f : window) {
        const std::vector<uint32_t> results = f.get();
        ++served;
        if (results.size() != 7) ++wrong;
        const std::set<uint32_t> seen(results.begin(), results.end());
        if (seen.size() != results.size()) ++wrong;
      }
    });
  }
  for (auto& t : producers) t.join();
  queue.Stop();

  // Every future resolved (no query lost) to a full, duplicate-free list.
  EXPECT_EQ(served.load(), kProducers * kPerProducer);
  EXPECT_EQ(wrong.load(), 0u);
}

TEST(BatchQueueTest, StopDrainsAcceptedQueries) {
  const size_t n = 250;
  Fixture fx(n, 50);
  auto server = MakeServer(fx, n);

  std::vector<std::future<std::vector<uint32_t>>> accepted;
  {
    BatchQueue queue(*server);
    for (int q = 0; q < 200; ++q) accepted.push_back(queue.Submit(9));
    queue.Stop();
    // Everything accepted before Stop was served before Stop returned.
    for (auto& f : accepted) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                std::future_status::ready);
    }
    // After Stop new submissions resolve immediately and empty.
    std::future<std::vector<uint32_t>> rejected = queue.Submit(9);
    EXPECT_TRUE(rejected.get().empty());
  }
  for (auto& f : accepted) EXPECT_EQ(f.get().size(), 9u);
}

TEST(BatchQueueTest, DestructorStopsAndDrains) {
  const size_t n = 100;
  Fixture fx(n, 20);
  auto server = MakeServer(fx, n);
  std::future<std::vector<uint32_t>> f;
  {
    BatchQueue queue(*server);
    f = queue.Submit(4);
  }
  EXPECT_EQ(f.get().size(), 4u);
}

TEST(BatchQueueTest, MixedTopMQueriesAreServedCorrectly) {
  const size_t n = 400;
  Fixture fx(n, 80);
  auto server = MakeServer(fx, n);
  BatchQueue queue(*server);

  std::vector<std::future<std::vector<uint32_t>>> futures;
  std::vector<size_t> ms;
  Rng rng(3);
  for (int q = 0; q < 300; ++q) {
    const size_t m = 1 + rng.NextIndex(30);
    ms.push_back(m);
    futures.push_back(queue.Submit(m));
  }
  for (size_t q = 0; q < futures.size(); ++q) {
    EXPECT_EQ(futures[q].get().size(), ms[q]) << "query " << q;
  }
  queue.Stop();
}

}  // namespace
}  // namespace randrank
