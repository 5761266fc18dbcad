#include "serve/batch_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <atomic>
#include <future>
#include <set>
#include <thread>
#include <vector>

#include "core/policy/promotion_policy.h"
#include "core/ranking_policy.h"
#include "fault/fault.h"
#include "obs/metrics.h"
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
  EXPECT_EQ(queue.queries_served(), 1u);
  EXPECT_EQ(queue.batches_served(), 1u);
}

TEST(BatchQueueTest, ManyProducersAllFuturesComplete) {
  const size_t n = 300;
  const size_t kProducers = 4;
  const size_t kPerProducer = 500;
  Fixture fx(n, 60);
  auto server = MakeServer(fx, n);
  BatchQueueOptions qopts;
  qopts.max_batch = 32;
  BatchQueue queue(*server, qopts);

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
        if (results.size() != 7) ++wrong;
        const std::set<uint32_t> seen(results.begin(), results.end());
        if (seen.size() != results.size()) ++wrong;
      }
    });
  }
  for (auto& t : producers) t.join();
  queue.Stop();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(queue.queries_served(), kProducers * kPerProducer);
  // Batching must never lose or duplicate queries; under concurrent load the
  // consumer should also fold at least some queries together.
  EXPECT_LE(queue.batches_served(), queue.queries_served());
  EXPECT_GT(queue.batches_served(), 0u);
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
    // Everything accepted before Stop must still be served.
    EXPECT_EQ(queue.queries_served(), 200u);
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
  EXPECT_EQ(queue.queries_served(), 300u);
}

// A backlog larger than max_batch folds into full executions. The consumer
// is held inside its first drain while 8 more queries arrive, so its next
// drain picks all 8 up at once and serves them as two batches of 4.
TEST(BatchQueueTest, BacklogFoldsIntoFullBatches) {
  const size_t n = 150;
  Fixture fx(n, 30);
  auto server = MakeServer(fx, n);
  BatchQueueOptions qopts;
  qopts.max_batch = 4;
  BatchQueue queue(*server, qopts);

  fault::FaultPlan plan;
  ASSERT_TRUE(fault::FaultPlan::Parse(
      "point=queue.serve,action=delay,nth=1,delay_us=200000", &plan));
  fault::FaultInjector injector(plan);
  fault::ScopedFaultInjector scoped(&injector);

  std::future<std::vector<uint32_t>> first = queue.Submit(5);
  for (int i = 0; i < 5000 && injector.fired(fault::kQueueServe) == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(injector.fired(fault::kQueueServe), 1u);
  std::vector<std::future<std::vector<uint32_t>>> futures;
  for (int q = 0; q < 8; ++q) futures.push_back(queue.Submit(5));
  EXPECT_EQ(first.get().size(), 5u);
  for (auto& f : futures) EXPECT_EQ(f.get().size(), 5u);
  queue.Stop();  // joins the consumer, so the counters below are final
  const BatchQueueStats stats = queue.stats();
  EXPECT_EQ(stats.queries_served, 9u);
  // The held query alone, then the backlog of 8 in two full executions.
  EXPECT_EQ(stats.batches_served, 3u);
  EXPECT_EQ(stats.max_batch_served, 4u);
  EXPECT_GE(stats.max_queue_depth, 8u);
  EXPECT_DOUBLE_EQ(stats.mean_batch_size(), 3.0);
}

TEST(BatchQueueTest, RegistrySurfacesStatsAndWaitHistogram) {
  const size_t n = 100;
  Fixture fx(n, 20);
  auto server = MakeServer(fx, n);
  obs::MetricsRegistry registry;
  BatchQueueOptions qopts;
  qopts.max_batch = 4;
  qopts.metrics = &registry;
  qopts.obs_prefix = "q";
  BatchQueue queue(*server, qopts);

  std::vector<std::future<std::vector<uint32_t>>> futures;
  for (int q = 0; q < 8; ++q) futures.push_back(queue.Submit(5));
  for (auto& f : futures) EXPECT_EQ(f.get().size(), 5u);
  queue.Stop();

  // The registry mirrors every stats() field — the live-monitoring path and
  // the legacy struct must agree.
  const BatchQueueStats stats = queue.stats();
  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("q/queries_total"), stats.queries_served);
  EXPECT_EQ(snap.counters.at("q/batches_total"), stats.batches_served);
  EXPECT_EQ(snap.gauges.at("q/max_depth"),
            static_cast<double>(stats.max_queue_depth));
  EXPECT_EQ(snap.gauges.at("q/max_batch"),
            static_cast<double>(stats.max_batch_served));
  // Every served query recorded its queue wait.
  const obs::HistogramSnapshot& wait = snap.histograms.at("q/wait_ns");
  EXPECT_EQ(wait.total, stats.queries_served);
  EXPECT_GT(wait.Mean(), 0.0);
}

TEST(BatchQueueTest, BackpressureBoundsPendingWithoutDeadlock) {
  const size_t n = 200;
  Fixture fx(n, 40);
  auto server = MakeServer(fx, n);
  BatchQueueOptions qopts;
  qopts.max_batch = 8;
  qopts.max_pending = 16;  // producers must block and resume, not deadlock
  BatchQueue queue(*server, qopts);

  std::vector<std::future<std::vector<uint32_t>>> futures;
  futures.reserve(2000);
  for (int q = 0; q < 2000; ++q) futures.push_back(queue.Submit(3));
  for (auto& f : futures) EXPECT_EQ(f.get().size(), 3u);
  queue.Stop();
  EXPECT_EQ(queue.queries_served(), 2000u);
}

}  // namespace
}  // namespace randrank
