#ifndef RANDRANK_SERVE_BATCH_QUEUE_H_
#define RANDRANK_SERVE_BATCH_QUEUE_H_

#include <condition_variable>
#include <cstdint>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/sharded_rank_server.h"

namespace randrank {

/// Asynchronous submission to a ShardedRankServer: a multi-producer,
/// single-consumer queue. Producers enqueue top-m queries and get futures;
/// one consumer thread, started by the constructor and serving on its own
/// Context (its own Rng stream), serves them in submission order. Producers
/// pay one mutex acquisition per Submit; the consumer takes the whole
/// backlog in one swap, so the lock is never held while serving.
///
/// Nothing in the program serves through this queue: the daemon's event
/// loop serves its queries itself. The benchmark harness times one
/// Submit(m).get() round trip with it (the cost of a thread hop).
class BatchQueue {
 public:
  explicit BatchQueue(ShardedRankServer& server);
  /// Stops and drains: queries accepted before the stop are still served.
  ~BatchQueue();

  BatchQueue(const BatchQueue&) = delete;
  BatchQueue& operator=(const BatchQueue&) = delete;

  /// Enqueues a top-m query; the future resolves to the served result list.
  /// After Stop() the returned future is already resolved with an empty
  /// list.
  std::future<std::vector<uint32_t>> Submit(size_t m);

  /// Rejects new submissions, serves everything already queued, and joins
  /// the consumer. Idempotent and safe to call from several threads (one
  /// caller joins; the others return immediately, possibly before the drain
  /// finishes). Also run by the destructor.
  void Stop();

 private:
  struct PendingQuery {
    size_t m = 0;
    std::promise<std::vector<uint32_t>> promise;
  };

  void ConsumerLoop();

  ShardedRankServer& server_;

  std::mutex mutex_;
  std::condition_variable submitted_;
  std::vector<PendingQuery> pending_;
  bool stopping_ = false;

  std::thread consumer_;
};

}  // namespace randrank

#endif  // RANDRANK_SERVE_BATCH_QUEUE_H_
