#ifndef RANDRANK_SERVE_BATCH_QUEUE_H_
#define RANDRANK_SERVE_BATCH_QUEUE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/sharded_rank_server.h"

namespace randrank {

struct BatchQueueOptions {
  /// Upper bound on queries folded into one ServeBatch execution (one view
  /// pin + epoch-cache lookup per batch). 0 selects 1.
  size_t max_batch = 64;
  /// Backpressure: Submit blocks while this many queries are already queued.
  /// 0 means unbounded.
  size_t max_pending = 1 << 16;
  /// Per-query deadline, stamped at Submit. A query whose deadline has
  /// already passed when the consumer picks it up is not served: its future
  /// resolves with a DeadlineExceededError — an explicit timeout, never a
  /// silent wrong answer and never a hang. 0 (default) disables deadlines.
  /// Time spent blocked on backpressure counts against the deadline: under
  /// overload, queued-too-long work is shed instead of served stale.
  uint64_t deadline_us = 0;
  /// Observability (optional, borrowed): with `metrics` set the queue
  /// records per-query queue wait (submit -> drain pickup) into the
  /// histogram `<obs_prefix>/wait_ns` and mirrors every BatchQueueStats
  /// counter as registry metrics (`<obs_prefix>/queries_total`,
  /// `batches_total`, `deadline_expired` counters; `depth`, `max_depth`,
  /// `max_batch` gauges) — the one export path live monitoring reads,
  /// instead of hand-copying stats() fields.
  obs::MetricsRegistry* metrics = nullptr;
  /// With `trace` also set, drains emit sampled "queue/drain" spans (backlog
  /// depth) at the TraceLog's sample_every stride.
  obs::TraceLog* trace = nullptr;
  std::string obs_prefix = "queue";
};

/// Point-in-time occupancy counters for tuning the queue (see
/// BatchQueue::stats). Monotone totals; read with relaxed ordering, so a
/// concurrent reader may see totals from slightly different instants.
struct BatchQueueStats {
  /// Queries and ServeBatch executions completed so far.
  uint64_t queries_served = 0;
  uint64_t batches_served = 0;
  /// Largest single ServeBatch execution observed.
  uint64_t max_batch_served = 0;
  /// Deepest backlog observed at any drain.
  uint64_t max_queue_depth = 0;
  /// Queries completed with an explicit timeout (deadline_us exceeded
  /// before pickup) instead of being served.
  uint64_t deadline_expired = 0;

  /// Mean queries per ServeBatch execution.
  double mean_batch_size() const {
    return batches_served > 0
               ? static_cast<double>(queries_served) /
                     static_cast<double>(batches_served)
               : 0.0;
  }
};

/// Resolves the future of a query whose BatchQueueOptions::deadline_us
/// expired before the consumer picked it up. The explicit-timeout contract:
/// expired queries fail loudly instead of returning an empty (wrong) list.
class DeadlineExceededError : public std::runtime_error {
 public:
  explicit DeadlineExceededError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Async submission front-end for ShardedRankServer: a multi-producer,
/// single-consumer queue whose consumer thread drains whatever is pending,
/// folds runs of same-m queries into QueryBatch executions, and completes
/// each query's future. Producers never touch serving state — they enqueue
/// and move on, so one producer can pipeline many in-flight queries — and
/// the batch size adapts to load: near-empty queues serve batches of one
/// (no added latency floor), bursts are swallowed at up to max_batch per
/// view pin. Queue-depth and batch-size counters (stats()) expose the
/// resulting occupancy for tuning.
///
/// Producers pay one mutex acquisition per Submit; the consumer takes the
/// whole pending backlog in one swap, so the lock is never held during
/// serving. Results come from the consumer's own serving Context (its Rng
/// stream), drawn in submission order.
class BatchQueue {
 public:
  explicit BatchQueue(ShardedRankServer& server, BatchQueueOptions options = {});
  /// Stops and drains: queries accepted before the stop are still served.
  ~BatchQueue();

  BatchQueue(const BatchQueue&) = delete;
  BatchQueue& operator=(const BatchQueue&) = delete;

  /// Enqueues a top-m query; the future resolves to the served result list,
  /// or throws DeadlineExceededError if the query's deadline_us expired
  /// before pickup. Blocks only for backpressure. After Stop() the returned
  /// future is already resolved with an empty list.
  std::future<std::vector<uint32_t>> Submit(size_t m);

  /// Rejects new submissions, serves everything already queued, and joins
  /// the consumer. Idempotent and safe to call from several threads (one
  /// caller joins; the others return immediately, possibly before the drain
  /// finishes). Also run by the destructor.
  void Stop();

  /// Feedback pass-through to the consumer's context is intentionally not
  /// offered: clicks happen on the caller's timeline, so producers record
  /// them through their own Context.

  uint64_t queries_served() const {
    return queries_served_.load(std::memory_order_relaxed);
  }
  uint64_t batches_served() const {
    return batches_served_.load(std::memory_order_relaxed);
  }
  uint64_t deadline_expired() const {
    return deadline_expired_.load(std::memory_order_relaxed);
  }

  /// Occupancy counters so batch knobs can be tuned from measurement
  /// instead of folklore. Thread-safe; totals are relaxed reads.
  BatchQueueStats stats() const;

 private:
  struct PendingQuery {
    size_t m = 0;
    /// Submission stamp for the queue-wait histogram; 0 (never taken) when
    /// the queue runs without a registry.
    uint64_t submitted_ns = 0;
    /// Absolute expiry (submit + deadline_us); epoch value (never stamped)
    /// when the queue runs without deadlines.
    std::chrono::steady_clock::time_point deadline{};
    std::promise<std::vector<uint32_t>> promise;
  };

  /// Completes one expired query with its explicit timeout.
  static void CompleteExpired(PendingQuery& query);

  bool Enqueue(PendingQuery&& query);
  void ConsumerLoop();

  ShardedRankServer& server_;
  const BatchQueueOptions opts_;

  std::mutex mutex_;
  std::condition_variable submitted_;
  std::condition_variable drained_;
  std::vector<PendingQuery> pending_;
  bool stopping_ = false;

  std::atomic<uint64_t> queries_served_{0};
  std::atomic<uint64_t> batches_served_{0};
  std::atomic<uint64_t> max_batch_served_{0};
  std::atomic<uint64_t> max_queue_depth_{0};
  std::atomic<uint64_t> deadline_expired_{0};

  /// Registry endpoints, resolved once at construction (all null when
  /// opts_.metrics is null). Only the consumer thread writes them, except
  /// wait_hist_ which is inherently multi-shard.
  obs::LatencyHistogram* wait_hist_ = nullptr;
  obs::Counter* queries_ctr_ = nullptr;
  obs::Counter* batches_ctr_ = nullptr;
  obs::Counter* expired_ctr_ = nullptr;
  obs::Gauge* depth_gauge_ = nullptr;
  obs::Gauge* max_depth_gauge_ = nullptr;
  obs::Gauge* max_batch_gauge_ = nullptr;
  /// Consumer-local drain counter driving queue/drain span sampling.
  uint64_t drain_seq_ = 0;

  std::thread consumer_;
};

}  // namespace randrank

#endif  // RANDRANK_SERVE_BATCH_QUEUE_H_
