#include "serve/batch_queue.h"

#include <algorithm>
#include <utility>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace randrank {

BatchQueue::BatchQueue(ShardedRankServer& server, BatchQueueOptions options)
    : server_(server), opts_(options) {
  if (opts_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *opts_.metrics;
    const std::string& p = opts_.obs_prefix;
    wait_hist_ = &reg.GetHistogram(p + "/wait_ns");
    queries_ctr_ = &reg.GetCounter(p + "/queries_total");
    batches_ctr_ = &reg.GetCounter(p + "/batches_total");
    expired_ctr_ = &reg.GetCounter(p + "/deadline_expired");
    depth_gauge_ = &reg.GetGauge(p + "/depth");
    max_depth_gauge_ = &reg.GetGauge(p + "/max_depth");
    max_batch_gauge_ = &reg.GetGauge(p + "/max_batch");
  }
  consumer_ = std::thread([this] { ConsumerLoop(); });
}

BatchQueue::~BatchQueue() { Stop(); }

std::future<std::vector<uint32_t>> BatchQueue::Submit(size_t m) {
  PendingQuery query;
  query.m = m;
  std::future<std::vector<uint32_t>> result = query.promise.get_future();
  if (!Enqueue(std::move(query))) {
    // Stopped: resolve immediately with an empty list rather than leaking a
    // broken promise to the caller.
    std::promise<std::vector<uint32_t>> rejected;
    rejected.set_value({});
    return rejected.get_future();
  }
  return result;
}

bool BatchQueue::Enqueue(PendingQuery&& query) {
  if (opts_.deadline_us > 0) {
    // Stamped before the backpressure wait, so time spent blocked on a full
    // queue burns the deadline (overload sheds instead of serving stale).
    query.deadline = std::chrono::steady_clock::now() +
                     std::chrono::microseconds(opts_.deadline_us);
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (opts_.max_pending > 0) {
      drained_.wait(lock, [this] {
        return stopping_ || pending_.size() < opts_.max_pending;
      });
    }
    if (stopping_) return false;
    if (wait_hist_ != nullptr) query.submitted_ns = obs::FastNowNs();
    pending_.push_back(std::move(query));
  }
  submitted_.notify_one();
  return true;
}

BatchQueueStats BatchQueue::stats() const {
  BatchQueueStats stats;
  stats.queries_served = queries_served_.load(std::memory_order_relaxed);
  stats.batches_served = batches_served_.load(std::memory_order_relaxed);
  stats.max_batch_served = max_batch_served_.load(std::memory_order_relaxed);
  stats.max_queue_depth = max_queue_depth_.load(std::memory_order_relaxed);
  stats.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  return stats;
}

void BatchQueue::Stop() {
  // Claiming the thread handle under the mutex makes concurrent Stop calls
  // safe: exactly one caller joins, the others see an empty handle.
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    to_join = std::move(consumer_);
  }
  submitted_.notify_all();
  drained_.notify_all();
  if (to_join.joinable()) to_join.join();
}

void BatchQueue::CompleteExpired(PendingQuery& query) {
  query.promise.set_exception(std::make_exception_ptr(
      DeadlineExceededError("query deadline expired before pickup")));
}

void BatchQueue::ConsumerLoop() {
  ShardedRankServer::Context ctx = server_.CreateContext();
  const size_t max_batch = std::max<size_t>(1, opts_.max_batch);
  QueryBatch batch;
  std::vector<PendingQuery> draining;

  for (;;) {
    uint64_t depth = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      submitted_.wait(lock, [this] { return stopping_ || !pending_.empty(); });
      if (pending_.empty()) return;  // stopping and fully drained
      // This thread is the only writer of the max counters; plain
      // load/store suffices.
      depth = pending_.size();
      if (depth > max_queue_depth_.load(std::memory_order_relaxed)) {
        max_queue_depth_.store(depth, std::memory_order_relaxed);
      }
      draining.swap(pending_);
    }
    drained_.notify_all();

    if (wait_hist_ != nullptr) {
      // One clock read covers the whole drain: every drained query became
      // servable at the same pickup instant.
      const uint64_t picked_up_ns = obs::FastNowNs();
      for (const PendingQuery& query : draining) {
        wait_hist_->Record(picked_up_ns > query.submitted_ns
                               ? picked_up_ns - query.submitted_ns
                               : 0);
      }
      depth_gauge_->Set(static_cast<double>(depth));
      max_depth_gauge_->Set(static_cast<double>(
          max_queue_depth_.load(std::memory_order_relaxed)));
      if (opts_.trace != nullptr && opts_.trace->sample_every() > 0 &&
          drain_seq_++ % opts_.trace->sample_every() == 0) {
        opts_.trace->EmitSpan("queue/drain", 0.0,
                              {{"depth", static_cast<double>(depth)}});
      }
    }

    // Fault site (delay-only): a stalled consumer, to drive queries past
    // their deadlines deterministically in tests and chaos runs.
    {
      static constexpr uint64_t kHash = fault::Hash(fault::kQueueServe);
      fault::Decision decision;
      if (fault::Check(fault::kQueueServe, kHash, /*epoch=*/0, &decision)) {
        fault::ApplyDelay(decision);
      }
    }

    if (opts_.deadline_us > 0) {
      // Expiry sweep at pickup: queries past their deadline complete with an
      // explicit timeout (DeadlineExceededError) and never reach
      // ServeBatch; survivors compact in submission order.
      const auto now = std::chrono::steady_clock::now();
      size_t kept = 0;
      uint64_t expired = 0;
      for (size_t i = 0; i < draining.size(); ++i) {
        if (now >= draining[i].deadline) {
          CompleteExpired(draining[i]);
          ++expired;
        } else {
          if (kept != i) draining[kept] = std::move(draining[i]);
          ++kept;
        }
      }
      if (expired > 0) {
        draining.resize(kept);
        deadline_expired_.fetch_add(expired, std::memory_order_relaxed);
        if (expired_ctr_ != nullptr) expired_ctr_->Add(expired);
      }
    }

    // Fold runs of same-m queries into one ServeBatch each: every query is
    // still an independent realization from this context's Rng stream, in
    // submission order, so batching is invisible in the results.
    size_t begin = 0;
    while (begin < draining.size()) {
      size_t end = begin + 1;
      while (end < draining.size() && end - begin < max_batch &&
             draining[end].m == draining[begin].m) {
        ++end;
      }
      const size_t count = end - begin;
      batch.m = draining[begin].m;
      batch.Resize(count);
      server_.ServeBatch(ctx, &batch);
      for (size_t i = 0; i < count; ++i) {
        draining[begin + i].promise.set_value(std::move(batch.results[i]));
      }
      queries_served_.fetch_add(count, std::memory_order_relaxed);
      batches_served_.fetch_add(1, std::memory_order_relaxed);
      if (count > max_batch_served_.load(std::memory_order_relaxed)) {
        max_batch_served_.store(count, std::memory_order_relaxed);
      }
      if (queries_ctr_ != nullptr) {
        queries_ctr_->Add(count);
        batches_ctr_->Add();
        max_batch_gauge_->Set(static_cast<double>(
            max_batch_served_.load(std::memory_order_relaxed)));
      }
      begin = end;
    }
    draining.clear();
  }
}

}  // namespace randrank
