#include "serve/batch_queue.h"

#include <utility>

namespace randrank {

BatchQueue::BatchQueue(ShardedRankServer& server) : server_(server) {
  consumer_ = std::thread([this] { ConsumerLoop(); });
}

BatchQueue::~BatchQueue() { Stop(); }

std::future<std::vector<uint32_t>> BatchQueue::Submit(size_t m) {
  PendingQuery query;
  query.m = m;
  std::future<std::vector<uint32_t>> result = query.promise.get_future();
  bool accepted = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!stopping_) {
      pending_.push_back(std::move(query));
      accepted = true;
    }
  }
  if (accepted) {
    submitted_.notify_one();
  } else {
    // Stopped: resolve immediately with an empty list rather than leaking a
    // broken promise to the caller.
    query.promise.set_value({});
  }
  return result;
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
  if (to_join.joinable()) to_join.join();
}

void BatchQueue::ConsumerLoop() {
  ShardedRankServer::Context ctx = server_.CreateContext();
  std::vector<PendingQuery> draining;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      submitted_.wait(lock, [this] { return stopping_ || !pending_.empty(); });
      if (pending_.empty()) return;  // stopping and fully drained
      draining.swap(pending_);
    }
    for (PendingQuery& query : draining) {
      std::vector<uint32_t> results;
      server_.ServeTopM(ctx, query.m, &results);
      query.promise.set_value(std::move(results));
    }
    draining.clear();
  }
}

}  // namespace randrank
