#ifndef RANDRANK_SERVE_SHARDED_RANK_SERVER_H_
#define RANDRANK_SERVE_SHARDED_RANK_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/policy/stochastic_ranking_policy.h"
#include "core/rank_merge.h"
#include "serve/rank_snapshot.h"
#include "serve/snapshot_store.h"
#include "util/rng.h"

namespace randrank {

namespace obs {
class Counter;
class Gauge;
class LatencyHistogram;
class MetricsRegistry;
class TraceLog;
}  // namespace obs

struct ServeOptions {
  /// Number of shards pages are partitioned across (page p lives on shard
  /// p % shards). 0 selects 1.
  size_t shards = 4;
  /// Base seed; each serving context gets its own non-overlapping stream.
  uint64_t seed = 0x5eedULL;
  /// Observability (optional, borrowed — the registry/trace must outlive the
  /// server). With `metrics` set, every query records its true service time
  /// into a per-epoch-resolved log-bucketed histogram
  /// `<obs_prefix>/latency_ns/<family>` (split by policy family),
  /// publishes record into `<obs_prefix>/publish_ns`, and counters/gauges
  /// under `<obs_prefix>/` track queries, slots, publishes, and the live
  /// epoch. Null (default) keeps the hot path identical to the
  /// uninstrumented server except for one pointer test per query.
  obs::MetricsRegistry* metrics = nullptr;
  /// With `trace` also set, Update() emits epoch-publish phase spans (shard
  /// re-sort, merge, BuildEpochState, policy swap, RCU publish) and the
  /// query path emits sampled per-query spans (service time, policy family)
  /// at the TraceLog's sample_every stride.
  obs::TraceLog* trace = nullptr;
  /// Metric-name prefix, so several servers (e.g. experiment arms) can share
  /// one registry without colliding.
  std::string obs_prefix = "serve";
};

/// Observability endpoints of one published epoch, resolved once per
/// Update() (registry lookups, family slug) and carried by the
/// ServingView so the query path records through plain pointers — and so
/// metric attribution follows the pinned view across policy hot-swaps.
struct ServeObsHooks {
  obs::LatencyHistogram* latency = nullptr;  // service time, nanoseconds
  obs::Counter* queries = nullptr;
  obs::Counter* slots = nullptr;
  obs::TraceLog* trace = nullptr;  // null when tracing is off
  /// Per-context span sampling stride (TraceLog's sample_every); 0 = never.
  uint64_t sample_every = 0;
  /// Span attribute, fixed for the epoch.
  std::string family;
};

/// A batch of same-m queries answered against one pinned ServingView via
/// ShardedRankServer::ServeBatch. Reuse the object across batches — the
/// per-query result vectors keep their capacity.
struct QueryBatch {
  QueryBatch() = default;
  QueryBatch(size_t top_m, size_t count) : m(top_m), results(count) {}

  /// Results requested per query.
  size_t m = 10;
  /// One entry per query in the batch; each is cleared and refilled with the
  /// first min(m, n) slots of that query's fresh realization.
  std::vector<std::vector<uint32_t>> results;
  /// Output: the epoch of the view every result was drawn from; 0 before
  /// the first publish.
  uint64_t epoch = 0;

  size_t size() const { return results.size(); }
  void Resize(size_t count) { results.resize(count); }
};

/// Multi-threaded query-serving engine for stochastic ranking: each query
/// receives the first m slots of a *fresh* random realization of the
/// policy's result-list law (the paper's randomized rank promotion is the
/// default family), resolved without materializing the n-page list whenever
/// the policy supports it.
///
/// Concurrency model — single writer, many readers:
///  * Pages are partitioned across S shards. The writer thread calls
///    Update() with new page state; it rebuilds every shard's RankSnapshot
///    off the serving path and then publishes all of them as one
///    ServingView in a single atomic swap, so queries are snapshot-isolated
///    across shards: a query never mixes ranking state from two different
///    epochs.
///  * Each serving thread owns a Context (per-thread Rng stream, cached
///    snapshot handle, policy scratch, feedback batch). The query hot path
///    performs one atomic version check and otherwise touches only
///    immutable snapshot data and context-local scratch — no locks.
///  * Observed result clicks flow back through RecordVisit(); the writer
///    drains the aggregated per-page counts with DrainVisits() and folds
///    them into popularity/awareness for the next Update (see
///    serve/feedback.h), closing the simulate → serve loop.
///
/// Distribution guarantee: ServeTopM over S shards is distributed exactly as
/// the first m slots of Ranker::MaterializeList over the same global page
/// state, for every policy family: every query realizes against the epoch's
/// EpochPrefixCache, the pre-merged global view the S shards publish as.
///
/// Amortization layers on the read path: (1) the EpochPrefixCache makes
/// per-query cost O(m) independent of S, and (2) ServeBatch answers B
/// queries per view pin.
class ShardedRankServer {
 public:
  /// A serving thread's private state. Create one per worker via
  /// CreateContext(); a Context must not be used by two threads at once.
  class Context {
    friend class ShardedRankServer;

    SnapshotHandle<ServingView> handle_;
    Rng rng_{0};
    std::vector<uint32_t> visit_batch_;
    /// Queries this context has served with observability on; drives the
    /// deterministic 1-in-sample_every trace sampling stride.
    uint64_t obs_seq_ = 0;
    // Per-query policy scratch, reused across queries to avoid allocation.
    PolicyScratch scratch_;
  };

  /// Serves the given ranking-policy family.
  ShardedRankServer(std::shared_ptr<const StochasticRankingPolicy> policy,
                    size_t num_pages, ServeOptions options = {});

  // --- Writer API (one thread at a time) ---

  /// Rebuilds every shard snapshot from global page state and publishes them
  /// as one new epoch. Safe to call while readers are serving.
  ///
  /// With `new_policy` set, this is a policy hot-swap: the new epoch is
  /// ranked and served under `new_policy`, which becomes the server's policy
  /// for every later Update too. The swap is published atomically with the
  /// epoch — the snapshots, the epoch cache (rebuilt for the *new* policy),
  /// and the policy itself swap in as one ServingView, so a query pinned to
  /// the old view keeps realizing under the old policy and a query pinned to
  /// the new one under the new: no query is ever dropped, and none is served
  /// by a policy that mismatches its ranking state. This is the online A/B
  /// ramp primitive the experiment layer (src/exp/) builds on. Null keeps
  /// the current policy.
  ///
  /// Transactional: the publish either completes (returns true) or rolls
  /// back completely (returns false) — a failure in any build phase (shard
  /// re-sort, merge, epoch state, or an injected fault at the RCU boundary)
  /// leaves the previous epoch serving untouched, the epoch counter
  /// unadvanced, and the previous policy in place for the next attempt (a
  /// hot-swap that rode a failed publish never becomes observable). Failed
  /// attempts are counted in `<obs_prefix>/publish_failures` and tracked by
  /// epochs_since_publish(); the next successful Update clears the degraded
  /// state.
  bool Update(const std::vector<double>& popularity,
              const std::vector<uint8_t>& zero_awareness,
              const std::vector<int64_t>& birth_step,
              std::shared_ptr<const StochasticRankingPolicy> new_policy =
                  nullptr);

  /// Returns the accumulated per-page visit counts and resets them.
  std::vector<uint64_t> DrainVisits();

  // --- Read path (any number of threads, each with its own Context) ---

  /// Context with its own non-overlapping Rng stream. Thread-safe.
  Context CreateContext() const;

  /// Writes the first min(m, n) slots of a fresh realization into `out`
  /// (cleared first) and returns the count. Returns 0 before the first
  /// Update(). Lock-free in steady state.
  size_t ServeTopM(Context& ctx, size_t m, std::vector<uint32_t>* out) const;

  /// Answers every query in `batch` against one pinned ServingView (a single
  /// version check and epoch-cache lookup amortized over the whole batch)
  /// and returns the total slots served. Each query is an independent fresh
  /// realization drawn from the context's Rng stream in submission order, so
  /// a batch of B is bit-identical to B sequential ServeTopM calls on the
  /// same context — batching changes throughput, never results. Clears every
  /// result vector and sets `batch->epoch` to the pinned view's epoch; before
  /// the first Update() the results stay empty and the epoch is 0.
  size_t ServeBatch(Context& ctx, QueryBatch* batch) const;

  /// Records a served-result click for the feedback loop. Batched per
  /// context; call FlushFeedback when a context retires.
  void RecordVisit(Context& ctx, uint32_t page);
  void FlushFeedback(Context& ctx);

  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  uint64_t total_visits() const {
    return total_visits_.load(std::memory_order_relaxed);
  }

  // --- Degraded-mode accounting (thread-safe; exported to HEALTH) ---

  /// Update() attempts that rolled back, since construction.
  uint64_t publish_failures() const {
    return publish_failures_.load(std::memory_order_relaxed);
  }
  /// Consecutive failed Update() attempts since the last successful publish
  /// — the staleness age of the snapshot still serving, in epochs. 0 when
  /// healthy.
  uint64_t epochs_since_publish() const {
    return failed_since_success_.load(std::memory_order_relaxed);
  }
  /// True while the most recent Update() attempt rolled back — queries are
  /// still answered, from a stale epoch. Cleared by the next clean publish.
  bool degraded() const { return epochs_since_publish() > 0; }
  size_t n() const { return n_; }
  /// The policy of the most recently *published* epoch (the one queries are
  /// being served under), or the construction policy before the first
  /// Update. Thread-safe, including concurrently with a hot-swap Update —
  /// the returned shared_ptr keeps the policy alive past any swap.
  std::shared_ptr<const StochasticRankingPolicy> policy() const;

  /// The registry this server was constructed with (null when off) and its
  /// metric-name prefix. The query workload uses these to derive its latency
  /// percentiles from the server's own per-query histograms.
  obs::MetricsRegistry* metrics() const { return opts_.metrics; }
  const std::string& obs_prefix() const { return opts_.obs_prefix; }

 private:
  /// One query against an already-pinned view; the shared core of ServeTopM
  /// and ServeBatch (so the two are bit-identical given the same Rng state).
  /// Wraps ServeUninstrumented with the per-query latency record and the
  /// sampled query span when the view carries obs hooks.
  size_t ServeOne(Context& ctx, const ServingView& view, size_t m,
                  std::vector<uint32_t>* out) const;
  size_t ServeUninstrumented(Context& ctx, const ServingView& view, size_t m,
                             std::vector<uint32_t>* out) const;
  /// Builds the epoch's resolved obs endpoints (null when metrics are off).
  std::shared_ptr<const ServeObsHooks> BuildObsHooks() const;

  /// Writer-owned: the policy the *next* Update will rank and publish under
  /// (reassigned by a hot-swap Update). Never read on the query path — the
  /// published ServingView carries its own policy, which is what queries
  /// and the thread-safe policy() accessor dispatch through.
  std::shared_ptr<const StochasticRankingPolicy> policy_;
  /// Immutable construction-time policy, the policy() fallback before the
  /// first publish (safe to read concurrently with a first hot-swap Update,
  /// unlike the writer-owned policy_).
  const std::shared_ptr<const StochasticRankingPolicy> initial_policy_;
  size_t n_;
  ServeOptions opts_;
  std::vector<std::vector<uint32_t>> shard_pages_;  // page ids per shard

  SnapshotStore<ServingView> store_;
  std::atomic<uint64_t> epoch_{0};
  Rng writer_rng_;

  /// Degraded-mode accounting, written by the writer thread, read anywhere.
  std::atomic<uint64_t> publish_failures_{0};
  std::atomic<uint64_t> failed_since_success_{0};
  /// Registry endpoints for the failure path, resolved at construction so
  /// they are scrapeable before (and without) any failure.
  obs::Counter* publish_failures_ctr_ = nullptr;
  obs::Gauge* degraded_gauge_ = nullptr;
  obs::Gauge* stale_epochs_gauge_ = nullptr;

  mutable std::atomic<uint64_t> context_seq_{0};

  mutable std::mutex feedback_mutex_;
  std::vector<uint64_t> visit_counts_;
  std::atomic<uint64_t> total_visits_{0};
};

}  // namespace randrank

#endif  // RANDRANK_SERVE_SHARDED_RANK_SERVER_H_
