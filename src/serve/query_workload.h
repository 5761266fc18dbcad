#ifndef RANDRANK_SERVE_QUERY_WORKLOAD_H_
#define RANDRANK_SERVE_QUERY_WORKLOAD_H_

#include <cstddef>
#include <cstdint>

#include "serve/batch_queue.h"
#include "serve/sharded_rank_server.h"

namespace randrank {

struct WorkloadOptions {
  /// Closed-loop worker threads; each issues its next query as soon as the
  /// previous one completes. 0 selects 1.
  size_t threads = 1;
  size_t queries_per_thread = 10000;
  /// Results requested per query (the served "page one").
  size_t top_m = 10;
  /// Queries issued per ServeBatch call (one snapshot pin and epoch-cache
  /// lookup amortized over the batch). <= 1 uses the per-query ServeTopM
  /// path. Results are identical either way; only throughput changes.
  size_t batch_size = 1;
  /// Route queries through an async BatchQueue instead of serving inline:
  /// each worker keeps a window of `batch_size` submissions in flight
  /// (futures) against one shared queue, so latency includes queueing and
  /// the queue's consumer does all serving. Exercises serve/batch_queue.h.
  bool async = false;
  /// Rank->visit bias exponent of the click model (paper Eq. 4: 3/2).
  double rank_bias_exponent = 1.5;
  /// When true, every query clicks one result at a rank drawn from the
  /// visit law truncated to top_m, and reports it via RecordVisit — the
  /// serving traffic then has the same position-bias shape as the paper's
  /// simulations.
  bool record_visits = true;
  /// Seeds the click model: worker t draws click ranks from stream t of
  /// this seed, so the traffic shape is reproducible across runs
  /// independently of the server's own per-context streams.
  uint64_t seed = 1;
};

struct WorkloadResult {
  size_t queries = 0;
  uint64_t visits = 0;
  double seconds = 0.0;
  double qps = 0.0;
  /// Latency percentiles. Semantics changed with the obs layer: when the
  /// server carries a MetricsRegistry (ServeOptions::metrics), the
  /// synchronous modes derive these from the per-query serve histogram
  /// (true per-query service time, uniform across the single and batched
  /// paths) instead of the old batch-wall-time / batch-size estimate, which
  /// flattened the tail. Async mode always reports workload-measured
  /// submit-to-completion latency (queue wait included). Without a registry
  /// the old wall-clock measurement stands. histogram_latency says which
  /// source filled them.
  double p50_latency_us = 0.0;
  double p99_latency_us = 0.0;
  double max_latency_us = 0.0;
  /// True when the percentiles above came from the serve histogram delta.
  bool histogram_latency = false;
  /// ServeBatch executions observed (== queries in per-query mode; for the
  /// async mode this is the queue consumer's count).
  uint64_t batches = 0;
  /// Queue-health counters (depth, batch sizes) are no longer
  /// copied out here: in async mode the shared BatchQueue publishes them
  /// into the server's MetricsRegistry (`workload_queue/...`), the same
  /// export path live monitoring reads.
};

/// Closed-loop load generator: spawns `threads` workers against the server,
/// each with its own serving Context, issuing top-m queries (singly, in
/// ServeBatch batches, or through an async BatchQueue — see
/// WorkloadOptions) and clicking results per the rank-biased visit law from
/// visit_law.h. Blocks until every worker finished its quota, flushes all
/// feedback, and returns aggregate throughput and latency percentiles (see
/// WorkloadResult for which clock feeds the percentiles in each mode).
WorkloadResult RunQueryWorkload(ShardedRankServer& server,
                                const WorkloadOptions& options);

}  // namespace randrank

#endif  // RANDRANK_SERVE_QUERY_WORKLOAD_H_
