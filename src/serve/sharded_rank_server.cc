#include "serve/sharded_rank_server.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/epoch_prefix_cache.h"

namespace randrank {

namespace {

/// Family slug of a policy label: the label up to its parameter list —
/// "selective(r=0.10,k=2)" -> "selective". It names the per-family latency
/// histograms and the family label of query spans.
std::string FamilySlug(const std::string& label) {
  return label.substr(0, label.find('('));
}

double MicrosBetween(std::chrono::steady_clock::time_point a,
                     std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

}  // namespace

ShardedRankServer::ShardedRankServer(
    std::shared_ptr<const StochasticRankingPolicy> policy, size_t num_pages,
    ServeOptions options)
    : policy_(std::move(policy)),
      initial_policy_(policy_),
      n_(num_pages),
      opts_(options),
      writer_rng_(Rng::ForStream(options.seed, 0)),
      visit_counts_(num_pages, 0) {
  assert(policy_ != nullptr && policy_->Valid());
  const size_t shards = std::max<size_t>(1, opts_.shards);
  shard_pages_.resize(std::min(shards, std::max<size_t>(1, num_pages)));
  for (uint32_t p = 0; p < num_pages; ++p) {
    shard_pages_[p % shard_pages_.size()].push_back(p);
  }
  if (opts_.metrics != nullptr) {
    // Failure-path endpoints are resolved (and the gauges zeroed) up front,
    // so a scrape sees them before any publish has failed.
    publish_failures_ctr_ =
        &opts_.metrics->GetCounter(opts_.obs_prefix + "/publish_failures");
    degraded_gauge_ = &opts_.metrics->GetGauge(opts_.obs_prefix + "/degraded");
    stale_epochs_gauge_ =
        &opts_.metrics->GetGauge(opts_.obs_prefix + "/epochs_since_publish");
    degraded_gauge_->Set(0.0);
    stale_epochs_gauge_->Set(0.0);
  }
}

std::shared_ptr<const StochasticRankingPolicy> ShardedRankServer::policy()
    const {
  const std::shared_ptr<const ServingView> view = store_.Load(nullptr);
  return view != nullptr ? view->policy : initial_policy_;
}

bool ShardedRankServer::Update(const std::vector<double>& popularity,
                               const std::vector<uint8_t>& zero_awareness,
                               const std::vector<int64_t>& birth_step,
                               ThreadPool* pool) {
  return Update(popularity, zero_awareness, birth_step, nullptr, pool);
}

bool ShardedRankServer::Update(
    const std::vector<double>& popularity,
    const std::vector<uint8_t>& zero_awareness,
    const std::vector<int64_t>& birth_step,
    std::shared_ptr<const StochasticRankingPolicy> new_policy,
    ThreadPool* pool) {
  assert(popularity.size() == n_);
  assert(zero_awareness.size() == n_);
  assert(birth_step.size() == n_);
  using Clock = std::chrono::steady_clock;
  const bool tracing = opts_.trace != nullptr;
  const Clock::time_point publish_start = Clock::now();
  const bool swapping = new_policy != nullptr;
  double swap_us = 0.0;
  // Rollback anchor: if any build phase below throws, the pending policy
  // reverts to this, nothing is published, and the previous epoch keeps
  // serving — the publish is transactional.
  const std::shared_ptr<const StochasticRankingPolicy> prev_policy = policy_;
  if (swapping) {
    // Hot-swap: the new policy ranks this epoch and every later one. It is
    // only ever observed through the view published below, so in-flight
    // queries pinned to the previous epoch keep serving under the previous
    // policy — the swap is atomic at epoch granularity.
    assert(new_policy->Valid());
    const Clock::time_point t0 = Clock::now();
    policy_ = std::move(new_policy);
    swap_us = MicrosBetween(t0, Clock::now());
  }

  const uint64_t epoch = epoch_.load(std::memory_order_relaxed) + 1;
  try {
    auto view = std::make_shared<ServingView>();
    view->epoch = epoch;
    view->policy = policy_;
    view->shards.resize(shard_pages_.size());

    // Fault site: abort (kFail) or slow (kDelay) the shard-build phase.
    fault::CheckAbortable(fault::kPublishShards,
                          fault::Hash(fault::kPublishShards), epoch);

    // Each shard build gets a forked rng so parallel builds stay independent
    // and the build is deterministic given the writer stream.
    std::vector<Rng> build_rngs;
    build_rngs.reserve(shard_pages_.size());
    for (size_t s = 0; s < shard_pages_.size(); ++s) {
      build_rngs.push_back(writer_rng_.Fork());
    }

    auto build_shard = [&](size_t s) {
      // Per-shard epoch state is skipped: server queries consume only the
      // EpochPrefixCache's global state, never a shard-local one.
      view->shards[s] = RankSnapshot::Build(
          policy_, epoch, shard_pages_[s], popularity, zero_awareness,
          birth_step, build_rngs[s], /*build_epoch_state=*/false);
    };
    const Clock::time_point shards_start = Clock::now();
    if (pool != nullptr && shard_pages_.size() > 1) {
      ParallelFor(*pool, shard_pages_.size(), build_shard);
    } else {
      for (size_t s = 0; s < shard_pages_.size(); ++s) build_shard(s);
    }
    const Clock::time_point shards_done = Clock::now();

    // The materialized global merge order plus whatever the policy's
    // BuildEpochState derives from it (Plackett-Luce's alias table) — the
    // one view every query of this epoch realizes against. Carries the
    // publish.merge / publish.epoch_state fault sites internally.
    EpochPrefixCache::BuildPhaseTimings cache_timings;
    view->cache =
        EpochPrefixCache::Build(*view, tracing ? &cache_timings : nullptr);

    view->obs = BuildObsHooks();
    // Fault site: the last abort point before the irreversible RCU swap —
    // past here the epoch is published and cannot roll back by design.
    fault::CheckAbortable(fault::kPublishRcu, fault::Hash(fault::kPublishRcu),
                          epoch);
    const Clock::time_point rcu_start = Clock::now();
    store_.Publish(std::move(view));
    epoch_.store(epoch, std::memory_order_release);
    const Clock::time_point publish_done = Clock::now();

    if (failed_since_success_.load(std::memory_order_relaxed) != 0) {
      // Recovery: the first clean publish after failures clears the
      // degraded state (queries are fresh again).
      failed_since_success_.store(0, std::memory_order_relaxed);
      if (degraded_gauge_ != nullptr) {
        degraded_gauge_->Set(0.0);
        stale_epochs_gauge_->Set(0.0);
      }
    }
    if (opts_.metrics != nullptr) {
      const uint64_t publish_ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(publish_done -
                                                               publish_start)
              .count());
      opts_.metrics->GetHistogram(opts_.obs_prefix + "/publish_ns")
          .Record(publish_ns);
      opts_.metrics->GetCounter(opts_.obs_prefix + "/publishes").Add();
      opts_.metrics->GetGauge(opts_.obs_prefix + "/epoch")
          .Set(static_cast<double>(epoch));
    }
    if (tracing) {
      // Per-phase publish spans, one line each, always emitted (publishes are
      // rare): shard re-sort, merge, BuildEpochState, the policy swap when
      // one rode this publish, the RCU pointer swap, and the whole publish
      // as the parent span.
      const auto e = static_cast<double>(epoch);
      const auto s = static_cast<double>(shard_pages_.size());
      const double sw = swapping ? 1.0 : 0.0;
      obs::TraceLog& trace = *opts_.trace;
      trace.EmitSpan("publish/shards", MicrosBetween(shards_start, shards_done),
                     {{"epoch", e}, {"shards", s}});
      trace.EmitSpan("publish/merge", cache_timings.merge_us,
                     {{"epoch", e}, {"shards", s}});
      trace.EmitSpan("publish/epoch_state", cache_timings.epoch_state_us,
                     {{"epoch", e}});
      if (swapping) {
        trace.EmitSpan("publish/policy_swap", swap_us, {{"epoch", e}},
                       {{"family", FamilySlug(policy_->Label())}});
      }
      trace.EmitSpan("publish/rcu_publish",
                     MicrosBetween(rcu_start, publish_done), {{"epoch", e}});
      trace.EmitSpan("publish/total",
                     MicrosBetween(publish_start, publish_done),
                     {{"epoch", e}, {"shards", s}, {"swap", sw}},
                     {{"family", FamilySlug(policy_->Label())}});
    }
    return true;
  } catch (const std::exception& ex) {
    // Transactional rollback: nothing was published (store_ and epoch_ are
    // only touched after the last abortable site), so readers keep serving
    // the previous snapshot bit-identically. A policy swap that rode this
    // failed publish is undone too — it never became observable.
    if (swapping) policy_ = prev_policy;
    publish_failures_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t stale =
        failed_since_success_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (opts_.metrics != nullptr) {
      publish_failures_ctr_->Add();
      degraded_gauge_->Set(1.0);
      stale_epochs_gauge_->Set(static_cast<double>(stale));
    }
    if (tracing) {
      opts_.trace->EmitSpan(
          "publish/aborted", MicrosBetween(publish_start, Clock::now()),
          {{"epoch", static_cast<double>(epoch)},
           {"stale_epochs", static_cast<double>(stale)}},
          {{"reason", ex.what()}});
    }
    return false;
  }
}

std::shared_ptr<const ServeObsHooks> ShardedRankServer::BuildObsHooks()
    const {
  if (opts_.metrics == nullptr) return nullptr;
  auto hooks = std::make_shared<ServeObsHooks>();
  hooks->family = FamilySlug(policy_->Label());
  hooks->latency = &opts_.metrics->GetHistogram(opts_.obs_prefix +
                                                "/latency_ns/" + hooks->family);
  hooks->queries = &opts_.metrics->GetCounter(opts_.obs_prefix + "/queries");
  hooks->slots = &opts_.metrics->GetCounter(opts_.obs_prefix + "/slots");
  if (opts_.trace != nullptr && opts_.trace->sample_every() > 0) {
    hooks->trace = opts_.trace;
    hooks->sample_every = opts_.trace->sample_every();
  }
  return hooks;
}

ShardedRankServer::Context ShardedRankServer::CreateContext() const {
  Context ctx;
  ctx.handle_ = SnapshotHandle<ServingView>(&store_);
  // Stream 0 belongs to the writer; contexts take 1, 2, ...
  const uint64_t stream =
      1 + context_seq_.fetch_add(1, std::memory_order_relaxed);
  ctx.rng_ = Rng::ForStream(opts_.seed, stream);
  ctx.visit_batch_.reserve(opts_.feedback_batch);
  return ctx;
}

size_t ShardedRankServer::ServeTopM(Context& ctx, size_t m,
                                    std::vector<uint32_t>* out) const {
  out->clear();
  const ServingView* view = ctx.handle_.Get();
  if (view == nullptr || m == 0) return 0;
  return ServeOne(ctx, *view, m, out);
}

size_t ShardedRankServer::ServeBatch(Context& ctx, QueryBatch* batch) const {
  for (auto& result : batch->results) result.clear();
  const ServingView* view = ctx.handle_.Get();
  batch->epoch = view != nullptr ? view->epoch : 0;
  if (view == nullptr || batch->m == 0) return 0;
  const ServeObsHooks* hooks = view->obs.get();
  const size_t queries = batch->results.size();
  if (hooks == nullptr || queries == 0) {
    size_t total = 0;
    for (auto& result : batch->results) {
      total += ServeUninstrumented(ctx, *view, batch->m, &result);
    }
    return total;
  }

  // Batch-granular stamping: two clock reads and one histogram write cover
  // the whole batch, booking each query's amortized share (batch_ns /
  // queries). Within one batch of identical-m queries the per-query spread
  // is below fast-clock resolution anyway; the latency tail that matters —
  // cross-batch variation from cache misses, epoch swaps, load — survives
  // intact, and the per-query instrumentation cost drops to ~batch_size-th
  // of ServeOne's (the serve/obs ablation's <= 5% QPS gate is measured on
  // this path at batch=16).
  const uint64_t t0 = obs::FastNowNs();
  size_t total = 0;
  for (auto& result : batch->results) {
    total += ServeUninstrumented(ctx, *view, batch->m, &result);
  }
  const uint64_t batch_ns = obs::FastNowNs() - t0;
  hooks->latency->RecordN(batch_ns / queries, queries);
  hooks->queries->Add(queries);
  hooks->slots->Add(total);
  if (hooks->trace != nullptr && ctx.obs_seq_++ % hooks->sample_every == 0) {
    hooks->trace->EmitSpan("serve/batch",
                           static_cast<double>(batch_ns) * 1e-3,
                           {{"epoch", static_cast<double>(view->epoch)},
                            {"m", static_cast<double>(batch->m)},
                            {"queries", static_cast<double>(queries)},
                            {"served", static_cast<double>(total)}},
                           {{"family", hooks->family}});
  }
  return total;
}

size_t ShardedRankServer::ServeOne(Context& ctx, const ServingView& view,
                                   size_t m, std::vector<uint32_t>* out) const {
  const ServeObsHooks* hooks = view.obs.get();
  if (hooks == nullptr) return ServeUninstrumented(ctx, view, m, out);

  // True per-query service time: stamped around the realization itself, so
  // the histogram measures each query — not batch wall time averaged — at a
  // fixed few-ns cost (two fast-clock reads + one relaxed fetch_add).
  const uint64_t t0 = obs::FastNowNs();
  const size_t served = ServeUninstrumented(ctx, view, m, out);
  const uint64_t service_ns = obs::FastNowNs() - t0;
  hooks->latency->Record(service_ns);
  hooks->queries->Add();
  hooks->slots->Add(served);
  if (hooks->trace != nullptr && ctx.obs_seq_++ % hooks->sample_every == 0) {
    hooks->trace->EmitSpan("serve/query",
                           static_cast<double>(service_ns) * 1e-3,
                           {{"epoch", static_cast<double>(view.epoch)},
                            {"m", static_cast<double>(m)},
                            {"served", static_cast<double>(served)}},
                           {{"family", hooks->family}});
  }
  return served;
}

size_t ShardedRankServer::ServeUninstrumented(
    Context& ctx, const ServingView& view, size_t m,
    std::vector<uint32_t>* out) const {
  // Hot-path fault site, delay-only (slow-shard simulation) — queries are
  // never failed here, so a chaos run's answers stay correct. Disabled cost
  // is one acquire load (a plain load on x86) + branch; an armed-but-inert
  // injector adds a single mask test. Both are priced by bench/perf_fault;
  // the serve/fault:on rule in bench/baseline_smoke.json gates them at 1%.
  {
    static constexpr uint64_t kHash = fault::Hash(fault::kServeQuery);
    fault::Decision decision;
    if (fault::Check(fault::kServeQuery, kHash, view.epoch, &decision)) {
      fault::ApplyDelay(decision);
    }
  }
  // Dispatch through the policy the pinned view was built with — not any
  // server-level member — so a concurrent hot-swap Update can never pair a
  // query with a policy that mismatches its ranking state. The cross-shard
  // deterministic merge, the global pool, and the policy's per-epoch state
  // were materialized once when this epoch was published; the policy
  // realizes against that single pre-merged global view (promotion:
  // protected-prefix copy + O(m) splice; Plackett-Luce: O(m) expected alias
  // draws; epsilon-tail: head copy + explored slots only).
  const EpochPrefixCache& cache = *view.cache;
  const ShardView global = cache.AsView();
  return view.policy->ServePrefix(&global, 1, cache.policy_state.get(),
                                  ctx.scratch_, m, ctx.rng_, out);
}

void ShardedRankServer::RecordVisit(Context& ctx, uint32_t page) {
  assert(page < n_);
  ctx.visit_batch_.push_back(page);
  if (ctx.visit_batch_.size() >= opts_.feedback_batch) FlushFeedback(ctx);
}

void ShardedRankServer::FlushFeedback(Context& ctx) {
  if (ctx.visit_batch_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(feedback_mutex_);
    for (const uint32_t page : ctx.visit_batch_) ++visit_counts_[page];
  }
  total_visits_.fetch_add(ctx.visit_batch_.size(), std::memory_order_relaxed);
  ctx.visit_batch_.clear();
}

std::vector<uint64_t> ShardedRankServer::DrainVisits() {
  std::vector<uint64_t> drained(n_, 0);
  std::lock_guard<std::mutex> lock(feedback_mutex_);
  visit_counts_.swap(drained);
  return drained;
}

}  // namespace randrank
