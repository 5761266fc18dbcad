#include "serve/sharded_rank_server.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <string_view>

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

/// Visits a context buffers before RecordVisit folds them into the shared
/// feedback counters (amortizes the feedback lock).
constexpr size_t kFeedbackBatch = 256;

double MicrosBetween(std::chrono::steady_clock::time_point a,
                     std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// The fault point guarding each entry of kPublishPhases.
constexpr std::array<std::string_view, 4> kPhasePoints = {
    fault::kPublishShards, fault::kPublishMerge, fault::kPublishEpochState,
    fault::kPublishRcu};
static_assert(kPhasePoints.size() == ShardedRankServer::kPublishPhases.size());

}  // namespace

ShardedRankServer::ShardedRankServer(
    std::shared_ptr<const StochasticRankingPolicy> policy, size_t num_pages,
    ServeOptions options)
    : policy_(std::move(policy)),
      initial_policy_(policy_),
      n_(num_pages),
      opts_(options),
      shards_(std::min(std::max<size_t>(1, options.shards),
                       std::max<size_t>(1, num_pages))),
      writer_rng_(Rng::ForStream(options.seed, 0)),
      visit_counts_(num_pages, 0) {
  assert(policy_ != nullptr && policy_->Valid());
  if (opts_.metrics != nullptr) {
    // Failure-path endpoints are resolved (and the gauges zeroed) up front,
    // so a scrape sees them before any publish has failed.
    publish_failures_ctr_ =
        &opts_.metrics->GetCounter(opts_.obs_prefix + "/publish_failures");
    for (size_t i = 0; i < kPublishPhases.size(); ++i) {
      phase_failures_ctr_[i] = &opts_.metrics->GetCounter(
          opts_.obs_prefix + "/publish_failures/" +
          std::string(kPublishPhases[i]));
    }
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

bool ShardedRankServer::Update(
    const std::vector<double>& popularity,
    const std::vector<uint8_t>& zero_awareness,
    const std::vector<int64_t>& birth_step,
    std::shared_ptr<const StochasticRankingPolicy> new_policy) {
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
  // The kPublishPhases entry running, so a rollback records where it failed.
  size_t phase = 0;
  const auto begin_phase = [&phase, epoch](size_t next) {
    phase = next;
    // Fault site: abort (kFail) or slow (kDelay) this phase.
    fault::CheckAbortable(kPhasePoints[next], fault::Hash(kPhasePoints[next]),
                          epoch);
  };
  try {
    begin_phase(0);  // shards
    // Partition: page p draws its pool membership from the writer-stream
    // fork of shard p % S and joins that shard's pool, so every Rng draw and
    // the pool order (shard by shard, ascending id within each) are those of
    // S separate shard partitions.
    std::vector<Rng> build_rngs;
    build_rngs.reserve(shards_);
    for (size_t s = 0; s < shards_; ++s) {
      build_rngs.push_back(writer_rng_.Fork());
    }
    const Clock::time_point shards_start = Clock::now();
    auto cache = std::make_shared<EpochPrefixCache>();
    cache->epoch = epoch;
    cache->det.reserve(n_);
    std::vector<std::vector<uint32_t>> shard_pools(shards_);
    size_t shard = 0;
    for (uint32_t p = 0; p < n_; ++p) {
      if (policy_->PoolMembership(zero_awareness[p] != 0, build_rngs[shard])) {
        shard_pools[shard].push_back(p);
      } else {
        cache->det.push_back(p);
      }
      if (++shard == shards_) shard = 0;
    }
    for (const std::vector<uint32_t>& pool : shard_pools) {
      cache->pool.insert(cache->pool.end(), pool.begin(), pool.end());
    }
    const Clock::time_point shards_done = Clock::now();

    // The global deterministic order: one sort over the whole corpus.
    begin_phase(1);  // merge
    SortByRankOrder(popularity, birth_step, &cache->det, &cache->det_score);
    const Clock::time_point merge_done = Clock::now();

    // Whatever the policy derives from the global view (Plackett-Luce's
    // alias table, ts-promo's coin table) — with the arrays above, the one
    // view every query of this epoch realizes against.
    begin_phase(2);  // epoch_state
    cache->policy_state = policy_->BuildEpochState(cache->AsView());
    const Clock::time_point state_done = Clock::now();

    auto view = std::make_shared<ServingView>();
    view->epoch = epoch;
    view->policy = policy_;
    view->cache = std::move(cache);
    view->obs = BuildObsHooks();
    // The last abort point before the irreversible RCU swap — past here the
    // epoch is published and cannot roll back by design.
    begin_phase(3);  // rcu_publish
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
      // rare): the partition (publish/shards), the deterministic sort
      // (publish/merge), BuildEpochState, the policy swap when one rode this
      // publish, the RCU pointer swap, and the whole publish as the parent
      // span.
      const auto e = static_cast<double>(epoch);
      const auto s = static_cast<double>(shards_);
      const double sw = swapping ? 1.0 : 0.0;
      obs::TraceLog& trace = *opts_.trace;
      trace.EmitSpan("publish/shards", MicrosBetween(shards_start, shards_done),
                     {{"epoch", e}, {"shards", s}});
      trace.EmitSpan("publish/merge", MicrosBetween(shards_done, merge_done),
                     {{"epoch", e}, {"shards", s}});
      trace.EmitSpan("publish/epoch_state",
                     MicrosBetween(merge_done, state_done), {{"epoch", e}});
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
    phase_failures_[phase].fetch_add(1, std::memory_order_relaxed);
    const uint64_t stale =
        failed_since_success_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (opts_.metrics != nullptr) {
      publish_failures_ctr_->Add();
      phase_failures_ctr_[phase]->Add();
      degraded_gauge_->Set(1.0);
      stale_epochs_gauge_->Set(static_cast<double>(stale));
    }
    if (tracing) {
      opts_.trace->EmitSpan(
          "publish/aborted", MicrosBetween(publish_start, Clock::now()),
          {{"epoch", static_cast<double>(epoch)},
           {"stale_epochs", static_cast<double>(stale)}},
          {{"reason", ex.what()},
           {"phase", std::string(kPublishPhases[phase])}});
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
  ctx.visit_batch_.reserve(kFeedbackBatch);
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
  // query with a policy that mismatches its ranking state. The global
  // deterministic order, the global pool, and the policy's per-epoch state
  // were materialized once when this epoch was published; the policy
  // realizes against that single global view (promotion:
  // protected-prefix copy + O(m) splice; Plackett-Luce: O(m) expected alias
  // draws rejected against a flat emitted set; epsilon-tail: head copy +
  // explored slots only; ts-promo: head copy + one uniform per contested
  // slot against the epoch's coin table).
  const EpochPrefixCache& cache = *view.cache;
  const ShardView global = cache.AsView();
  return view.policy->ServePrefix(&global, 1, cache.policy_state.get(),
                                  ctx.scratch_, m, ctx.rng_, out);
}

void ShardedRankServer::RecordVisit(Context& ctx, uint32_t page) {
  assert(page < n_);
  ctx.visit_batch_.push_back(page);
  if (ctx.visit_batch_.size() >= kFeedbackBatch) FlushFeedback(ctx);
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
