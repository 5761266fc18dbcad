#include "exp/experiment_manager.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "core/visit_law.h"
#include "obs/metrics.h"

namespace randrank {

namespace {

TrafficSplit ResolveSplit(const TrafficSplit& requested, size_t arms) {
  if (requested.fractions.empty()) {
    return TrafficSplit::Even(arms, requested.salt);
  }
  if (requested.fractions.size() != arms || !requested.Valid()) {
    throw std::invalid_argument(
        "ExperimentOptions.split must be empty (even split) or hold one "
        "valid fraction per arm");
  }
  return requested;
}

}  // namespace

ExperimentManager::ExperimentManager(const CommunityParams& community,
                                     std::vector<ArmSpec> arms,
                                     ExperimentOptions options)
    : community_(community),
      opts_(options),
      bucketer_(ResolveSplit(options.split, arms.size())),
      lifecycle_(community) {
  if (arms.empty()) {
    throw std::invalid_argument("an experiment needs at least one arm");
  }
  for (const ArmSpec& spec : arms) {
    if (spec.policy == nullptr || !spec.policy->Valid()) {
      throw std::invalid_argument("arm \"" + spec.name +
                                  "\" has no valid policy");
    }
  }
  assert(community_.Valid());
  opts_.threads = std::max<size_t>(1, opts_.threads);

  // One seed tree: quality assignment (shared by every arm), churn stream,
  // click/traffic streams, per-arm fold + serving seeds.
  uint64_t mix = opts_.seed;
  Rng setup_rng(SplitMix64(&mix));
  churn_rng_ = Rng(SplitMix64(&mix) ^ 0xc4081ULL);
  click_seed_ = SplitMix64(&mix) ^ 0xc11c5eedULL;

  // Every arm serves the SAME community: one quality assignment, copied
  // into per-arm mutable state (awareness diverges as each arm's own
  // traffic folds back).
  ServingPageState base = MakeServingPageState(community_, setup_rng);
  if (opts_.prediscovered_fraction > 0.0) {
    for (size_t p = 0; p < base.n(); ++p) {
      if (setup_rng.NextBernoulli(opts_.prediscovered_fraction)) {
        base.aware[p] = static_cast<uint32_t>(community_.u);
        base.popularity[p] = base.quality[p];
        base.zero_awareness[p] = 0;
      }
    }
  }
  arm_states_.reserve(arms.size());
  for (size_t a = 0; a < arms.size(); ++a) {
    ServeOptions sopts;
    sopts.shards = opts_.shards;
    sopts.seed = SplitMix64(&mix) + a;
    sopts.metrics = opts_.metrics;
    sopts.trace = opts_.trace;
    sopts.obs_prefix = "exp/arm:" + arms[a].name;
    auto server = std::make_unique<ShardedRankServer>(arms[a].policy,
                                                      community_.n, sopts);
    arm_states_.emplace_back(std::move(arms[a]), std::move(server), base,
                             community_.n);
    arm_states_.back().fold_rng = Rng(SplitMix64(&mix) ^ (a * 0x9e37ULL));
  }

  // The first epoch is published by the first RunEpoch (PublishEpoch runs
  // at the START of each epoch, so pending swaps/splits scheduled before a
  // RunEpoch are active for exactly that epoch — the configuration the
  // epoch's metrics are attributed to is the one that actually served it).

  // Persistent per-worker serving state: contexts (one per arm, so a
  // worker's Rng streams survive across epochs), metric shards, and the
  // traffic rng that draws each query's user and clicked rank.
  worker_contexts_.resize(opts_.threads);
  worker_shards_.resize(opts_.threads);
  worker_rngs_.reserve(opts_.threads);
  for (size_t t = 0; t < opts_.threads; ++t) {
    worker_rngs_.push_back(Rng::ForStream(click_seed_, t));
    worker_contexts_[t].reserve(arm_states_.size());
    for (ArmState& arm : arm_states_) {
      worker_contexts_[t].push_back(arm.server->CreateContext());
      worker_shards_[t].emplace_back(community_.n);
    }
  }
}

const ArmSpec& ExperimentManager::arm_spec(size_t arm) const {
  return arm_states_.at(arm).spec;
}

const ShardedRankServer& ExperimentManager::arm_server(size_t arm) const {
  return *arm_states_.at(arm).server;
}

const ServingPageState& ExperimentManager::arm_page_state(size_t arm) const {
  return arm_states_.at(arm).state;
}

LiveMetricsSnapshot ExperimentManager::ArmSnapshot(size_t arm) const {
  return arm_states_.at(arm).metrics.Snapshot();
}

EpochReward ExperimentManager::ArmEpochReward(size_t arm) const {
  return arm_states_.at(arm).metrics.EpochRewardSummary();
}

std::vector<double> ExperimentManager::ArmTtfcSamples(
    size_t arm, double censor_epochs) const {
  return arm_states_.at(arm).metrics.TtfcSamples(censor_epochs);
}

const std::vector<double>& ExperimentManager::quality() const {
  return arm_states_.front().state.quality;
}

void ExperimentManager::SwapPolicy(
    size_t arm, std::shared_ptr<const StochasticRankingPolicy> policy) {
  if (policy == nullptr || !policy->Valid()) {
    throw std::invalid_argument("SwapPolicy needs a valid policy");
  }
  arm_states_.at(arm).pending_policy = std::move(policy);
}

void ExperimentManager::SetSplit(TrafficSplit split) {
  if (split.fractions.size() != arms() || !split.Valid()) {
    throw std::invalid_argument(
        "SetSplit needs one valid fraction per existing arm");
  }
  pending_split_ = std::move(split);
  has_pending_split_ = true;
}

void ExperimentManager::ServeEpochTraffic() {
  const size_t threads = opts_.threads;
  const size_t total = opts_.queries_per_epoch;
  const VisitLaw click_law(kTopM, 1.0, community_.rank_bias_exponent);

  auto worker = [&](size_t t) {
    // Deterministic contiguous partition of the epoch's query indices, so
    // each worker's Rng consumption — and therefore the whole epoch's
    // realized traffic — is independent of thread scheduling.
    const size_t begin = t * total / threads;
    const size_t end = (t + 1) * total / threads;
    Rng& traffic_rng = worker_rngs_[t];
    std::vector<ShardedRankServer::Context>& contexts = worker_contexts_[t];
    std::vector<LiveMetrics::Shard>& shards = worker_shards_[t];

    std::vector<uint32_t> results;
    results.reserve(kTopM);
    for (size_t q = begin; q < end; ++q) {
      // Unit of diversion: the querying user. Hash bucketing keeps each
      // user's arm fixed for the whole experiment (and across ramps, for
      // the arms whose interval is retained), consuming no randomness.
      const uint64_t user = traffic_rng.NextIndex(community_.u);
      const size_t a = bucketer_.ArmForId(user);
      ShardedRankServer& server = *arm_states_[a].server;
      server.ServeTopM(contexts[a], kTopM, &results);
      // Resolve the served list into the arm's metric shard and its
      // (rank-biased) click feedback.
      shards[a].RecordResult(results.data(), results.size());
      if (results.empty()) continue;
      size_t rank = click_law.SampleRank(traffic_rng);
      if (rank > results.size()) rank = results.size();
      const uint32_t clicked = results[rank - 1];
      server.RecordVisit(contexts[a], clicked);
      shards[a].RecordClick(clicked);
    }
    for (size_t a = 0; a < arm_states_.size(); ++a) {
      arm_states_[a].server->FlushFeedback(contexts[a]);
    }
  };

  if (threads == 1) {
    worker(0);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (size_t t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  for (auto& th : pool) th.join();
}

void ExperimentManager::PublishEpoch() {
  for (ArmState& arm : arm_states_) {
    // A pending hot-swap rides the epoch publish: the new policy, its
    // ranking state, and its epoch cache swap in as one atomic unit.
    std::shared_ptr<const StochasticRankingPolicy> swap =
        std::move(arm.pending_policy);
    arm.pending_policy = nullptr;
    arm.server->Update(arm.state.popularity, arm.state.zero_awareness,
                       arm.state.birth_step, swap);
    if (swap != nullptr) arm.spec.policy = std::move(swap);
  }
  if (has_pending_split_) {
    // Segment-preserving reallocation: only users of arms that LOST share
    // can move, and only into arms that gained — survivors of an
    // elimination keep their population (HashBucketer's stability
    // contract, pinned by exp_test).
    bucketer_ = bucketer_.Reallocated(pending_split_);
    pending_split_ = TrafficSplit{};
    has_pending_split_ = false;
  }
}

void ExperimentManager::RunEpoch() {
  const int64_t serving = epoch_ + 1;
  // Pending SwapPolicy/SetSplit apply here, before any of this epoch's
  // traffic: the served configuration IS the one reported for the epoch.
  PublishEpoch();
  for (ArmState& arm : arm_states_) {
    assert(static_cast<int64_t>(arm.server->epoch()) == serving);
    arm.metrics.BeginEpoch(serving);
  }
  for (auto& shards : worker_shards_) {
    for (auto& shard : shards) shard.Reset();
  }

  ServeEpochTraffic();

  for (size_t a = 0; a < arm_states_.size(); ++a) {
    ArmState& arm = arm_states_[a];
    // Absorb against the state the epoch was SERVED under (pre-fold).
    for (size_t t = 0; t < opts_.threads; ++t) {
      arm.metrics.Absorb(worker_shards_[t][a], arm.state);
    }
    // Each arm folds only its own observed clicks: causal isolation.
    FoldVisits(arm.server->DrainVisits(), &arm.state, arm.fold_rng);
  }

  // One churn realization, applied to every arm (common random numbers).
  // Reborn pages enter the ranking state at the next epoch's publish.
  const std::vector<uint32_t> dead = lifecycle_.DrawDeaths(churn_rng_);
  for (ArmState& arm : arm_states_) {
    PageLifecycle::ApplyDeaths(dead, serving, &arm.state);
    arm.metrics.RecordBirths(dead, serving);
  }

  if (opts_.metrics != nullptr) {
    // The epoch's health metrics ride the registry under the same per-arm
    // prefixes the serve layer instruments, one exporter feed for the run.
    // The live gauges get their own /live segment: the serve layer already
    // owns e.g. exp/arm:X/queries as a counter, and the registry rejects
    // re-registering a name as a different kind.
    for (size_t a = 0; a < arm_states_.size(); ++a) {
      const std::string prefix = "exp/arm:" + arm_states_[a].spec.name;
      arm_states_[a].metrics.PublishTo(*opts_.metrics, prefix + "/live");
      opts_.metrics->GetGauge(prefix + "/split")
          .Set(bucketer_.split().fractions[a]);
    }
  }

  epoch_ = serving;
}

void ExperimentManager::EmitEpochJsonl(std::ostream& os) const {
  for (size_t a = 0; a < arm_states_.size(); ++a) {
    const ArmState& arm = arm_states_[a];
    const LiveMetricsSnapshot snap = arm.metrics.Snapshot();
    os.precision(std::numeric_limits<double>::max_digits10);
    os << "{\"arm\":\"" << arm.spec.name << "\",\"policy\":\""
       << arm.spec.policy->Label() << "\",\"epoch\":" << epoch_
       << ",\"split\":" << bucketer_.split().fractions[a]
       << ",\"epoch_queries\":" << snap.epoch_queries
       << ",\"epoch_clicks\":" << snap.epoch_clicks
       << ",\"queries\":" << snap.queries << ",\"clicks\":" << snap.clicks
       << ",\"click_qpc\":" << snap.click_qpc
       << ",\"tail_share\":" << snap.tail_share
       << ",\"distinct_pages\":" << snap.distinct_pages
       << ",\"impression_gini\":" << snap.impression_gini
       << ",\"impression_entropy_bits\":" << snap.impression_entropy_bits
       << ",\"newborn_births\":" << snap.newborn_births
       << ",\"newborn_clicked\":" << snap.newborn_clicked
       << ",\"ttfc_median_epochs\":" << snap.ttfc_median_epochs << "}\n";
  }
}

}  // namespace randrank
