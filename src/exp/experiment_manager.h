#ifndef RANDRANK_EXP_EXPERIMENT_MANAGER_H_
#define RANDRANK_EXP_EXPERIMENT_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/community.h"
#include "core/policy/stochastic_ranking_policy.h"
#include "exp/live_metrics.h"
#include "exp/page_lifecycle.h"
#include "exp/traffic_split.h"
#include "serve/feedback.h"
#include "serve/sharded_rank_server.h"
#include "util/rng.h"

namespace randrank {

/// One experiment arm: a human-readable name plus the ranking policy it
/// serves. The policy may be replaced mid-run via
/// ExperimentManager::SwapPolicy (published atomically with the arm's next
/// epoch — the serve layer's hot-swap).
struct ArmSpec {
  std::string name;
  std::shared_ptr<const StochasticRankingPolicy> policy;
};

struct ExperimentOptions {
  /// Traffic fractions per arm. Leave `fractions` empty for an even split.
  TrafficSplit split;
  /// Serving shards per arm's ShardedRankServer.
  size_t shards = 4;
  /// Queries routed across the arms per epoch.
  size_t queries_per_epoch = 10000;
  /// Serving worker threads per epoch (each owns one context per arm).
  size_t threads = 1;
  /// Fraction of pages fully discovered (everyone aware, popularity ==
  /// quality) at t=0 — a mature engine's warm start, identical across arms.
  /// Leaves the experiment's undiscovered mass to the remaining fraction
  /// plus the churn-born newborns, which is what live discovery-speed
  /// comparisons are about. 0 reproduces the cold-start community.
  double prediscovered_fraction = 0.0;
  /// Observability (optional, borrowed): one registry/trace shared by every
  /// arm. Each arm's server instruments itself under the prefix
  /// "exp/arm:<name>" (per-arm serve histograms + publish spans), and
  /// RunEpoch publishes each arm's LiveMetrics snapshot as
  /// "exp/arm:<name>/live/<field>" gauges (the /live segment keeps them
  /// clear of the serve layer's counters under the same prefix) plus the
  /// live split fraction as "exp/arm:<name>/split" after absorbing the
  /// epoch.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceLog* trace = nullptr;
  uint64_t seed = 0xab5eedULL;
};

/// Online A/B experimentation over the serving engine: live query traffic is
/// split across N arms by deterministic user-id hash bucketing
/// (HashBucketer), each arm serving the SAME community under its own
/// StochasticRankingPolicy through its own ShardedRankServer. Every epoch
/// the manager
///
///   1. serves `queries_per_epoch` top-kTopM queries, routing each user's
///      traffic to their bucketed arm (worker threads, deterministic
///      query->worker partition, so runs are reproducible), each clicking
///      one result at a rank drawn from the community's rank->visit law
///      (paper Eq. 4, CommunityParams::rank_bias_exponent);
///   2. absorbs per-worker metric shards into each arm's LiveMetrics
///      (click-QPC, tail share, distinct pages, impression Gini/entropy,
///      newborn time-to-first-click);
///   3. folds each arm's observed clicks into ITS OWN awareness/popularity
///      state (arms are causally isolated: arm A's discoveries never leak
///      into arm B's ranking signal — the counterfactual the paper's
///      comparison needs);
///   4. applies ONE shared churn draw to every arm (common random numbers:
///      the same pages are born everywhere at the same epoch, so
///      discovery-speed comparisons measure the policies, not churn luck) —
///      one epoch per day of the community's retirement rate, so a
///      community with infinite `lifetime_days` has no churn;
///   5. stamps the epoch's churn births and ends the epoch; the NEXT
///      RunEpoch opens by publishing every arm's new epoch — applying any
///      pending SwapPolicy atomically with that publish, and any pending
///      SetSplit to the router, before any of that epoch's traffic — which
///      is the online ramp loop: raise the treatment fraction between
///      epochs, swap policy parameters mid-run, without ever dropping or
///      misrouting an in-flight query, and with every epoch's reported
///      metrics attributed to exactly the configuration that served it.
///
/// Driver-thread model: construction, RunEpoch, SwapPolicy, SetSplit, and
/// the accessors belong to one driver thread (RunEpoch spawns and joins its
/// own serving workers internally). The hot-swap itself is safe under
/// concurrent serving — that is the serve layer's contract, exercised
/// directly by tests/exp_test.cc under TSan.
class ExperimentManager {
 public:
  /// Results per query (the served "page one").
  static constexpr size_t kTopM = 10;

  ExperimentManager(const CommunityParams& community, std::vector<ArmSpec> arms,
                    ExperimentOptions options = {});

  /// Opens the next epoch (publishing every arm, with pending swaps/splits
  /// applied first), serves its split traffic, and closes it (steps 1-5
  /// above). Epochs are numbered from 1 (== every arm server's epoch()).
  void RunEpoch();

  /// Schedules `policy` to be published on `arm` at the start of the next
  /// RunEpoch (the serve layer's atomic hot-swap): that whole epoch is
  /// served — and reported — under the new policy. The arm's spec reflects
  /// it once published.
  void SwapPolicy(size_t arm, std::shared_ptr<const StochasticRankingPolicy> policy);

  /// Schedules new traffic fractions from the next RunEpoch on (the ramp
  /// primitive). Must keep the arm count. Assignment is hash-stable: units
  /// keep their arm wherever the new boundaries retain their interval (see
  /// HashBucketer's monotone-ramp property).
  void SetSplit(TrafficSplit split);

  size_t arms() const { return arm_states_.size(); }
  int64_t epoch() const { return epoch_; }
  const ArmSpec& arm_spec(size_t arm) const;
  const ShardedRankServer& arm_server(size_t arm) const;
  const ServingPageState& arm_page_state(size_t arm) const;
  LiveMetricsSnapshot ArmSnapshot(size_t arm) const;
  /// The reward summary of `arm`'s most recently run epoch (see
  /// LiveMetrics::EpochRewardSummary) — the observation the adaptive
  /// best-arm layer (src/bai/) feeds its scheduler after each RunEpoch.
  EpochReward ArmEpochReward(size_t arm) const;
  /// Per-newborn time-to-first-click samples (censored at `censor_epochs`),
  /// the input to the arm-vs-arm MannWhitneyZ discovery test.
  std::vector<double> ArmTtfcSamples(size_t arm, double censor_epochs) const;
  const HashBucketer& bucketer() const { return bucketer_; }
  /// Pages every arm shares: true quality by page id (identical across arms
  /// by construction).
  const std::vector<double>& quality() const;

  /// Writes one JSON line per arm for the epoch just run:
  ///   {"arm":"treatment","policy":"selective(r=0.10,k=2)","epoch":4,
  ///    "split":0.5,"epoch_queries":...,"click_qpc":...,...}
  /// Machine-readable live monitoring, same spirit as the bench JSONL.
  void EmitEpochJsonl(std::ostream& os) const;

 private:
  struct ArmState {
    ArmSpec spec;
    std::unique_ptr<ShardedRankServer> server;
    ServingPageState state;
    LiveMetrics metrics;
    std::shared_ptr<const StochasticRankingPolicy> pending_policy;
    Rng fold_rng{0};

    ArmState(ArmSpec s, std::unique_ptr<ShardedRankServer> srv,
             ServingPageState st, size_t n)
        : spec(std::move(s)),
          server(std::move(srv)),
          state(std::move(st)),
          metrics(n) {}
  };

  void ServeEpochTraffic();
  void PublishEpoch();

  CommunityParams community_;
  ExperimentOptions opts_;
  HashBucketer bucketer_;
  TrafficSplit pending_split_;
  bool has_pending_split_ = false;
  std::vector<ArmState> arm_states_;
  PageLifecycle lifecycle_;
  Rng churn_rng_{0};
  uint64_t click_seed_ = 0;
  int64_t epoch_ = 0;
  // Persistent per-worker serving state, indexed [worker][arm]: contexts
  // keep their Rng streams across epochs; shards are reset per epoch;
  // worker_rngs_ draw each query's user and clicked rank.
  std::vector<std::vector<ShardedRankServer::Context>> worker_contexts_;
  std::vector<std::vector<LiveMetrics::Shard>> worker_shards_;
  std::vector<Rng> worker_rngs_;
};

}  // namespace randrank

#endif  // RANDRANK_EXP_EXPERIMENT_MANAGER_H_
