#ifndef RANDRANK_EXP_LIVE_METRICS_H_
#define RANDRANK_EXP_LIVE_METRICS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/feedback.h"

namespace randrank {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// Point-in-time read of one arm's LiveMetrics (cumulative over the run,
/// plus the current epoch's traffic counts). The fields the paper's
/// comparative claim needs, measured on live serving traffic instead of the
/// offline simulator:
///   * click-QPC — expected true quality per click (paper Section 6.3's
///     quality-per-click, over real served clicks);
///   * tail share — fraction of clicks spent on pages undiscovered at serve
///     time (the exploration budget actually paid);
///   * distinct pages / impression Gini / impression entropy — how broadly
///     the policy spreads exposure (entrenchment shows up as high Gini, low
///     entropy, few distinct pages);
///   * newborn time-to-first-click — epochs from a churn birth to the
///     page's first click in THIS arm; the discovery-speed statistic the
///     randomized-vs-deterministic live comparison is decided on.
struct LiveMetricsSnapshot {
  // Traffic (cumulative).
  uint64_t queries = 0;
  uint64_t slots_served = 0;
  uint64_t clicks = 0;
  // Clicked-quality metrics (cumulative).
  double click_qpc = 0.0;
  double tail_share = 0.0;
  // Exposure spread (cumulative impressions per page).
  size_t distinct_pages = 0;
  double impression_gini = 0.0;
  double impression_entropy_bits = 0.0;
  // Newborn discovery (pages born by churn during the run).
  size_t newborn_births = 0;
  size_t newborn_clicked = 0;
  /// Median epochs from birth to first click over *discovered* newborns
  /// (0 when none clicked yet). For censoring-aware comparisons use
  /// LiveMetrics::TtfcSamples instead.
  double ttfc_median_epochs = 0.0;
  // Current epoch's traffic (reset by BeginEpoch).
  uint64_t epoch_queries = 0;
  uint64_t epoch_clicks = 0;
};

/// One epoch's clicked-quality reward summary — the observation an adaptive
/// (best-arm identification) scheduler consumes per arm per epoch. All
/// fields cover ONLY the epoch since the last BeginEpoch.
struct EpochReward {
  uint64_t queries = 0;
  uint64_t clicks = 0;
  /// Sum and sum-of-squares of clicked true qualities (for posterior /
  /// variance estimates without re-walking samples).
  double quality_sum = 0.0;
  double quality_sq_sum = 0.0;
  /// Mean clicked quality — the epoch's click-QPC; 0 with no clicks.
  double mean = 0.0;
  /// Conditional value-at-risk of clicked quality: the mean of the worst
  /// ceil(LiveMetrics::kCvarAlpha * clicks) clicked qualities this epoch
  /// (0 with no clicks). The guardrail statistic — a policy can look fine
  /// on mean QPC while serving a brutal worst tail; CVaR catches that.
  double cvar = 0.0;
};

/// Per-arm metrics accumulator for live experiments.
///
/// Threading model: serving workers record into worker-local `Shard`s (no
/// synchronization on the query path); the experiment manager absorbs the
/// shards at epoch end, on the writer thread, resolving qualities,
/// undiscovered flags, and newborn first-clicks against the arm's page
/// state — which is constant throughout an epoch's serving, because
/// feedback folds and churn happen only at epoch boundaries.
class LiveMetrics {
 public:
  /// Worker-local accumulation for one epoch of one arm's traffic: raw
  /// impression counts and clicked page ids, resolved to metrics at absorb
  /// time. Reused across epochs via Reset().
  struct Shard {
    explicit Shard(size_t n) : impressions(n, 0) {}

    void RecordResult(const uint32_t* results, size_t count) {
      ++queries;
      for (size_t i = 0; i < count; ++i) ++impressions[results[i]];
      slots += count;
    }
    void RecordClick(uint32_t page) { clicked.push_back(page); }
    void Reset() {
      std::fill(impressions.begin(), impressions.end(), 0u);
      clicked.clear();
      queries = 0;
      slots = 0;
    }

    std::vector<uint32_t> impressions;
    std::vector<uint32_t> clicked;
    uint64_t queries = 0;
    uint64_t slots = 0;
  };

  explicit LiveMetrics(size_t n);

  /// Starts a new epoch: zeroes the epoch-scoped counters. `epoch` is the
  /// serving epoch whose traffic will be absorbed next.
  void BeginEpoch(int64_t epoch);

  /// Folds one worker shard into the arm totals. `state` must be the page
  /// state the epoch was SERVED under (pre-fold, pre-churn): clicked
  /// qualities come from state.quality, the undiscovered flag from
  /// state.zero_awareness, and newborn first-clicks are resolved against
  /// the births recorded so far.
  void Absorb(const Shard& shard, const ServingPageState& state);

  /// Registers churn births stamped at `epoch`: each page starts (or
  /// restarts) a time-to-first-click clock. A reborn page's previous clock
  /// is finalized as censored if it never got clicked.
  void RecordBirths(const std::vector<uint32_t>& born, int64_t epoch);

  LiveMetricsSnapshot Snapshot() const;

  /// Worst-tail share of an epoch's clicks that EpochReward::cvar averages.
  static constexpr double kCvarAlpha = 0.25;

  /// Reward summary of the CURRENT epoch's absorbed traffic (call after the
  /// epoch's shards were absorbed, before the next BeginEpoch).
  EpochReward EpochRewardSummary() const;

  /// Publishes the current Snapshot() into `registry` as gauges named
  /// `<prefix>/<field>` (click_qpc, tail_share, impression_gini, ...), so an
  /// arm's live health rides the same exporter feed as the serve-layer
  /// metrics. Driver-thread only, like every other mutator here; typically
  /// called once per epoch by ExperimentManager::RunEpoch.
  void PublishTo(obs::MetricsRegistry& registry,
                 const std::string& prefix) const;

  /// Time-to-first-click samples over every newborn life tracked so far:
  /// discovered newborns contribute their real birth->first-click epochs;
  /// lives cut short unclicked by a rebirth contribute their OWN censoring
  /// time (the epochs they were actually observable — crediting them the
  /// full horizon would overstate how slow the arm was); still-open
  /// unclicked lives contribute the `censor_epochs` horizon (use the run
  /// length + 1). Treating a censored life's "at least c" as "exactly c"
  /// is conservative for the discovery comparison — it makes the
  /// slower-discovering arm look faster — so a significant MannWhitneyZ on
  /// these samples understates, never overstates, the separation.
  std::vector<double> TtfcSamples(double censor_epochs) const;

  size_t n() const { return impressions_.size(); }

 private:
  // Cumulative exposure + click accumulators.
  std::vector<uint64_t> impressions_;
  uint64_t queries_ = 0;
  uint64_t slots_served_ = 0;
  uint64_t clicks_ = 0;
  double click_quality_sum_ = 0.0;
  uint64_t undiscovered_clicks_ = 0;
  // Newborn discovery clocks. birth_epoch_[p] < 0 means page p is an
  // initial page (never churned) and is not tracked.
  std::vector<int64_t> birth_epoch_;
  std::vector<uint8_t> newborn_clicked_;
  std::vector<double> ttfc_epochs_;   // realized samples (discovered)
  /// Observable lifetimes of lives closed unclicked by a rebirth (their
  /// per-life censoring times, consumed by TtfcSamples).
  std::vector<double> censored_life_epochs_;
  size_t tracked_newborns_ = 0;
  // Epoch-scoped.
  int64_t epoch_ = 0;
  uint64_t epoch_queries_ = 0;
  uint64_t epoch_clicks_ = 0;
  /// The epoch's clicked true qualities (reset by BeginEpoch): the sample
  /// the adaptive layer's reward posterior and CVaR guardrail read.
  std::vector<double> epoch_click_qualities_;
};

}  // namespace randrank

#endif  // RANDRANK_EXP_LIVE_METRICS_H_
