#include "exp/live_metrics.h"

#include <cassert>
#include <cmath>

#include "obs/metrics.h"
#include "util/stats.h"

namespace randrank {

LiveMetrics::LiveMetrics(size_t n)
    : impressions_(n, 0), birth_epoch_(n, -1), newborn_clicked_(n, 0) {}

void LiveMetrics::BeginEpoch(int64_t epoch) {
  epoch_ = epoch;
  epoch_queries_ = 0;
  epoch_clicks_ = 0;
  epoch_click_qualities_.clear();
}

void LiveMetrics::Absorb(const Shard& shard, const ServingPageState& state) {
  assert(shard.impressions.size() == impressions_.size());
  assert(state.n() == impressions_.size());
  for (size_t p = 0; p < impressions_.size(); ++p) {
    impressions_[p] += shard.impressions[p];
  }
  queries_ += shard.queries;
  slots_served_ += shard.slots;
  epoch_queries_ += shard.queries;
  for (const uint32_t page : shard.clicked) {
    ++clicks_;
    ++epoch_clicks_;
    click_quality_sum_ += state.quality[page];
    epoch_click_qualities_.push_back(state.quality[page]);
    undiscovered_clicks_ += state.zero_awareness[page];
    // Newborn first-click: the birth clock is per-arm, so two arms serving
    // the same churn schedule measure their own discovery speeds.
    if (birth_epoch_[page] >= 0 && !newborn_clicked_[page]) {
      newborn_clicked_[page] = 1;
      ttfc_epochs_.push_back(static_cast<double>(epoch_ - birth_epoch_[page]));
    }
  }
}

void LiveMetrics::RecordBirths(const std::vector<uint32_t>& born,
                               int64_t epoch) {
  for (const uint32_t page : born) {
    assert(page < birth_epoch_.size());
    // A rebirth closes the previous life's clock: an unclicked life is
    // censored at ITS OWN observable lifetime, not the run horizon.
    if (birth_epoch_[page] >= 0 && !newborn_clicked_[page]) {
      censored_life_epochs_.push_back(
          static_cast<double>(epoch - birth_epoch_[page]));
    }
    birth_epoch_[page] = epoch;
    newborn_clicked_[page] = 0;
    ++tracked_newborns_;
  }
}

LiveMetricsSnapshot LiveMetrics::Snapshot() const {
  LiveMetricsSnapshot snap;
  snap.queries = queries_;
  snap.slots_served = slots_served_;
  snap.clicks = clicks_;
  snap.click_qpc =
      clicks_ > 0 ? click_quality_sum_ / static_cast<double>(clicks_) : 0.0;
  snap.tail_share = clicks_ > 0 ? static_cast<double>(undiscovered_clicks_) /
                                      static_cast<double>(clicks_)
                                : 0.0;
  std::vector<double> mass;
  mass.reserve(impressions_.size());
  size_t distinct = 0;
  for (const uint64_t count : impressions_) {
    distinct += count > 0;
    mass.push_back(static_cast<double>(count));
  }
  snap.distinct_pages = distinct;
  snap.impression_gini = GiniCoefficient(mass);
  snap.impression_entropy_bits = ShannonEntropyBits(mass);
  snap.newborn_births = tracked_newborns_;
  snap.newborn_clicked = ttfc_epochs_.size();
  snap.ttfc_median_epochs =
      ttfc_epochs_.empty() ? 0.0 : Percentile(ttfc_epochs_, 50.0);
  snap.epoch_queries = epoch_queries_;
  snap.epoch_clicks = epoch_clicks_;
  return snap;
}

EpochReward LiveMetrics::EpochRewardSummary() const {
  EpochReward reward;
  reward.queries = epoch_queries_;
  reward.clicks = epoch_clicks_;
  assert(epoch_click_qualities_.size() == epoch_clicks_);
  for (const double q : epoch_click_qualities_) {
    reward.quality_sum += q;
    reward.quality_sq_sum += q * q;
  }
  if (epoch_click_qualities_.empty()) return reward;
  reward.mean =
      reward.quality_sum / static_cast<double>(epoch_click_qualities_.size());
  // Worst-tail mean: partial-select the lowest ceil(alpha * clicks)
  // qualities rather than sorting the whole epoch.
  const size_t tail = std::max<size_t>(
      1, static_cast<size_t>(
             std::ceil(kCvarAlpha *
                       static_cast<double>(epoch_click_qualities_.size()))));
  std::vector<double> worst = epoch_click_qualities_;
  std::nth_element(worst.begin(), worst.begin() + (tail - 1), worst.end());
  double tail_sum = 0.0;
  for (size_t i = 0; i < tail; ++i) tail_sum += worst[i];
  reward.cvar = tail_sum / static_cast<double>(tail);
  return reward;
}

void LiveMetrics::PublishTo(obs::MetricsRegistry& registry,
                            const std::string& prefix) const {
  const LiveMetricsSnapshot snap = Snapshot();
  const auto set = [&](const char* field, double value) {
    registry.GetGauge(prefix + "/" + field).Set(value);
  };
  set("queries", static_cast<double>(snap.queries));
  set("slots_served", static_cast<double>(snap.slots_served));
  set("clicks", static_cast<double>(snap.clicks));
  set("click_qpc", snap.click_qpc);
  set("tail_share", snap.tail_share);
  set("distinct_pages", static_cast<double>(snap.distinct_pages));
  set("impression_gini", snap.impression_gini);
  set("impression_entropy_bits", snap.impression_entropy_bits);
  set("newborn_births", static_cast<double>(snap.newborn_births));
  set("newborn_clicked", static_cast<double>(snap.newborn_clicked));
  set("ttfc_median_epochs", snap.ttfc_median_epochs);
  set("epoch_queries", static_cast<double>(snap.epoch_queries));
  set("epoch_clicks", static_cast<double>(snap.epoch_clicks));
}

std::vector<double> LiveMetrics::TtfcSamples(double censor_epochs) const {
  std::vector<double> samples = ttfc_epochs_;
  // Lives closed unclicked by a rebirth carry their own censoring time.
  for (const double life : censored_life_epochs_) {
    samples.push_back(std::min(life, censor_epochs));
  }
  // Lives still open and unclicked are censored at the horizon.
  assert(tracked_newborns_ >= ttfc_epochs_.size() + censored_life_epochs_.size());
  const size_t open_unclicked =
      tracked_newborns_ - ttfc_epochs_.size() - censored_life_epochs_.size();
  samples.insert(samples.end(), open_unclicked, censor_epochs);
  return samples;
}

}  // namespace randrank
