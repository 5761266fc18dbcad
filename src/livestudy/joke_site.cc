#include "livestudy/joke_site.h"

#include <cassert>
#include <cmath>

namespace randrank {

ItemSchedule ItemSchedule::Make(size_t items, size_t lifetime, double exponent,
                                double max_funniness, Rng& rng) {
  ItemSchedule s;
  s.lifetime = lifetime;
  s.funniness = PowerLawQuantiles(exponent, max_funniness).Values(items);
  s.first_expiry.resize(items);
  for (size_t i = 0; i < items; ++i) {
    s.first_expiry[i] = 1 + rng.NextIndex(lifetime);
  }
  return s;
}

bool ItemSchedule::ExpiresOn(size_t slot, size_t day) const {
  const size_t first = first_expiry[slot];
  if (day + 1 < first) return false;
  return (day + 1 - first) % lifetime == 0;
}

JokeSiteGroup::JokeSiteGroup(const ItemSchedule& schedule,
                             const RankPromotionConfig& config,
                             const Options& options)
    : schedule_(schedule),
      opts_(options),
      rng_(options.seed),
      policy_(MakePromotionPolicy(config)),
      ranker_(policy_),
      rank_sampler_(schedule.funniness.size(), 1.5) {
  const size_t items = schedule_.funniness.size();
  funny_count_.assign(items, 0);
  viewed_.assign(items, 0);
  born_.assign(items, 0);
  rated_.assign(items * opts_.users, 0);
}

void JokeSiteGroup::RotateExpired() {
  const size_t items = funny_count_.size();
  for (size_t slot = 0; slot < items; ++slot) {
    if (!schedule_.ExpiresOn(slot, day_)) continue;
    funny_count_[slot] = 0;
    viewed_[slot] = 0;
    born_[slot] = static_cast<int64_t>(day_ + 1);
    for (size_t u = 0; u < opts_.users; ++u) {
      rated_[slot * opts_.users + u] = 0;
    }
  }
}

void JokeSiteGroup::StepDay() {
  const size_t items = funny_count_.size();

  // Rank once per day on current funny-vote popularity; promoted items get a
  // fresh random order per view via the lazy per-visit resolution, matching
  // "a new random order ... for each unique user".
  std::vector<double> popularity(items);
  std::vector<uint8_t> zero(items);
  for (size_t i = 0; i < items; ++i) {
    popularity[i] = static_cast<double>(funny_count_[i]);
    zero[i] = viewed_[i] ? 0 : 1;
  }
  ranker_.Update(popularity, zero, born_, rng_);

  const double daily_views =
      opts_.views_per_user_day * static_cast<double>(opts_.users);
  auto views = static_cast<size_t>(std::floor(daily_views));
  if (rng_.NextBernoulli(daily_views - std::floor(daily_views))) ++views;

  uint64_t funny_today = 0;
  uint64_t total_today = 0;
  for (size_t v = 0; v < views; ++v) {
    const size_t user = rng_.NextIndex(opts_.users);
    const size_t rank = rank_sampler_.Sample(rng_);
    const uint32_t item = policy_->PageAtRank(ranker_.view(), rank, rng_);
    viewed_[item] = 1;
    uint8_t& has_rated = rated_[static_cast<size_t>(item) * opts_.users + user];
    if (!has_rated && rng_.NextBernoulli(opts_.vote_probability)) {
      has_rated = 1;
      ++total_today;
      if (rng_.NextBernoulli(schedule_.funniness[item])) {
        ++funny_today;
        ++funny_count_[item];
      }
    }
  }
  funny_votes_ += funny_today;
  total_votes_ += total_today;
  funny_by_day_.push_back(funny_votes_);
  total_by_day_.push_back(total_votes_);

  RotateExpired();
  ++day_;
}

uint64_t JokeSiteGroup::funny_votes_since(size_t from_day) const {
  if (funny_by_day_.empty()) return 0;
  const uint64_t before =
      from_day == 0 || from_day > funny_by_day_.size()
          ? (from_day == 0 ? 0 : funny_by_day_.back())
          : funny_by_day_[from_day - 1];
  return funny_votes_ - before;
}

uint64_t JokeSiteGroup::total_votes_since(size_t from_day) const {
  if (total_by_day_.empty()) return 0;
  const uint64_t before =
      from_day == 0 || from_day > total_by_day_.size()
          ? (from_day == 0 ? 0 : total_by_day_.back())
          : total_by_day_[from_day - 1];
  return total_votes_ - before;
}

}  // namespace randrank
