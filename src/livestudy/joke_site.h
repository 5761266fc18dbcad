#ifndef RANDRANK_LIVESTUDY_JOKE_SITE_H_
#define RANDRANK_LIVESTUDY_JOKE_SITE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/policy/promotion_policy.h"
#include "core/rank_merge.h"
#include "core/ranking_policy.h"
#include "util/distributions.h"
#include "util/rng.h"

namespace randrank {

/// The shared content schedule of the live study (Appendix A): item
/// "funniness" values (used as the probability a rating is "funny") matched
/// to the PageRank-like power law, and per-slot expiry times. Both user
/// groups see the same items at the same times.
struct ItemSchedule {
  std::vector<double> funniness;
  /// First expiry day per slot (drawn uniform [1, lifetime]); afterwards
  /// items renew every `lifetime` days with a same-quality replacement.
  std::vector<size_t> first_expiry;
  size_t lifetime = 30;

  static ItemSchedule Make(size_t items, size_t lifetime, double exponent,
                           double max_funniness, Rng& rng);

  /// True when the slot's item expires at the end of `day` (0-based).
  bool ExpiresOn(size_t slot, size_t day) const;
};

/// One user group's joke/quotation site. Items are ranked by descending
/// funny-vote count (ties: older item first). The treatment group inserts
/// never-viewed items in a per-user random order below rank 20, i.e.
/// selective promotion with k = 21, r = 1; the control group uses strict
/// popularity ranking. Each page visit may produce at most one vote per
/// (user, item): once a user has rated an item the buttons disappear.
class JokeSiteGroup {
 public:
  struct Options {
    size_t users = 481;
    /// Site visits (page views) per user per day.
    double views_per_user_day = 1.0;
    /// Probability a view of an unrated item produces a vote.
    double vote_probability = 0.5;
    uint64_t seed = 7;
  };

  JokeSiteGroup(const ItemSchedule& schedule, const RankPromotionConfig& config,
                const Options& options);

  /// Simulates one day: re-rank, deliver rank-biased views, collect votes,
  /// rotate expired items.
  void StepDay();

  size_t day() const { return day_; }
  uint64_t funny_votes() const { return funny_votes_; }
  uint64_t total_votes() const { return total_votes_; }
  /// Votes restricted to days >= `from_day` at the time they were cast.
  uint64_t funny_votes_since(size_t from_day) const;
  uint64_t total_votes_since(size_t from_day) const;
  const std::vector<uint64_t>& funny_count() const { return funny_count_; }

 private:
  void RotateExpired();

  const ItemSchedule& schedule_;
  Options opts_;
  Rng rng_;
  std::shared_ptr<const PromotionPolicy> policy_;
  Ranker ranker_;
  RankBiasSampler rank_sampler_;

  std::vector<uint64_t> funny_count_;   // popularity signal
  std::vector<uint8_t> viewed_;         // any-user viewed flag (pool rule)
  std::vector<int64_t> born_;           // day the current item appeared
  std::vector<uint8_t> rated_;          // (user x item) has-voted bits
  size_t day_ = 0;

  uint64_t funny_votes_ = 0;
  uint64_t total_votes_ = 0;
  std::vector<uint64_t> funny_by_day_;
  std::vector<uint64_t> total_by_day_;
};

}  // namespace randrank

#endif  // RANDRANK_LIVESTUDY_JOKE_SITE_H_
