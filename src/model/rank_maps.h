#ifndef RANDRANK_MODEL_RANK_MAPS_H_
#define RANDRANK_MODEL_RANK_MAPS_H_

#include <cstddef>
#include <vector>

#include "core/ranking_policy.h"
#include "model/quality_classes.h"

namespace randrank {

/// Continuous extension of the rank->visit law F2(rank) = theta*rank^(-e),
/// evaluated at real-valued expected ranks and clamped into [1, n].
struct ContinuousF2 {
  double theta = 1.0;
  double exponent = 1.5;
  double n = 1.0;

  /// `visits_per_step` sets the normalization so that the discrete ranks
  /// 1..n sum to visits_per_step.
  static ContinuousF2 Make(size_t n, double visits_per_step,
                           double exponent = 1.5);

  double operator()(double rank) const;

  /// Mean of F2 over the continuous rank interval [a, b] (used for tied
  /// blocks and promotion-pool position averages). a <= b; both clamped.
  double MeanOverRange(double a, double b) const;
};

/// Expected-rank map F1 of Eq. (5): the expected deterministic (popularity-
/// sorted) rank of a page with popularity x, computed from the per-class
/// steady-state awareness distributions. Popularity of a class-c page at
/// awareness i/m is q_c * i/m, so
///   F1(x) ~= 1 + sum_c count_c * P[awareness_c > m*x/q_c].
class RankMap {
 public:
  /// `awareness[c][i]` is the fraction of class-c pages at awareness i/m.
  RankMap(const QualityClasses& classes,
          const std::vector<std::vector<double>>& awareness);

  /// F1(x) for x >= 0 (at x = 0 this counts every page with any awareness,
  /// i.e. the top of the zero-popularity tied block).
  double DeterministicRank(double x) const;

  /// Expected number of zero-awareness pages, z = sum_c count_c * f_c[0].
  double zero_awareness_count() const { return zero_count_; }

  /// Total pages n.
  double total_pages() const { return total_; }

 private:
  const QualityClasses& classes_;
  std::vector<std::vector<double>> suffix_;  // suffix_[c][i] = P[A >= i/m]
  double zero_count_ = 0.0;
  double total_ = 0.0;
  size_t m_ = 0;
};

/// Rank displacement caused by promoting other pages (Section 5.3):
/// a page at deterministic rank d keeps its rank if d < k, otherwise is
/// pushed down by the promoted pages interleaved above it:
///   d + min(r*(d - k + 1)/(1 - r), pool_size).
/// r = 1 saturates to d + pool_size (the whole pool precedes the
/// deterministic tail).
double DisplacedRank(double d, double r, size_t k, double pool_size);

/// Mean F2 over the expected positions of the shuffled promotion pool: slot
/// s of Lp lands near rank k-1 + s/r (s = 1..pool_size). This is the
/// expected visit rate of a pool member, used for F(0) under selective
/// promotion and the promoted branch of the uniform rule.
double MeanF2OverPoolSlots(const ContinuousF2& f2, size_t k, double r,
                           double pool_size);

/// Expected per-page *discovery* rate of a pool member under one ranked-list
/// realization per day (the paper's simulator regime). Two effects beyond
/// the paper's expected-rank approximation:
///  * each list position at or below k holds a pool page with probability r
///    (until one side exhausts), so the aggregate is summed over position
///    marginals rather than evaluated at expected slot positions (the
///    expected-rank shortcut misses that a pool page sits at position k with
///    probability r, where most visits land); and
///  * a pool page leaves the pool at its first visit of the day, so each
///    position contributes at most one discovery per day: 1 - exp(-F2(i)).
/// The returned rate is the per-pool-page discovery probability per day,
///   flux / pool_size, flux = sum_i P(pool at i) * (1 - exp(-F2(i))).
double PoolDiscoveryRate(const ContinuousF2& f2, size_t k, double r,
                         double pool_size);

/// Expected per-page pool *visit* rate without the one-discovery-per-day
/// saturation: flux = sum_i P(pool at i) * F2(i), divided by the pool size.
/// This is the discovery rate when the merged list is re-realized per query
/// (the paper's Section 4 describes the shuffle per query), so a hot slot
/// can discover several pool pages in one day.
double PoolVisitRate(const ContinuousF2& f2, size_t k, double r,
                     double pool_size);

/// Promotion-rule-aware mapping from popularity to expected visit rate,
/// shared by the analytical and mean-field steady-state models (Section 5.3).
/// Given the deterministic expected-rank function F1 it applies:
///   none:      F2(F1(x))
///   selective: F2(F1(x) displaced by the zero-awareness pool)  [x > 0]
///              pool-slot average of F2                          [x = 0]
///   uniform:   r-blend of the promoted pool average and the displaced,
///              pool-thinned deterministic position
/// The uniform analytic form is our derivation (the paper omits it as
/// "rather complex"). The uniform rule promotes each page with probability
/// r whatever its awareness, so the pool holds r*n pages. A page is then
/// promoted with probability r and earns the pool-slot average of F2;
/// otherwise only the fraction 1 - r of the pages above it stays in Ld, so
/// its index there is 1 + (1 - r)(F1(x) - 1), pushed down by the
/// interleaved pool (DisplacedRank).
class PromotionVisitMap {
 public:
  /// `zero_count` is the expected number of zero-awareness pages z;
  /// `total_pages` is n. `per_query_lists` selects the unsaturated pool
  /// discovery rate (fresh merge per query) instead of the per-day-list
  /// saturated rate; see PoolDiscoveryRate vs PoolVisitRate.
  PromotionVisitMap(const ContinuousF2& f2, PromotionRule rule, double r,
                    size_t k, double zero_count, double total_pages,
                    bool per_query_lists = false);

  /// Expected visit rate of a page with popularity x > 0 and deterministic
  /// expected rank `f1_of_x` = F1(x).
  double VisitRate(double f1_of_x) const;

  /// Expected visit rate of a zero-awareness (popularity 0) page.
  double ZeroVisitRate() const;

 private:
  ContinuousF2 f2_;
  PromotionRule rule_;
  double r_;
  size_t k_;
  double z_;
  double n_;
  bool per_query_;
  double uniform_pool_size_ = 0.0;
  double mean_pool_f2_ = 0.0;
};

}  // namespace randrank

#endif  // RANDRANK_MODEL_RANK_MAPS_H_
