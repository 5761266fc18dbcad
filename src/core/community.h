#ifndef RANDRANK_CORE_COMMUNITY_H_
#define RANDRANK_CORE_COMMUNITY_H_

#include <cstddef>
#include <vector>

namespace randrank {

/// Parameters of a Web community (paper Section 3 / Table 1).
///
/// A community is the set of pages P devoted to one topic plus the users U
/// interested in it. The search engine measures popularity over a monitored
/// subset Um of users, assumed representative. Time is measured in days.
struct CommunityParams {
  /// Number of pages n = |P|.
  size_t n = 10000;
  /// Number of users u = |U|.
  size_t u = 1000;
  /// Number of monitored users m = |Um|.
  size_t m = 100;
  /// Total user visits per day (vu).
  double visits_per_day = 1000.0;
  /// Expected page lifetime l in days (paper default: 1.5 years).
  double lifetime_days = 547.5;
  /// Power-law pdf exponent of the page-quality distribution (PageRank-like).
  double quality_exponent = 2.1;
  /// Quality of the highest-quality page (paper: 0.4, from portal traffic).
  double max_quality = 0.4;
  /// Rank->visit bias exponent; AltaVista logs give 3/2 (Eq. 4).
  double rank_bias_exponent = 1.5;

  /// Default Web community of paper Section 6.1.
  static CommunityParams Default();

  /// Monitored visits per day: v = vu * m / u.
  double monitored_visits_per_day() const {
    return visits_per_day * static_cast<double>(m) / static_cast<double>(u);
  }

  /// Page retirement rate lambda = 1 / l (Poisson process, Section 5.1).
  double lambda() const { return 1.0 / lifetime_days; }

  /// True when the parameter combination is usable.
  bool Valid() const;

  /// Stationary page-quality values, descending: deterministic power-law
  /// quantiles, not samples. Every model and simulator given the same
  /// community then sees the same qualities, sweeps carry no sampling
  /// noise in the few head pages that dominate QPC, and a retired page is
  /// replaced by one of equal quality, as the steady state requires.
  std::vector<double> QualityValues() const;
};

/// Theoretical upper bound on quality-per-click for a community: the QPC
/// achieved by ranking pages in descending order of true quality and sending
/// visits through the rank->visit law (paper Section 6.3 normalization).
double IdealQpc(const CommunityParams& params);

/// QPC of a specific descending-quality assignment under the rank->visit law.
/// `qualities_by_rank[i]` is the quality of the page shown at rank i+1.
double QpcOfRanking(const std::vector<double>& qualities_by_rank,
                    double rank_bias_exponent);

}  // namespace randrank

#endif  // RANDRANK_CORE_COMMUNITY_H_
