#ifndef RANDRANK_MODEL_AWARENESS_H_
#define RANDRANK_MODEL_AWARENESS_H_

#include <cstddef>
#include <functional>
#include <vector>

namespace randrank {

/// Visit-rate function F: popularity x -> expected visits per day.
using VisitRateFn = std::function<double(double)>;

/// Steady-state awareness distribution of pages with quality q among a
/// population of `population` users (paper Theorem 1, corrected).
///
/// The awareness chain moves i -> i+1 (a_i = i/population) at rate
///   beta_i = F(q * a_i) * (1 - a_i)
/// (a visit arrives and the visitor is one of the unaware fraction), and
/// every state is killed at rate lambda with rebirth at 0. Stationarity
/// gives
///   f_i = f_{i-1} * beta_{i-1} / (lambda + beta_i),
///   f_0 = lambda / (lambda + F(0)),
/// which telescopes to a distribution summing to exactly 1.
///
/// Erratum note: the paper's printed Eq. (9) factors the (1 - a_i) term out
/// of the denominator -- i.e. uses (lambda + F(q a_i))(1 - a_i) instead of
/// lambda + F(q a_i)(1 - a_i) -- which diverges at a_i = 1 and does not sum
/// to 1. The corrected recurrence follows from the paper's own Eq. (8); the
/// two agree closely at low awareness, so all qualitative results are
/// unaffected.
///
/// `levels` coarsens the chain for large populations: the returned vector
/// has levels+1 entries for awareness fractions j/levels. Level 0 (the
/// promotion-pool state) is always exact -- leaving it takes a single visit
/// at rate F(0) -- while interior macro-levels aggregate population/levels
/// user conversions, i.e. beta_j = F(q a_j)(1 - a_j) * levels / population.
/// levels = 0 (default) or levels >= population selects the exact chain.
std::vector<double> AwarenessDistribution(double q, size_t population,
                                          double lambda, const VisitRateFn& F,
                                          size_t levels = 0);

/// The paper's Theorem 1 exactly as printed (Eq. 3), for reference and
/// regression comparison. The i = population term diverges, so the
/// distribution is truncated there and renormalized. Exact chain only.
std::vector<double> AwarenessDistributionPaperLiteral(double q,
                                                      size_t population,
                                                      double lambda,
                                                      const VisitRateFn& F);

/// Expected time (days) for a page of quality q to reach awareness >=
/// `threshold` (TBP when threshold = 0.99, Section 3.2): the awareness chain
/// holds at level i for expected 1 / beta_i days, so the hitting time of
/// level ceil(threshold * population) is the sum of the holding times below
/// it. Death is ignored (TBP concerns a page that does become popular).
double ExpectedTimeToAwareness(double q, size_t population,
                               const VisitRateFn& F, double threshold = 0.99);

/// Deterministic fluid-limit awareness trajectory a(t) for a fresh page of
/// quality q: da/dt = F(q a)(1 - a)/population, Euler-integrated per day.
/// Returns awareness at day boundaries 0..days (size days+1). Only valid
/// when visit rates are large relative to 1/day; for the general case use
/// AwarenessTransient, which keeps the discovery wait stochastic.
std::vector<double> AwarenessTrajectory(double q, size_t population,
                                        const VisitRateFn& F, size_t days);

/// Expected awareness E[a(t)] of a fresh page of quality q: the transient of
/// the awareness chain's master equation (dp_i/dt = beta_{i-1} p_{i-1} -
/// beta_i p_i, starting from level 0, no death). Unlike the fluid ODE this
/// preserves the exponential wait in the zero state, so entrenched pages
/// correctly stay near zero for ~1/F(0) days (paper Fig. 2/4a curves).
/// Returns E[a] at day boundaries 0..days. `levels` as in
/// AwarenessDistribution.
std::vector<double> AwarenessTransient(double q, size_t population,
                                       const VisitRateFn& F, size_t days,
                                       size_t levels = 0);

}  // namespace randrank

#endif  // RANDRANK_MODEL_AWARENESS_H_
