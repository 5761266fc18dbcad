#include "model/fixed_point.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "model/rank_maps.h"

namespace randrank {

FixedPoint SolveFixedPoint(const CommunityParams& params,
                           const RankPromotionConfig& config,
                           const QualityClasses& classes, bool per_query_lists,
                           const FixedPointRefresh& refresh,
                           const FixedPointRankOf& rank_of) {
  const ContinuousF2 f2 = ContinuousF2::Make(params.n, params.visits_per_day,
                                             params.rank_bias_exponent);
  const auto n = static_cast<double>(params.n);

  // Log-spaced popularity grid, endpoints included: the least popular
  // discovered page (one aware user of u at the lowest quality) to q_max.
  const double log_lo =
      std::log(classes.value.back() / static_cast<double>(params.u));
  const double log_hi = std::log(classes.value.front());
  std::vector<double> grid(kFixedPointGridPoints);
  for (size_t g = 0; g < grid.size(); ++g) {
    const double t =
        static_cast<double>(g) / static_cast<double>(grid.size() - 1);
    grid[g] = std::exp(log_lo + t * (log_hi - log_lo));
  }

  FixedPoint fp;
  const double uniform = params.visits_per_day / n;
  fp.F = VisitRateCurve(grid, std::vector<double>(grid.size(), uniform),
                        uniform);

  std::vector<double> f_new(grid.size());
  double damping = kFixedPointDamping;
  double checkpoint_residual = std::numeric_limits<double>::infinity();
  for (size_t iter = 1; iter <= kFixedPointMaxIterations; ++iter) {
    // Damp z as well: the z -> F(0) -> z map is the oscillation source in
    // fast-discovery regimes.
    const double z_new = std::max(1e-9, refresh(fp.F));
    fp.z = iter == 1 ? z_new
                     : std::exp((1.0 - damping) * std::log(fp.z) +
                                damping * std::log(z_new));

    const PromotionVisitMap visit_map(f2, config.rule, config.r, config.k,
                                      fp.z, n, per_query_lists);
    for (size_t g = 0; g < grid.size(); ++g) {
      f_new[g] = std::max(visit_map.VisitRate(rank_of(grid[g])), 1e-300);
    }
    const double f0_new = std::max(visit_map.ZeroVisitRate(), 1e-300);

    const VisitRateCurve fresh(grid, f_new, f0_new);
    VisitRateCurve next = fp.F.BlendWith(fresh, damping);
    fp.residual = next.LogDistance(fp.F, std::min(1.0, fp.z / 10.0));
    fp.F = std::move(next);
    fp.iterations = iter;
    if (fp.residual < kFixedPointTolerance) {
      fp.converged = true;
      break;
    }
    if (iter % 20 == 0) {
      if (fp.residual > 0.7 * checkpoint_residual) {
        damping = std::max(0.05, damping * 0.5);
      }
      checkpoint_residual = fp.residual;
    }
  }

  fp.z = refresh(fp.F);
  return fp;
}

}  // namespace randrank
