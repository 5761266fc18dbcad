#ifndef RANDRANK_MODEL_FIXED_POINT_H_
#define RANDRANK_MODEL_FIXED_POINT_H_

#include <cstddef>
#include <functional>

#include "core/community.h"
#include "core/ranking_policy.h"
#include "model/quality_classes.h"
#include "model/visit_curve.h"

namespace randrank {

/// Log-spaced popularity grid F is tabulated on, from q_min/u to q_max.
inline constexpr size_t kFixedPointGridPoints = 64;
inline constexpr size_t kFixedPointMaxIterations = 120;
/// Convergence threshold on sup |delta log F| over the grid.
inline constexpr double kFixedPointTolerance = 5e-4;
/// Fraction of each round's estimate blended in (log space), for z and F.
/// The z <-> F(0) feedback is stiff near the discovery knee; conservative
/// blending avoids limit cycles.
inline constexpr double kFixedPointDamping = 0.35;

/// The self-consistent popularity->visit-rate curve F of a steady-state
/// model, and how the iteration that found it ended.
struct FixedPoint {
  VisitRateCurve F;
  /// Expected number of zero-awareness pages under F: the final refresh's
  /// count, undamped.
  double z = 0.0;
  size_t iterations = 0;
  double residual = 0.0;
  bool converged = false;
};

/// Recomputes a model's per-class state under visit-rate curve F and
/// returns its expected number of zero-awareness pages.
using FixedPointRefresh = std::function<double(const VisitRateCurve& F)>;
/// Expected deterministic rank F1(x) of popularity x > 0 in the state the
/// last refresh left.
using FixedPointRankOf = std::function<double(double x)>;

/// Solves the circular dependence of Section 5.3 -- F sets awareness,
/// awareness sets ranks, ranks set F = F2 o F1 -- by damped iteration from
/// the uniform curve F = v/n. Each round refreshes the model under F, maps
/// the grid through `rank_of` and the promotion rule's PromotionVisitMap,
/// and blends the result into F (z and F alike, in log space). Every 20
/// rounds the blend weight halves (floor 0.05) unless the residual fell
/// below 0.7x its last checkpoint: the z <-> F(0) loop can limit-cycle in
/// fast-discovery regimes. A last refresh under the returned F keeps the
/// model's state self-consistent with it.
///
/// The awareness dynamics run over the full user population (u users, vu
/// visits per day), so F2 is normalized to vu. `per_query_lists` selects
/// the pool discovery regime; see PromotionVisitMap.
FixedPoint SolveFixedPoint(const CommunityParams& params,
                           const RankPromotionConfig& config,
                           const QualityClasses& classes, bool per_query_lists,
                           const FixedPointRefresh& refresh,
                           const FixedPointRankOf& rank_of);

}  // namespace randrank

#endif  // RANDRANK_MODEL_FIXED_POINT_H_
