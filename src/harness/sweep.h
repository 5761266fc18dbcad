#ifndef RANDRANK_HARNESS_SWEEP_H_
#define RANDRANK_HARNESS_SWEEP_H_

#include <string>
#include <vector>

#include "core/community.h"
#include "core/ranking_policy.h"
#include "sim/agent_sim.h"
#include "sim/sim_result.h"

namespace randrank {

/// One point of a figure sweep: a (community, promotion config) pair plus
/// run options.
struct SweepPoint {
  std::string label;
  /// Numeric x-axis value the point corresponds to (r, n, l, ...).
  double x = 0.0;
  CommunityParams params;
  /// Promotion-family configuration (the paper's figures sweep this).
  RankPromotionConfig config;
  SimOptions options;
};

/// A finished point.
struct SweepOutcome {
  SweepPoint point;
  SimResult result;
};

/// Runs every point's agent simulation, `threads`-wide (0 = hardware).
/// Outcomes are returned in input order.
std::vector<SweepOutcome> RunAgentSweep(const std::vector<SweepPoint>& points,
                                        size_t threads = 0);

/// Averages `seeds` simulation repetitions per point (seed = base + i).
/// Replaces each outcome's scalar metrics by their mean across seeds.
std::vector<SweepOutcome> RunAgentSweepAveraged(
    const std::vector<SweepPoint>& points, size_t seeds, size_t threads = 0);

}  // namespace randrank

#endif  // RANDRANK_HARNESS_SWEEP_H_
