#include "harness/sweep.h"

#include <cmath>

#include "util/thread_pool.h"

namespace randrank {

std::vector<SweepOutcome> RunAgentSweep(const std::vector<SweepPoint>& points,
                                        size_t threads) {
  std::vector<SweepOutcome> outcomes(points.size());
  ThreadPool pool(threads);
  ParallelFor(pool, points.size(), [&](size_t i) {
    AgentSimulator sim(points[i].params, points[i].config, points[i].options);
    outcomes[i] = SweepOutcome{points[i], sim.Run()};
  });
  return outcomes;
}

std::vector<SweepOutcome> RunAgentSweepAveraged(
    const std::vector<SweepPoint>& points, size_t seeds, size_t threads) {
  if (seeds <= 1) return RunAgentSweep(points, threads);

  std::vector<SweepPoint> expanded;
  expanded.reserve(points.size() * seeds);
  for (const SweepPoint& p : points) {
    for (size_t s = 0; s < seeds; ++s) {
      SweepPoint copy = p;
      copy.options.seed = p.options.seed + s * 7919;
      expanded.push_back(copy);
    }
  }
  const std::vector<SweepOutcome> raw = RunAgentSweep(expanded, threads);

  std::vector<SweepOutcome> outcomes(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    SweepOutcome merged;
    merged.point = points[i];
    double qpc = 0.0;
    double nqpc = 0.0;
    double zero = 0.0;
    double tbp = 0.0;
    size_t tbp_points = 0;
    size_t tbp_samples = 0;
    size_t tbp_censored = 0;
    for (size_t s = 0; s < seeds; ++s) {
      const SimResult& r = raw[i * seeds + s].result;
      qpc += r.qpc;
      nqpc += r.normalized_qpc;
      zero += r.mean_zero_awareness_pages;
      if (r.tbp_samples > 0 && !std::isnan(r.mean_tbp)) {
        tbp += r.mean_tbp * static_cast<double>(r.tbp_samples);
        tbp_samples += r.tbp_samples;
        ++tbp_points;
      }
      tbp_censored += r.tbp_censored;
    }
    merged.result = raw[i * seeds].result;  // keep curves from first seed
    merged.result.qpc = qpc / static_cast<double>(seeds);
    merged.result.normalized_qpc = nqpc / static_cast<double>(seeds);
    merged.result.mean_zero_awareness_pages = zero / static_cast<double>(seeds);
    merged.result.mean_tbp = tbp_samples > 0
                                 ? tbp / static_cast<double>(tbp_samples)
                                 : std::nan("");
    merged.result.tbp_samples = tbp_samples;
    merged.result.tbp_censored = tbp_censored;
    outcomes[i] = merged;
  }
  return outcomes;
}

}  // namespace randrank
