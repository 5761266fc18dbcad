#include "bai/arm_scheduler.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace randrank::bai {

namespace {

/// Floor of ArmStats::variance.
constexpr double kVarianceFloor = 1e-6;

/// Fixes float drift so TrafficSplit::Valid's sum-to-1 check always passes:
/// the largest fraction absorbs the residue.
void NormalizeFractions(std::vector<double>* fractions) {
  double total = 0.0;
  size_t largest = 0;
  for (size_t a = 0; a < fractions->size(); ++a) {
    total += (*fractions)[a];
    if ((*fractions)[a] > (*fractions)[largest]) largest = a;
  }
  assert(total > 0.0);
  for (double& f : *fractions) f /= total;
  double rest = 0.0;
  for (size_t a = 0; a < fractions->size(); ++a) {
    if (a != largest) rest += (*fractions)[a];
  }
  (*fractions)[largest] = 1.0 - rest;
}

}  // namespace

double ArmScheduler::ArmStats::variance() const {
  if (clicks == 0) return kVarianceFloor;
  const double n = static_cast<double>(clicks);
  const double m = reward_sum / n;
  return std::max(kVarianceFloor, reward_sq_sum / n - m * m);
}

ArmScheduler::ArmScheduler(size_t arms) : stats_(arms) {
  if (arms < 2) {
    throw std::invalid_argument(
        "best-arm identification needs at least two arms");
  }
}

void ArmScheduler::Observe(const std::vector<ArmObservation>& observations) {
  if (observations.size() != stats_.size()) {
    throw std::invalid_argument("Observe needs one observation per arm");
  }
  for (size_t a = 0; a < stats_.size(); ++a) {
    if (!stats_[a].active) continue;
    stats_[a].clicks += observations[a].clicks;
    stats_[a].reward_sum += observations[a].reward_sum;
    stats_[a].reward_sq_sum += observations[a].reward_sq_sum;
  }
}

void ArmScheduler::Eliminate(size_t arm) {
  ArmStats& stats = stats_.at(arm);
  if (!stats.active) return;
  if (active_arms() <= 1) return;  // someone must keep serving
  stats.active = false;
}

size_t ArmScheduler::active_arms() const {
  size_t count = 0;
  for (const ArmStats& stats : stats_) count += stats.active;
  return count;
}

std::vector<double> ArmScheduler::EvenOverActive() const {
  const size_t live = active_arms();
  assert(live > 0);
  std::vector<double> fractions(stats_.size(), 0.0);
  for (size_t a = 0; a < stats_.size(); ++a) {
    if (stats_[a].active) fractions[a] = 1.0 / static_cast<double>(live);
  }
  NormalizeFractions(&fractions);
  return fractions;
}

size_t ArmScheduler::EmpiricalLeader() const {
  size_t best = stats_.size();
  double best_mean = -std::numeric_limits<double>::infinity();
  for (size_t a = 0; a < stats_.size(); ++a) {
    if (!stats_[a].active) continue;
    const double mean = stats_[a].mean();
    if (best == stats_.size() || mean > best_mean) {
      best = a;
      best_mean = mean;
    }
  }
  assert(best < stats_.size());
  return best;
}

// --- Top-two Thompson sampling ---

TopTwoThompsonScheduler::TopTwoThompsonScheduler(size_t arms,
                                                 uint64_t min_clicks)
    : ArmScheduler(arms), min_clicks_(min_clicks), last_prob_best_(arms, 0.0) {}

void TopTwoThompsonScheduler::PosteriorOf(const ArmStats& stats,
                                          double pooled_mean, double* mean,
                                          double* stddev) const {
  // Gaussian posterior of the arm's mean reward with a pseudo-count prior
  // at the pooled mean: n_eff = clicks + kPriorClicks, the mean a
  // precision-weighted blend, and the spread the standard error of the
  // blended mean. Arms with no evidence sit AT the pooled mean with a wide
  // spread, so Thompson draws keep exploring them.
  const double n = static_cast<double>(stats.clicks);
  const double n_eff = n + kPriorClicks;
  *mean = (stats.reward_sum + kPriorClicks * pooled_mean) / n_eff;
  const double variance = stats.variance();
  *stddev = std::sqrt(variance / n_eff +
                      // Prior spread: one click's worth of variance spread
                      // over the prior mass, vanishing as evidence arrives.
                      variance * kPriorClicks / (n_eff * n_eff));
}

std::vector<double> TopTwoThompsonScheduler::ProbBest() {
  double pooled_sum = 0.0;
  uint64_t pooled_clicks = 0;
  for (const ArmStats& stats : stats_) {
    if (!stats.active) continue;
    pooled_sum += stats.reward_sum;
    pooled_clicks += stats.clicks;
  }
  const double pooled_mean =
      pooled_clicks > 0 ? pooled_sum / static_cast<double>(pooled_clicks)
                        : 0.0;

  std::vector<double> mean(stats_.size(), 0.0);
  std::vector<double> stddev(stats_.size(), 0.0);
  for (size_t a = 0; a < stats_.size(); ++a) {
    if (!stats_[a].active) continue;
    PosteriorOf(stats_[a], pooled_mean, &mean[a], &stddev[a]);
  }

  std::vector<double> wins(stats_.size(), 0.0);
  for (size_t s = 0; s < kMcSamples; ++s) {
    size_t argmax = stats_.size();
    double max_draw = -std::numeric_limits<double>::infinity();
    for (size_t a = 0; a < stats_.size(); ++a) {
      if (!stats_[a].active) continue;
      const double draw = mean[a] + stddev[a] * rng_.NextGaussian();
      if (argmax == stats_.size() || draw > max_draw) {
        argmax = a;
        max_draw = draw;
      }
    }
    assert(argmax < stats_.size());
    wins[argmax] += 1.0;
  }
  for (double& w : wins) w /= static_cast<double>(kMcSamples);
  return wins;
}

SchedulerDecision TopTwoThompsonScheduler::Decide() {
  ++decisions_;
  SchedulerDecision decision;
  decision.fractions.assign(stats_.size(), 0.0);

  const std::vector<double> prob_best = ProbBest();
  last_prob_best_ = prob_best;

  size_t leader = stats_.size();
  for (size_t a = 0; a < stats_.size(); ++a) {
    if (!stats_[a].active) continue;
    if (leader == stats_.size() || prob_best[a] > prob_best[leader]) {
      leader = a;
    }
  }
  assert(leader < stats_.size());

  // Elimination rule: an epigon is an arm the posterior has all but ruled
  // out despite real evidence. The leader itself is never an epigon.
  for (size_t a = 0; a < stats_.size(); ++a) {
    if (!stats_[a].active || a == leader) continue;
    if (stats_[a].clicks >= min_clicks_ &&
        prob_best[a] < kEliminateBelow && active_arms() > 1) {
      stats_[a].active = false;
      decision.eliminated.push_back(a);
    }
  }

  decision.best = leader;
  decision.confidence = prob_best[leader];
  decision.stop = active_arms() == 1;
  if (decision.stop) {
    decision.confidence = 1.0;
    decision.fractions[leader] = 1.0;
    return decision;
  }

  // Sampling rule: kLeaderShare to the leader, the rest across the
  // challengers proportional to their posterior probability of being best,
  // floored so no survivor starves of evidence.
  double challenger_mass = 0.0;
  for (size_t a = 0; a < stats_.size(); ++a) {
    if (stats_[a].active && a != leader) challenger_mass += prob_best[a];
  }
  const double rest = 1.0 - kLeaderShare;
  for (size_t a = 0; a < stats_.size(); ++a) {
    if (!stats_[a].active) continue;
    if (a == leader) {
      decision.fractions[a] = kLeaderShare;
    } else {
      const double share =
          challenger_mass > 0.0
              ? prob_best[a] / challenger_mass
              : 1.0 / static_cast<double>(active_arms() - 1);
      decision.fractions[a] = std::max(kExploreFloor, rest * share);
    }
  }
  NormalizeFractions(&decision.fractions);
  return decision;
}

std::vector<ArmPosterior> TopTwoThompsonScheduler::Posteriors() const {
  double pooled_sum = 0.0;
  uint64_t pooled_clicks = 0;
  for (const ArmStats& stats : stats_) {
    if (!stats.active) continue;
    pooled_sum += stats.reward_sum;
    pooled_clicks += stats.clicks;
  }
  const double pooled_mean =
      pooled_clicks > 0 ? pooled_sum / static_cast<double>(pooled_clicks)
                        : 0.0;
  std::vector<ArmPosterior> out(stats_.size());
  for (size_t a = 0; a < stats_.size(); ++a) {
    out[a].clicks = stats_[a].clicks;
    out[a].active = stats_[a].active;
    out[a].prob_best = last_prob_best_[a];
    PosteriorOf(stats_[a], pooled_mean, &out[a].mean, &out[a].stddev);
  }
  return out;
}

// --- Successive elimination ---

SuccessiveEliminationScheduler::SuccessiveEliminationScheduler(
    size_t arms, uint64_t min_clicks)
    : ArmScheduler(arms), min_clicks_(min_clicks) {}

double SuccessiveEliminationScheduler::Radius(const ArmStats& stats) const {
  if (stats.clicks == 0) return std::numeric_limits<double>::infinity();
  const double n = static_cast<double>(stats.clicks);
  const double t = static_cast<double>(std::max<uint64_t>(1, decisions_));
  const double log_term = std::log(
      std::max(2.718281828459045,
               static_cast<double>(stats_.size()) * t * t / kDelta));
  return std::sqrt(2.0 * stats.variance() * log_term / n);
}

SchedulerDecision SuccessiveEliminationScheduler::Decide() {
  ++decisions_;
  SchedulerDecision decision;
  decision.fractions.assign(stats_.size(), 0.0);

  // Elimination rule: retire every arm whose optimistic estimate cannot
  // reach the best pessimistic one. Radii shrink as evidence accumulates,
  // so epigons fall off one by one while the contenders keep even traffic.
  double best_lcb = -std::numeric_limits<double>::infinity();
  for (size_t a = 0; a < stats_.size(); ++a) {
    if (!stats_[a].active || stats_[a].clicks < min_clicks_) continue;
    best_lcb = std::max(best_lcb, stats_[a].mean() - Radius(stats_[a]));
  }
  if (std::isfinite(best_lcb)) {
    for (size_t a = 0; a < stats_.size(); ++a) {
      if (!stats_[a].active || stats_[a].clicks < min_clicks_) continue;
      if (active_arms() <= 1) break;
      const double ucb = stats_[a].mean() + Radius(stats_[a]);
      if (ucb < best_lcb) {
        stats_[a].active = false;
        decision.eliminated.push_back(a);
      }
    }
  }

  const size_t leader = EmpiricalLeader();
  decision.best = leader;
  decision.stop = active_arms() == 1;
  if (decision.stop) {
    decision.confidence = 1.0 - kDelta;
    decision.fractions[leader] = 1.0;
    return decision;
  }

  // Margin-normalized separation of the top two actives: 0 = overlapping
  // bounds, ->1 as the leader's LCB clears the runner-up's UCB.
  double runner_ucb = -std::numeric_limits<double>::infinity();
  for (size_t a = 0; a < stats_.size(); ++a) {
    if (!stats_[a].active || a == leader) continue;
    runner_ucb = std::max(runner_ucb, stats_[a].mean() + Radius(stats_[a]));
  }
  const double leader_lcb = stats_[leader].mean() - Radius(stats_[leader]);
  if (std::isfinite(runner_ucb) && std::isfinite(leader_lcb)) {
    const double spread = Radius(stats_[leader]);
    if (std::isfinite(spread) && spread > 0.0) {
      decision.confidence = std::clamp(
          0.5 + (leader_lcb - runner_ucb) / (4.0 * spread), 0.0, 1.0);
    }
  }

  // Sampling rule: uniform over the survivors — the classic successive-
  // elimination allocation, which keeps every contender's radius shrinking
  // at the same rate.
  decision.fractions = EvenOverActive();
  return decision;
}

std::vector<ArmPosterior> SuccessiveEliminationScheduler::Posteriors() const {
  std::vector<ArmPosterior> out(stats_.size());
  for (size_t a = 0; a < stats_.size(); ++a) {
    out[a].clicks = stats_[a].clicks;
    out[a].active = stats_[a].active;
    out[a].mean = stats_[a].mean();
    const double radius = Radius(stats_[a]);
    out[a].stddev = std::isfinite(radius) ? radius : 0.0;
  }
  return out;
}

std::unique_ptr<ArmScheduler> MakeTopTwoThompsonScheduler(
    size_t arms, uint64_t min_clicks) {
  return std::make_unique<TopTwoThompsonScheduler>(arms, min_clicks);
}

std::unique_ptr<ArmScheduler> MakeSuccessiveEliminationScheduler(
    size_t arms, uint64_t min_clicks) {
  return std::make_unique<SuccessiveEliminationScheduler>(arms, min_clicks);
}

}  // namespace randrank::bai
