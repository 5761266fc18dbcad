#ifndef RANDRANK_BAI_ARM_SCHEDULER_H_
#define RANDRANK_BAI_ARM_SCHEDULER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.h"

namespace randrank::bai {

/// One arm's reward evidence from one experiment epoch, as fed to
/// ArmScheduler::Observe. The reward unit is clicked true quality (the
/// paper's quality-per-click, measured live by exp::LiveMetrics): each click
/// is one reward sample, so `clicks` is the sample count and the sum /
/// sum-of-squares give the scheduler its running mean and variance without
/// shipping raw samples.
struct ArmObservation {
  uint64_t queries = 0;
  uint64_t clicks = 0;
  double reward_sum = 0.0;
  double reward_sq_sum = 0.0;
  /// Worst-tail mean of the epoch's rewards (LiveMetrics CVaR) — consumed
  /// by the controller's risk guardrail, carried here so schedulers may also
  /// use it as a risk-adjusted objective.
  double cvar = 0.0;
};

/// A scheduler's belief about one arm, exposed for monitoring (the
/// `exp/bai/arm:<name>/*` gauges) and for tests.
struct ArmPosterior {
  /// Posterior mean and standard deviation of the arm's expected reward.
  double mean = 0.0;
  double stddev = 0.0;
  /// Reward samples (clicks) observed so far.
  uint64_t clicks = 0;
  /// Last computed probability this arm is the best (Thompson rules; 0 when
  /// the rule does not estimate it).
  double prob_best = 0.0;
  bool active = true;
};

/// One allocation decision: the traffic fractions to serve the NEXT epoch
/// under, plus what changed and whether the identification is finished.
struct SchedulerDecision {
  /// One fraction per arm (eliminated arms at exactly 0), summing to 1.
  std::vector<double> fractions;
  /// Arms newly eliminated by THIS decision (epigons retired by the
  /// elimination rule; guardrail demotions arrive via Eliminate() instead).
  std::vector<size_t> eliminated;
  /// Current best-arm estimate and the rule's confidence in it.
  size_t best = 0;
  double confidence = 0.0;
  /// True once the stopping rule fires: exactly one arm remains active and
  /// the identification is over (fractions put all traffic on it).
  bool stop = false;
};

/// Best-arm identification over experiment arms: a sampling rule (how much
/// traffic each arm gets next epoch), an elimination rule (when a dominated
/// arm — an "epigon" — is retired for good), and a stopping rule (when the
/// survivor is declared). Drive it as
///
///   scheduler.Observe(per_arm_epoch_rewards);   // after each epoch
///   SchedulerDecision d = scheduler.Decide();   // fractions for the next
///
/// Eliminations are permanent: an eliminated arm's fraction is 0 in every
/// later decision and its evidence no longer influences the rule. External
/// demotions (the controller's CVaR guardrail) enter through Eliminate().
///
/// Determinism: all randomness (Thompson draws) comes from an internal Rng
/// with a fixed seed — the same observation stream yields the same
/// decisions, which is what makes the adaptive example and tests
/// reproducible.
///
/// Thread model: driver-thread only, like ExperimentManager.
class ArmScheduler {
 public:
  explicit ArmScheduler(size_t arms);
  virtual ~ArmScheduler() = default;

  /// Rule name for spans and bench labels ("tt-thompson", "succ-elim").
  virtual std::string Name() const = 0;

  /// Folds one epoch of per-arm evidence (one entry per arm, eliminated
  /// arms' entries ignored) into the running per-arm statistics.
  virtual void Observe(const std::vector<ArmObservation>& observations);

  /// Computes the next allocation. Never resurrects an eliminated arm.
  virtual SchedulerDecision Decide() = 0;

  /// Posterior state per arm, for gauges/tests (base statistics; rules
  /// refine stddev/prob_best).
  virtual std::vector<ArmPosterior> Posteriors() const = 0;

  /// Retires an arm unconditionally (the guardrail's auto-demotion path).
  /// Idempotent; eliminating the last active arm is refused (a live
  /// experiment always serves someone).
  void Eliminate(size_t arm);

  size_t arms() const { return stats_.size(); }
  bool active(size_t arm) const { return stats_.at(arm).active; }
  size_t active_arms() const;
  uint64_t decisions() const { return decisions_; }

 protected:
  /// Running per-arm reward statistics (cumulative over every Observe).
  struct ArmStats {
    uint64_t clicks = 0;
    double reward_sum = 0.0;
    double reward_sq_sum = 0.0;
    bool active = true;

    double mean() const {
      return clicks > 0 ? reward_sum / static_cast<double>(clicks) : 0.0;
    }
    /// Empirical reward variance, floored at 1e-6 to keep radii/posteriors
    /// sane on degenerate (constant-reward) arms.
    double variance() const;
  };

  /// Even fractions over the active arms; the shared fallback allocator.
  std::vector<double> EvenOverActive() const;
  /// Largest-mean active arm (ties to the lower index).
  size_t EmpiricalLeader() const;

  std::vector<ArmStats> stats_;
  uint64_t decisions_ = 0;
};

/// Top-two Thompson sampling over a Gaussian reward posterior per arm.
///
/// Sampling rule: kMcSamples Monte-Carlo draws from every active arm's
/// posterior estimate p_a = P(arm a has the highest mean reward); the leader
/// (largest p_a) gets kLeaderShare of traffic and the challengers split the
/// rest proportionally to p_a (the "top-two" reallocation that keeps enough
/// traffic on the runner-up to separate it from the leader), floored at
/// kExploreFloor so no active arm starves.
///
/// Elimination rule: an active arm with at least `min_clicks` samples whose
/// p_a falls below kEliminateBelow is an epigon — dominated with high
/// posterior probability — and is retired permanently.
///
/// Stopping rule: one active arm left. Confidence reported is the leader's
/// p_a (1.0 once stopped).
class TopTwoThompsonScheduler final : public ArmScheduler {
 public:
  static constexpr double kLeaderShare = 0.5;
  static constexpr size_t kMcSamples = 1024;
  /// Minimum fraction for any surviving challenger (renormalized).
  static constexpr double kExploreFloor = 0.02;
  static constexpr double kEliminateBelow = 0.01;
  /// Pseudo-count shrinking every posterior toward the pooled mean —
  /// un-sampled arms stay wide instead of degenerate.
  static constexpr double kPriorClicks = 8.0;

  TopTwoThompsonScheduler(size_t arms, uint64_t min_clicks = 200);

  std::string Name() const override { return "tt-thompson"; }
  SchedulerDecision Decide() override;
  std::vector<ArmPosterior> Posteriors() const override;

 private:
  /// Posterior (mean, stddev-of-mean) for one arm given the pooled prior.
  void PosteriorOf(const ArmStats& stats, double pooled_mean, double* mean,
                   double* stddev) const;
  /// Monte-Carlo P(best) over the active arms (indexes into stats_).
  std::vector<double> ProbBest();

  uint64_t min_clicks_;
  Rng rng_{0xba1a11ceULL};
  /// p_a from the last Decide, kept for Posteriors().
  std::vector<double> last_prob_best_;
};

/// Successive elimination: serve every active arm evenly; once two arms both
/// carry `min_clicks` samples, retire any arm whose upper confidence bound
/// falls below the best lower confidence bound. The confidence radius is
/// the empirical-Bernstein-style sqrt(2 V log(K t^2 / kDelta) / n): with
/// probability >= 1 - kDelta no arm is ever eliminated while actually best.
///
/// Stopping rule: one active arm left; confidence reported is 1 - kDelta
/// once stopped, else the margin-normalized gap between the top two bounds.
class SuccessiveEliminationScheduler final : public ArmScheduler {
 public:
  static constexpr double kDelta = 0.05;

  SuccessiveEliminationScheduler(size_t arms, uint64_t min_clicks = 100);

  std::string Name() const override { return "succ-elim"; }
  SchedulerDecision Decide() override;
  std::vector<ArmPosterior> Posteriors() const override;

 private:
  double Radius(const ArmStats& stats) const;

  uint64_t min_clicks_;
};

std::unique_ptr<ArmScheduler> MakeTopTwoThompsonScheduler(
    size_t arms, uint64_t min_clicks = 200);
std::unique_ptr<ArmScheduler> MakeSuccessiveEliminationScheduler(
    size_t arms, uint64_t min_clicks = 100);

}  // namespace randrank::bai

#endif  // RANDRANK_BAI_ARM_SCHEDULER_H_
