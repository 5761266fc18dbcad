#include "bai/bai_controller.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace randrank::bai {

namespace {

double NowUs() {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count()) /
         1e3;
}

}  // namespace

bool BaiControllerOptions::Valid() const {
  return guardrail_floor >= 0.0 && guardrail_floor < 1.0 &&
         guardrail_epochs > 0;
}

BaiController::BaiController(ExperimentManager* experiment,
                             std::unique_ptr<ArmScheduler> scheduler,
                             BaiControllerOptions options)
    : exp_(experiment), scheduler_(std::move(scheduler)), opts_(options) {
  if (exp_ == nullptr || scheduler_ == nullptr) {
    throw std::invalid_argument(
        "BaiController needs an experiment and a scheduler");
  }
  if (scheduler_->arms() != exp_->arms()) {
    throw std::invalid_argument(
        "scheduler arm count must match the experiment");
  }
  if (!opts_.Valid()) {
    throw std::invalid_argument("invalid BaiControllerOptions");
  }
  breach_streak_.assign(exp_->arms(), 0);
  last_.fractions = exp_->bucketer().split().fractions;
  last_.best = 0;
  if (opts_.metrics != nullptr) {
    // Register the event counters up front so the metric inventory is
    // complete from construction — a run with zero eliminations still
    // exports the names (dump_metrics / docs lint depend on this).
    opts_.metrics->GetCounter("exp/bai/epochs");
    opts_.metrics->GetCounter("exp/bai/eliminations");
    opts_.metrics->GetCounter("exp/bai/guardrail_demotions");
    opts_.metrics->GetCounter("exp/bai/reallocations");
  }
}

void BaiController::ApplyGuardrail(
    const std::vector<ArmObservation>& observations) {
  if (!opts_.guardrail) return;
  // Reference point: the best epoch CVaR among active arms with enough
  // clicks to trust the tail estimate.
  double best_cvar = -1.0;
  for (size_t a = 0; a < observations.size(); ++a) {
    if (!scheduler_->active(a)) continue;
    if (observations[a].clicks < kGuardrailMinClicks) continue;
    best_cvar = std::max(best_cvar, observations[a].cvar);
  }
  if (best_cvar <= 0.0) return;  // nothing comparable this epoch
  const double floor_value = opts_.guardrail_floor * best_cvar;
  for (size_t a = 0; a < observations.size(); ++a) {
    if (!scheduler_->active(a)) {
      breach_streak_[a] = 0;
      continue;
    }
    const bool comparable = observations[a].clicks >= kGuardrailMinClicks;
    if (comparable && observations[a].cvar < floor_value) {
      ++breach_streak_[a];
    } else {
      breach_streak_[a] = 0;
    }
    if (breach_streak_[a] >= opts_.guardrail_epochs &&
        scheduler_->active_arms() > 1) {
      // Auto-rollback: the arm's quality tail has collapsed versus its
      // peers for guardrail_epochs straight epochs — demote it now rather
      // than waiting for the mean-reward statistics to catch up.
      scheduler_->Eliminate(a);
      eliminations_.push_back({exp_->epoch(), a, /*by_guardrail=*/true});
      if (opts_.metrics != nullptr) {
        opts_.metrics->GetCounter("exp/bai/guardrail_demotions").Add(1);
        opts_.metrics->GetCounter("exp/bai/eliminations").Add(1);
      }
      if (opts_.trace != nullptr) {
        opts_.trace->EmitSpan(
            "bai/eliminate", 0.0,
            {{"epoch", static_cast<double>(exp_->epoch())},
             {"arm", static_cast<double>(a)},
             {"by_guardrail", 1.0},
             {"epoch_cvar", observations[a].cvar},
             {"cvar_floor", floor_value}},
            {{"arm_name", exp_->arm_spec(a).name},
             {"scheduler", scheduler_->Name()}});
      }
    }
  }
}

const SchedulerDecision& BaiController::Step() {
  // 1. Serve one epoch under the previously staged fractions (applied
  //    atomically with this epoch's publish, alongside any pending policy
  //    hot-swap).
  exp_->RunEpoch();
  const int64_t epoch = exp_->epoch();

  // 2. Per-arm epoch rewards from LiveMetrics.
  std::vector<ArmObservation> observations(exp_->arms());
  for (size_t a = 0; a < exp_->arms(); ++a) {
    const EpochReward reward = exp_->ArmEpochReward(a);
    observations[a].queries = reward.queries;
    observations[a].clicks = reward.clicks;
    observations[a].reward_sum = reward.quality_sum;
    observations[a].reward_sq_sum = reward.quality_sq_sum;
    observations[a].cvar = reward.cvar;
  }

  // 3. Risk guardrail before the statistical rules see the epoch.
  ApplyGuardrail(observations);

  // 4. Scheduler observe + decide.
  scheduler_->Observe(observations);
  const double t0 = NowUs();
  SchedulerDecision decision = scheduler_->Decide();
  const double decide_us = NowUs() - t0;
  for (const size_t a : decision.eliminated) {
    eliminations_.push_back({epoch, a, /*by_guardrail=*/false});
    if (opts_.metrics != nullptr) {
      opts_.metrics->GetCounter("exp/bai/eliminations").Add(1);
    }
    if (opts_.trace != nullptr) {
      opts_.trace->EmitSpan("bai/eliminate", 0.0,
                            {{"epoch", static_cast<double>(epoch)},
                             {"arm", static_cast<double>(a)},
                             {"by_guardrail", 0.0}},
                            {{"arm_name", exp_->arm_spec(a).name},
                             {"scheduler", scheduler_->Name()}});
    }
  }

  // 5. Stage the new fractions for the next epoch's publish and record the
  //    audit trail. SetSplit keeps the salt, so HashBucketer::Reallocated
  //    preserves every surviving user's assignment.
  bool reallocated = false;
  for (size_t a = 0; a < decision.fractions.size(); ++a) {
    if (std::abs(decision.fractions[a] - last_.fractions[a]) > 1e-12) {
      reallocated = true;
      break;
    }
  }
  if (reallocated) {
    TrafficSplit split = exp_->bucketer().split();
    split.fractions = decision.fractions;
    exp_->SetSplit(std::move(split));
    if (opts_.metrics != nullptr) {
      opts_.metrics->GetCounter("exp/bai/reallocations").Add(1);
    }
  }
  history_.push_back(decision.fractions);
  last_ = std::move(decision);
  PublishMetrics(observations, decide_us);
  return last_;
}

size_t BaiController::Run(size_t max_epochs) {
  size_t ran = 0;
  while (ran < max_epochs) {
    Step();
    ++ran;
    if (stopped()) break;
  }
  return ran;
}

void BaiController::PublishMetrics(
    const std::vector<ArmObservation>& observations, double decide_us) {
  if (opts_.metrics != nullptr) {
    obs::MetricsRegistry& registry = *opts_.metrics;
    registry.GetCounter("exp/bai/epochs").Add(1);
    registry.GetGauge("exp/bai/best_arm")
        .Set(static_cast<double>(last_.best));
    registry.GetGauge("exp/bai/confidence").Set(last_.confidence);
    registry.GetGauge("exp/bai/active_arms")
        .Set(static_cast<double>(scheduler_->active_arms()));
    registry.GetGauge("exp/bai/stopped").Set(last_.stop ? 1.0 : 0.0);
    const std::vector<ArmPosterior> posteriors = scheduler_->Posteriors();
    for (size_t a = 0; a < posteriors.size(); ++a) {
      const std::string prefix = "exp/bai/arm:" + exp_->arm_spec(a).name;
      registry.GetGauge(prefix + "/posterior_mean").Set(posteriors[a].mean);
      registry.GetGauge(prefix + "/posterior_stddev")
          .Set(posteriors[a].stddev);
      registry.GetGauge(prefix + "/prob_best").Set(posteriors[a].prob_best);
      registry.GetGauge(prefix + "/fraction").Set(last_.fractions[a]);
      registry.GetGauge(prefix + "/active")
          .Set(posteriors[a].active ? 1.0 : 0.0);
      registry.GetGauge(prefix + "/epoch_cvar").Set(observations[a].cvar);
    }
  }
  if (opts_.trace != nullptr) {
    opts_.trace->EmitSpan(
        "bai/decide", decide_us,
        {{"epoch", static_cast<double>(exp_->epoch())},
         {"active_arms", static_cast<double>(scheduler_->active_arms())},
         {"best", static_cast<double>(last_.best)},
         {"confidence", last_.confidence},
         {"eliminated", static_cast<double>(last_.eliminated.size())},
         {"stop", last_.stop ? 1.0 : 0.0}},
        {{"best_arm", exp_->arm_spec(last_.best).name},
         {"scheduler", scheduler_->Name()}});
  }
}

}  // namespace randrank::bai
