#ifndef RANDRANK_BAI_BAI_CONTROLLER_H_
#define RANDRANK_BAI_BAI_CONTROLLER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "bai/arm_scheduler.h"
#include "exp/experiment_manager.h"

namespace randrank::bai {

struct BaiControllerOptions {
  /// Risk guardrail (auto-rollback): an arm whose epoch CVaR quality (the
  /// worst LiveMetrics::kCvarAlpha of its clicks) stays below
  /// `guardrail_floor` x the best active arm's CVaR for `guardrail_epochs`
  /// consecutive epochs (each with at least kGuardrailMinClicks clicks on
  /// both arms) is demoted immediately — eliminated without waiting for the
  /// scheduler's statistical rule. This is the "a randomized arm is hurting
  /// its worst-served queries" brake: mean reward can look competitive while
  /// the quality tail collapses.
  bool guardrail = true;
  double guardrail_floor = 0.5;
  size_t guardrail_epochs = 2;
  /// Observability (optional, borrowed). With `metrics` set the controller
  /// maintains the `exp/bai/*` counters/gauges (epochs, eliminations,
  /// guardrail demotions, reallocations, best arm, confidence, active arms,
  /// stopped flag) and per-arm `exp/bai/arm:<name>/*` posterior gauges.
  /// With `trace` set every decision emits a "bai/decide" span and every
  /// retirement a "bai/eliminate" span (JSONL, bench convention).
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceLog* trace = nullptr;

  bool Valid() const;
};

/// One arm retirement, for the audit trail the runbook reads.
struct EliminationEvent {
  /// Experiment epoch whose evidence triggered the retirement.
  int64_t epoch = 0;
  size_t arm = 0;
  /// True when the CVaR guardrail demoted the arm; false when the
  /// scheduler's elimination rule retired it as a statistical epigon.
  bool by_guardrail = false;
};

/// The adaptive mode of the experiment layer: drives an ExperimentManager
/// epoch by epoch under an ArmScheduler. Each Step()
///
///   1. runs one experiment epoch — the previous decision's fractions were
///      staged via SetSplit, so they take effect atomically with that
///      epoch's publish (and any pending policy hot-swap rides the same
///      publish);
///   2. reads every arm's epoch reward (clicked quality) from LiveMetrics;
///   3. applies the CVaR guardrail, demoting arms whose quality tail
///      collapsed (auto-rollback — their traffic returns to the survivors
///      at the next publish);
///   4. feeds the observations to the scheduler and asks it to Decide();
///   5. stages the decided fractions for the next epoch, records allocation
///      history + elimination events, updates the `exp/bai/*` metrics, and
///      emits the decision trace span.
///
/// Driver-thread only, like the ExperimentManager it borrows (which must
/// outlive the controller). The scheduler must have been constructed over
/// the same number of arms.
class BaiController {
 public:
  /// Clicks an arm's epoch needs before its CVaR counts for the guardrail.
  static constexpr uint64_t kGuardrailMinClicks = 50;

  BaiController(ExperimentManager* experiment,
                std::unique_ptr<ArmScheduler> scheduler,
                BaiControllerOptions options = {});

  /// One adaptive epoch; returns the decision just taken. After stopped()
  /// further Steps keep serving the winner (the experiment goes on; the
  /// identification is over).
  const SchedulerDecision& Step();

  /// Steps until the stopping rule fires or `max_epochs` epochs have run.
  /// Returns the number of epochs actually run.
  size_t Run(size_t max_epochs);

  bool stopped() const { return last_.stop; }
  size_t best() const { return last_.best; }
  double confidence() const { return last_.confidence; }
  const SchedulerDecision& last_decision() const { return last_; }
  const ArmScheduler& scheduler() const { return *scheduler_; }
  ExperimentManager& experiment() { return *exp_; }

  /// Fractions decided after each Step, in order (the allocation history —
  /// entry i is what epoch i+2 will serve / served).
  const std::vector<std::vector<double>>& allocation_history() const {
    return history_;
  }
  const std::vector<EliminationEvent>& eliminations() const {
    return eliminations_;
  }

 private:
  void ApplyGuardrail(const std::vector<ArmObservation>& observations);
  void PublishMetrics(const std::vector<ArmObservation>& observations,
                      double decide_us);

  ExperimentManager* exp_;
  std::unique_ptr<ArmScheduler> scheduler_;
  BaiControllerOptions opts_;
  SchedulerDecision last_;
  std::vector<std::vector<double>> history_;
  std::vector<EliminationEvent> eliminations_;
  /// Consecutive guardrail-breach epochs per arm.
  std::vector<size_t> breach_streak_;
};

}  // namespace randrank::bai

#endif  // RANDRANK_BAI_BAI_CONTROLLER_H_
