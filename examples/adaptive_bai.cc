// Adaptive best-arm identification on live traffic: the experiment layer's
// adaptive mode (src/bai/) pitted against a planted instance. Five policy
// arms serve one churning community behind user-id hash bucketing; one arm
// — the paper's recommended gentle selective promotion — is planted as the
// best by clicked true quality, the other four randomize too hard and pay
// for it in the quality of what users actually click. The BaiController
// reads each arm's epoch reward (click-QPC) from LiveMetrics, feeds it to a
// top-two Thompson sampling scheduler, and reallocates live traffic every
// epoch through segment-preserving ramps: shrinking arms cede users, the
// leader accretes them, and nobody already on a surviving arm ever flips.
//
// The run must end with the identification COMPLETE: the stopping rule
// fired, every dominated arm ("epigon") was retired, the survivor is the
// planted arm, and the terminal allocation rides it with at least 60% of
// traffic (it gets 100% — the stop decision routes everything to the
// winner). The process exits nonzero otherwise, so this doubles as the
// subsystem's acceptance driver.
//
// Build & run:
//   cmake -B build -S . && cmake --build build -j
//   ./build/examples/adaptive_bai [--fast] [--jsonl] [--succ-elim]
//
// --jsonl streams the bai/decide + bai/eliminate decision spans (JSONL,
// bench convention) after the run; --succ-elim swaps the scheduler for the
// successive-elimination rule (even splits, UCB/LCB retirement).

#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bai/arm_scheduler.h"
#include "bai/bai_controller.h"
#include "core/community.h"
#include "core/policy/promotion_policy.h"
#include "core/policy/thompson_promotion_policy.h"
#include "core/ranking_policy.h"
#include "exp/experiment_manager.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace randrank;

  bool fast = false;
  bool jsonl = false;
  bool succ_elim = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) fast = true;
    if (std::strcmp(argv[i], "--jsonl") == 0) jsonl = true;
    if (std::strcmp(argv[i], "--succ-elim") == 0) succ_elim = true;
  }

  CommunityParams community = CommunityParams::Default();
  community.n = fast ? 2000 : 8000;
  community.u = 1000;
  community.m = 100;

  ExperimentOptions opts;
  opts.shards = 4;
  opts.threads = 4;
  opts.queries_per_epoch = fast ? 15000 : 40000;
  opts.prediscovered_fraction = 0.5;  // a fat undiscovered pool to promote
  opts.seed = 0xba1ULL;

  // The instance: one gentle selective promoter (the planted best — it
  // discovers without trashing clicked quality) against four arms that
  // randomize too aggressively, each from a different family.
  std::vector<ArmSpec> arms;
  arms.push_back({"planted",
                  MakePromotionPolicy(RankPromotionConfig::Selective(0.05, 2))});
  arms.push_back(
      {"uniform-low", MakePromotionPolicy(RankPromotionConfig::Uniform(0.15, 1))});
  arms.push_back(
      {"uniform-mid", MakePromotionPolicy(RankPromotionConfig::Uniform(0.35, 1))});
  arms.push_back({"ts-promo-hot", MakeThompsonPromotionPolicy(1.5, 1.5, 4.0, 1)});
  arms.push_back(
      {"selective-hot",
       MakePromotionPolicy(RankPromotionConfig::Selective(0.35, 1))});
  const size_t kArms = arms.size();
  const size_t kPlanted = 0;
  opts.split = TrafficSplit::Even(kArms);

  obs::MetricsRegistry registry;
  obs::TraceLog trace;
  opts.metrics = &registry;

  std::cout << "adaptive_bai: " << kArms << " arms, n=" << community.n
            << " pages, " << opts.queries_per_epoch << " queries/epoch\n"
            << "planted best: " << arms[kPlanted].name << " = "
            << arms[kPlanted].policy->Label() << "\n"
            << "scheduler: " << (succ_elim ? "succ-elim" : "tt-thompson")
            << " + CVaR guardrail; traffic reallocated each epoch via "
               "segment-preserving ramps\n\n";

  ExperimentManager exp(community, std::move(arms), opts);

  // The evidence bar before an arm may be retired: a few epochs' worth of
  // clicks even for challengers riding the exploration floor, so the
  // identification plays out as a multi-epoch ramp instead of a one-epoch
  // verdict (each arm starts with ~queries/arms clicks per epoch).
  const uint64_t min_clicks = fast ? 5000 : 15000;
  std::unique_ptr<bai::ArmScheduler> scheduler =
      succ_elim ? bai::MakeSuccessiveEliminationScheduler(kArms, min_clicks)
                : bai::MakeTopTwoThompsonScheduler(kArms, min_clicks);

  bai::BaiControllerOptions copts;
  copts.metrics = &registry;
  copts.trace = &trace;
  // The guardrail is the backstop here, not the identification mechanism:
  // it only demotes an arm whose quality tail collapses to a quarter of the
  // best arm's for four straight epochs — the instance's epigons are bad,
  // not broken, so the statistical rules should do the retiring.
  copts.guardrail_floor = 0.25;
  copts.guardrail_epochs = 4;
  bai::BaiController controller(&exp, std::move(scheduler), copts);

  const size_t kMaxEpochs = fast ? 40 : 60;
  Table table({"epoch", "active", "best", "confidence", "planted frac",
               "eliminated this epoch"});
  size_t ran = 0;
  while (ran < kMaxEpochs) {
    const bai::SchedulerDecision& d = controller.Step();
    ++ran;
    std::string retired;
    for (const size_t a : d.eliminated) {
      if (!retired.empty()) retired += ", ";
      retired += exp.arm_spec(a).name;
    }
    for (const auto& event : controller.eliminations()) {
      if (event.epoch == exp.epoch() && event.by_guardrail) {
        if (!retired.empty()) retired += ", ";
        retired += exp.arm_spec(event.arm).name + " (guardrail)";
      }
    }
    table.Row()
        .Cell(static_cast<long long>(ran))
        .Cell(static_cast<long long>(controller.scheduler().active_arms()))
        .Cell(exp.arm_spec(d.best).name)
        .Cell(d.confidence, 3)
        .Cell(d.fractions[kPlanted], 2)
        .Cell(retired.empty() ? "-" : retired);
    if (controller.stopped()) break;
  }
  table.Print(std::cout);

  if (jsonl) {
    std::cout << '\n';
    trace.WriteTo(std::cout);
  }

  // The audit trail: who was retired when, and by which rule.
  std::cout << "\neliminations:\n";
  for (const auto& event : controller.eliminations()) {
    std::cout << "  epoch " << event.epoch << ": "
              << exp.arm_spec(event.arm).name
              << (event.by_guardrail ? " (CVaR guardrail)" : " (epigon)")
              << '\n';
  }

  const bool converged = controller.stopped();
  const bool right_arm = controller.best() == kPlanted;
  const bool all_retired = controller.scheduler().active_arms() == 1;
  const double winner_frac = controller.last_decision().fractions[kPlanted];
  std::cout << "\nresult after " << ran << " epochs: converged="
            << (converged ? "yes" : "NO") << ", survivor="
            << exp.arm_spec(controller.best()).name
            << ", winner traffic=" << winner_frac << '\n';

  if (converged && right_arm && all_retired && winner_frac >= 0.6) {
    std::cout << "\nVERDICT: adaptive experimentation identified the planted "
                 "best arm, retired every epigon, and moved live traffic to "
                 "the winner — without ever flipping a surviving user.\n";
    return 0;
  }
  std::cout << "\nVERDICT: FAILED — identification did not converge on the "
               "planted arm with the traffic it deserves.\n";
  return 1;
}
