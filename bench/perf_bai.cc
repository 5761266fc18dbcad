// Adaptive-experimentation overhead benchmark: what does best-arm
// identification cost on top of a fixed A/B experiment?
//
// Points (JSONL, same format as perf_serve):
//   bai/decide:tt-thompson  — scheduler decision latency (Observe + Decide)
//                             for the top-two Thompson rule, K arms. The
//                             Monte-Carlo P(best) estimate dominates.
//   bai/decide:succ-elim    — same for successive elimination (closed-form
//                             confidence radii; no Monte Carlo).
//   bai/epoch_overhead      — wall time per experiment epoch, adaptive
//                             (BaiController::Step: epoch + rewards +
//                             guardrail + decision + reallocation) vs fixed
//                             (bare RunEpoch), same community and traffic.
//                             `overhead_pct` is the adaptive tax; the
//                             decision machinery must stay a rounding error
//                             next to serving the epoch's queries.
//
// Run: ./build/bench/perf_bai [--smoke]

#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bai/arm_scheduler.h"
#include "bai/bai_controller.h"
#include "bench_common.h"
#include "core/community.h"
#include "core/policy/promotion_policy.h"
#include "core/ranking_policy.h"
#include "exp/experiment_manager.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace randrank;
using Clock = std::chrono::steady_clock;

// Synthetic per-arm epoch evidence with a planted gap, enough clicks to be
// realistic but (paired with a huge min_clicks) never enough to eliminate —
// every timed decision runs over the full K active arms.
std::vector<bai::ArmObservation> SyntheticEpoch(size_t arms, Rng& rng) {
  std::vector<bai::ArmObservation> epoch(arms);
  for (size_t a = 0; a < arms; ++a) {
    const double mean = a == 0 ? 0.55 : 0.45;
    const uint64_t clicks = 2000;
    epoch[a].queries = clicks * 4;
    epoch[a].clicks = clicks;
    epoch[a].reward_sum =
        (mean + 0.01 * rng.NextGaussian()) * static_cast<double>(clicks);
    epoch[a].reward_sq_sum =
        (0.02 + mean * mean) * static_cast<double>(clicks);
    epoch[a].cvar = mean * 0.8;
  }
  return epoch;
}

// One arm set for the epoch-overhead comparison (identical for both runs).
std::vector<ArmSpec> OverheadArms() {
  std::vector<ArmSpec> arms;
  arms.push_back(
      {"control", MakePromotionPolicy(RankPromotionConfig::None())});
  arms.push_back(
      {"gentle", MakePromotionPolicy(RankPromotionConfig::Selective(0.05, 2))});
  arms.push_back(
      {"mid", MakePromotionPolicy(RankPromotionConfig::Selective(0.15, 2))});
  arms.push_back(
      {"hot", MakePromotionPolicy(RankPromotionConfig::Uniform(0.3, 1))});
  return arms;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::TakeSmokeFlag(&argc, argv);

  bench::PrintBanner(
      "perf_bai",
      "best-arm identification overhead over the live experiment loop",
      "scheduler decisions are driver-thread work between epochs: the "
      "Thompson rule pays for its Monte-Carlo P(best) sweep, successive "
      "elimination is closed-form, and the whole adaptive layer must stay "
      "negligible next to serving the epoch's queries");

  bench::JsonlSink sink;
  Table table({"point", "arms", "decisions", "us/decision", "overhead"});

  // --- Decision latency per scheduler rule -------------------------------
  const size_t kArms = 8;
  const size_t kDecisions = smoke ? 200 : 2000;
  for (const bool thompson : {true, false}) {
    std::unique_ptr<bai::ArmScheduler> scheduler;
    // min_clicks 2^60: never eliminate, so K arms every decision.
    if (thompson) {
      scheduler = bai::MakeTopTwoThompsonScheduler(kArms, 1ULL << 60);
    } else {
      scheduler = bai::MakeSuccessiveEliminationScheduler(kArms, 1ULL << 60);
    }
    const std::string name =
        std::string("bai/decide:") + scheduler->Name();
    Rng rng(0xbe9cULL);
    std::vector<double> lat_us;
    lat_us.reserve(kDecisions);
    for (size_t d = 0; d < kDecisions; ++d) {
      scheduler->Observe(SyntheticEpoch(kArms, rng));
      const Clock::time_point t0 = Clock::now();
      benchmark::DoNotOptimize(scheduler->Decide());
      lat_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count());
    }
    double total_us = 0.0;
    for (const double us : lat_us) total_us += us;
    const std::map<std::string, double> fields = {
        {"us_per_decision", total_us / static_cast<double>(kDecisions)},
        {"p99_us", Percentile(lat_us, 99.0)},
        {"arms", static_cast<double>(kArms)},
        {"decisions", static_cast<double>(kDecisions)}};
    bench::RegisterCounterBenchmark(name, fields);
    sink.Emit(std::cout, name, fields);
    table.Row()
        .Cell(name)
        .Cell(static_cast<long long>(kArms))
        .Cell(static_cast<long long>(kDecisions))
        .Cell(fields.at("us_per_decision"), 2)
        .Cell("-");
  }

  // --- Per-epoch overhead: adaptive vs fixed -----------------------------
  CommunityParams community = CommunityParams::Default();
  community.n = smoke ? 2000 : 10000;
  community.u = 1000;
  community.m = 100;

  ExperimentOptions eopts;
  eopts.shards = 4;
  eopts.threads = 4;
  eopts.queries_per_epoch = smoke ? 10000 : 40000;
  eopts.prediscovered_fraction = 0.5;
  eopts.seed = 0xbeefULL;
  eopts.split = TrafficSplit::Even(OverheadArms().size());

  const size_t kEpochs = smoke ? 6 : 20;
  const auto run_fixed = [&]() {
    ExperimentManager exp(community, OverheadArms(), eopts);
    const Clock::time_point t0 = Clock::now();
    for (size_t e = 0; e < kEpochs; ++e) exp.RunEpoch();
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
               .count() /
           static_cast<double>(kEpochs);
  };
  const auto run_adaptive = [&]() {
    ExperimentManager exp(community, OverheadArms(), eopts);
    bai::BaiControllerOptions copts;
    copts.guardrail = false;
    // min_clicks 2^60 keeps all arms, so epochs stay comparable.
    bai::BaiController controller(
        &exp,
        bai::MakeTopTwoThompsonScheduler(OverheadArms().size(), 1ULL << 60),
        copts);
    const Clock::time_point t0 = Clock::now();
    for (size_t e = 0; e < kEpochs; ++e) controller.Step();
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
               .count() /
           static_cast<double>(kEpochs);
  };
  // Interleave a warmup of each to keep page-cache/allocator effects even.
  run_fixed();
  const double fixed_ms = run_fixed();
  const double adaptive_ms = run_adaptive();
  const double overhead_pct =
      fixed_ms > 0.0 ? (adaptive_ms / fixed_ms - 1.0) * 100.0 : 0.0;
  const std::map<std::string, double> fields = {
      {"fixed_ms_per_epoch", fixed_ms},
      {"adaptive_ms_per_epoch", adaptive_ms},
      {"overhead_pct", overhead_pct},
      {"arms", static_cast<double>(OverheadArms().size())},
      {"queries_per_epoch", static_cast<double>(eopts.queries_per_epoch)}};
  bench::RegisterCounterBenchmark("bai/epoch_overhead", fields);
  sink.Emit(std::cout, "bai/epoch_overhead", fields);
  table.Row()
      .Cell("bai/epoch_overhead")
      .Cell(static_cast<long long>(OverheadArms().size()))
      .Cell(static_cast<long long>(kEpochs))
      .Cell(adaptive_ms * 1000.0 / 1.0, 0)
      .Cell(FormatFixed(overhead_pct, 1) + "%");

  return bench::FinishFigureChecked(argc, argv, table, sink);
}
