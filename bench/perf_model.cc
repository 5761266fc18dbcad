// Performance microbenchmarks for the analytical model: Theorem 1 awareness
// chains, rank maps, the fixed-point solve, and trajectory transients.

#include <benchmark/benchmark.h>

#include "core/community.h"
#include "core/ranking_policy.h"
#include "model/analytic_model.h"
#include "model/awareness.h"
#include "model/quality_classes.h"
#include "model/rank_maps.h"

namespace {

using namespace randrank;

void BM_AwarenessDistribution(benchmark::State& state) {
  const auto levels = static_cast<size_t>(state.range(0));
  const auto F = [](double x) { return 0.01 + 40.0 * x; };
  for (auto _ : state) {
    const std::vector<double> f =
        AwarenessDistribution(0.4, 100000, 1.0 / 547.5, F, levels);
    benchmark::DoNotOptimize(f.data());
  }
}
BENCHMARK(BM_AwarenessDistribution)->Arg(128)->Arg(512)->Arg(2048);

void BM_RankMapQuery(benchmark::State& state) {
  CommunityParams p = CommunityParams::Default();
  const QualityClasses classes = QualityClasses::FromCommunity(p, 2048);
  const auto F = [](double x) { return 0.01 + 40.0 * x; };
  std::vector<std::vector<double>> awareness(classes.size());
  for (size_t c = 0; c < classes.size(); ++c) {
    awareness[c] = AwarenessDistribution(classes.value[c], p.u, p.lambda(), F,
                                         256);
  }
  const RankMap map(classes, awareness);
  double x = 1e-5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.DeterministicRank(x));
    x = x < 0.4 ? x * 1.01 : 1e-5;
  }
}
BENCHMARK(BM_RankMapQuery);

void BM_AnalyticSolve(benchmark::State& state) {
  const auto classes = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    AnalyticModel model(CommunityParams::Default(),
                        RankPromotionConfig::Selective(0.1, 1), classes);
    benchmark::DoNotOptimize(model.NormalizedQpc());
  }
}
BENCHMARK(BM_AnalyticSolve)->Arg(256)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

void BM_PopularityTransient(benchmark::State& state) {
  AnalyticModel model(CommunityParams::Default(),
                      RankPromotionConfig::Selective(0.2, 1));
  model.Solve();
  for (auto _ : state) {
    const std::vector<double> t = model.PopularityTrajectory(0.4, 500);
    benchmark::DoNotOptimize(t.data());
  }
}
BENCHMARK(BM_PopularityTransient)->Unit(benchmark::kMillisecond);

void BM_PoolDiscoveryRate(benchmark::State& state) {
  const ContinuousF2 f2 = ContinuousF2::Make(1000000, 100000.0);
  double z = 10.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(PoolDiscoveryRate(f2, 1, 0.1, z));
    z = z < 500000.0 ? z * 1.5 : 10.0;
  }
}
BENCHMARK(BM_PoolDiscoveryRate)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
