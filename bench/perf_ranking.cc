// Performance microbenchmarks for the core ranking pipeline: the merge
// procedure (per-day list materialization) and the lazy per-visit rank
// resolution, across community sizes and promotion configurations.

#include <benchmark/benchmark.h>

#include <vector>

#include "core/policy/promotion_policy.h"
#include "core/rank_merge.h"
#include "core/ranking_policy.h"
#include "util/distributions.h"
#include "util/rng.h"

namespace {

using randrank::MakePromotionPolicy;
using randrank::RankBiasSampler;
using randrank::Ranker;
using randrank::RankPromotionConfig;
using randrank::Rng;

struct PageState {
  std::vector<double> popularity;
  std::vector<uint8_t> zero;
  std::vector<int64_t> birth;
};

PageState MakePages(size_t n, double zero_fraction, uint64_t seed) {
  PageState s;
  Rng rng(seed);
  s.popularity.resize(n);
  s.zero.resize(n);
  s.birth.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const bool z = rng.NextDouble() < zero_fraction;
    s.zero[i] = z;
    s.popularity[i] = z ? 0.0 : rng.NextDouble() * 0.4;
    s.birth[i] = static_cast<int64_t>(i % 1000);
  }
  return s;
}

void BM_RankerUpdate(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  PageState pages = MakePages(n, 0.1, 7);
  Ranker ranker(MakePromotionPolicy(RankPromotionConfig::Selective(0.1, 1)));
  Rng rng(13);
  for (auto _ : state) {
    ranker.Update(pages.popularity, pages.zero, pages.birth, rng);
    benchmark::DoNotOptimize(ranker.deterministic_order().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_RankerUpdate)->Arg(1000)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_MaterializeList(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  PageState pages = MakePages(n, 0.1, 11);
  Ranker ranker(MakePromotionPolicy(RankPromotionConfig::Selective(0.1, 1)));
  Rng rng(17);
  ranker.Update(pages.popularity, pages.zero, pages.birth, rng);
  for (auto _ : state) {
    auto list = ranker.MaterializeList(rng);
    benchmark::DoNotOptimize(list.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_MaterializeList)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_LazyPageAtRank(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  PageState pages = MakePages(n, 0.1, 19);
  const auto policy =
      MakePromotionPolicy(RankPromotionConfig::Selective(0.1, 1));
  Ranker ranker(policy);
  Rng rng(23);
  ranker.Update(pages.popularity, pages.zero, pages.birth, rng);
  RankBiasSampler sampler(n);
  for (auto _ : state) {
    const size_t rank = sampler.Sample(rng);
    benchmark::DoNotOptimize(policy->PageAtRank(ranker.view(), rank, rng));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_LazyPageAtRank)->Arg(1000)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_MergeByRule(benchmark::State& state) {
  const size_t n = 10000;
  PageState pages = MakePages(n, 0.1, 29);
  const int rule = static_cast<int>(state.range(0));
  const RankPromotionConfig config =
      rule == 0   ? RankPromotionConfig::None()
      : rule == 1 ? RankPromotionConfig::Uniform(0.1, 1)
                  : RankPromotionConfig::Selective(0.1, 1);
  Ranker ranker(MakePromotionPolicy(config));
  Rng rng(31);
  for (auto _ : state) {
    ranker.Update(pages.popularity, pages.zero, pages.birth, rng);
    auto list = ranker.MaterializeList(rng);
    benchmark::DoNotOptimize(list.data());
  }
  state.SetLabel(config.Label());
}
BENCHMARK(BM_MergeByRule)->Arg(0)->Arg(1)->Arg(2);

}  // namespace

BENCHMARK_MAIN();
