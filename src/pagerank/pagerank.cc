#include "pagerank/pagerank.h"

#include <cassert>
#include <cmath>
#include <numeric>

#include "util/thread_pool.h"

namespace randrank {

PageRankResult ComputePageRank(const CsrGraph& graph,
                               const PageRankOptions& options,
                               const std::vector<double>* personalization,
                               const std::vector<double>* warm_start) {
  const size_t n = graph.num_nodes();
  PageRankResult result;
  if (n == 0) return result;
  assert(options.damping >= 0.0 && options.damping < 1.0);

  // Teleport vector.
  std::vector<double> teleport(n, 1.0 / static_cast<double>(n));
  if (personalization) {
    assert(personalization->size() == n);
    const double total = std::accumulate(personalization->begin(),
                                         personalization->end(), 0.0);
    if (total > 0.0) {
      for (size_t i = 0; i < n; ++i) teleport[i] = (*personalization)[i] / total;
    }
  }

  std::vector<double> scores(n, 1.0 / static_cast<double>(n));
  if (warm_start) {
    assert(warm_start->size() == n);
    const double total =
        std::accumulate(warm_start->begin(), warm_start->end(), 0.0);
    if (total > 0.0) {
      for (size_t i = 0; i < n; ++i) scores[i] = (*warm_start)[i] / total;
    }
  }

  const CsrGraph transpose = graph.Transpose();
  std::vector<double> out_inv(n, 0.0);
  for (uint32_t u = 0; u < n; ++u) {
    const size_t deg = graph.OutDegree(u);
    out_inv[u] = deg > 0 ? 1.0 / static_cast<double>(deg) : 0.0;
  }

  std::vector<double> next(n, 0.0);
  const double d = options.damping;

  ThreadPool* pool = nullptr;
  ThreadPool owned_pool(options.threads > 1 ? options.threads : 1);
  if (options.threads > 1) pool = &owned_pool;

  for (size_t iter = 1; iter <= kPageRankMaxIterations; ++iter) {
    double dangling = 0.0;
    for (uint32_t u = 0; u < n; ++u) {
      if (graph.OutDegree(u) == 0) dangling += scores[u];
    }

    auto gather = [&](size_t v) {
      double acc = 0.0;
      for (const uint32_t u : transpose.OutNeighbors(static_cast<uint32_t>(v))) {
        acc += scores[u] * out_inv[u];
      }
      next[v] = (1.0 - d) * teleport[v] + d * (acc + dangling * teleport[v]);
    };
    if (pool) {
      ParallelFor(*pool, n, gather);
    } else {
      for (size_t v = 0; v < n; ++v) gather(v);
    }

    double delta = 0.0;
    for (size_t v = 0; v < n; ++v) delta += std::fabs(next[v] - scores[v]);
    scores.swap(next);
    result.iterations = iter;
    result.delta = delta;
    if (delta < options.tolerance) {
      result.converged = true;
      break;
    }
  }
  result.scores = std::move(scores);
  return result;
}

}  // namespace randrank
