#ifndef RANDRANK_PAGERANK_PAGERANK_H_
#define RANDRANK_PAGERANK_PAGERANK_H_

#include <cstddef>
#include <vector>

#include "graph/csr.h"

namespace randrank {

/// Power-iteration cap; past it the result reports converged = false.
inline constexpr size_t kPageRankMaxIterations = 200;

/// Options for the PageRank power iteration.
struct PageRankOptions {
  /// Damping factor (1 - teleportation probability); the paper's mixed-
  /// surfing model uses c = 0.15, i.e. damping 0.85 [10].
  double damping = 0.85;
  /// L1 convergence threshold on successive score vectors.
  double tolerance = 1e-10;
  /// Worker threads for the gather phase (1 = sequential).
  size_t threads = 1;
};

/// Result of a PageRank computation. Scores sum to 1.
struct PageRankResult {
  std::vector<double> scores;
  size_t iterations = 0;
  double delta = 0.0;  // final L1 change
  bool converged = false;
};

/// PageRank by pull-style (gather) power iteration on the transposed graph:
///   s'(v) = teleport(v) * (1-d) + d * [ sum_{u->v} s(u)/outdeg(u)
///                                       + dangling_mass * teleport(v) ].
///
/// `personalization`, when given, replaces the uniform teleport vector
/// (normalized defensively). `warm_start` seeds the iteration with a prior
/// score vector -- after a small graph mutation this typically converges in
/// a handful of iterations (incremental recomputation for the evolving-graph
/// experiments).
PageRankResult ComputePageRank(const CsrGraph& graph,
                               const PageRankOptions& options = {},
                               const std::vector<double>* personalization = nullptr,
                               const std::vector<double>* warm_start = nullptr);

}  // namespace randrank

#endif  // RANDRANK_PAGERANK_PAGERANK_H_
