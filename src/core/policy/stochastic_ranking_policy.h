#ifndef RANDRANK_CORE_POLICY_STOCHASTIC_RANKING_POLICY_H_
#define RANDRANK_CORE_POLICY_STOCHASTIC_RANKING_POLICY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/pool_prefix_sampler.h"
#include "util/flat_u32_map.h"
#include "util/rng.h"

namespace randrank {

/// A borrowed, immutable view of one ranking state: the deterministically
/// ordered pages (best first, with their scores kept alongside for weighted
/// families) plus the stochastic pool. The serve layer builds one from the
/// per-epoch cache (the whole corpus) or from a `RankSnapshot`; the core
/// layer builds one from a `Ranker`. All arrays are borrowed — the owner
/// must outlive the view.
struct ShardView {
  const uint32_t* det = nullptr;
  /// Sort keys of `det` (popularity; ties elsewhere by birth then id), read
  /// by weighted families. Every view in the program carries them.
  const double* det_score = nullptr;
  size_t det_size = 0;
  const uint32_t* pool = nullptr;
  size_t pool_size = 0;

  size_t n() const { return det_size + pool_size; }
};

/// Opaque, policy-owned state derived once per epoch from the pre-merged
/// global view and handed back to `ServePrefix` on every query of that
/// epoch. A family subclasses this with whatever it can precompute —
/// Plackett-Luce's Walker/Vose alias table over exp(score/T), and
/// ts-promo's table of per-position duel probabilities — instead of the
/// serve layer growing a new bespoke cache per family. Instances must be
/// self-contained (no borrowed pointers into the view they were built from)
/// and immutable after construction, so one instance is shared lock-free by
/// all serving threads and reclaimed with the epoch that built it.
class PolicyEpochState {
 public:
  virtual ~PolicyEpochState() = default;
};

/// Reusable per-caller scratch for ServePrefix: the sampler and buffers that
/// would otherwise allocate on every query. One scratch per serving thread;
/// a scratch must not be shared between concurrent calls. Policies use the
/// subset they need and leave the rest untouched.
struct PolicyScratch {
  /// Global-pool sampler (promotion and ts-promo families).
  PoolPrefixSampler pool_sampler;
  /// Pages already emitted this query (Plackett-Luce's and eps-tail's
  /// rejection tracking).
  FlatU32Map emitted;
  /// (key, page) buffer for weighted families (Plackett-Luce top-m).
  std::vector<std::pair<double, uint32_t>> keyed;
};

/// A family of stochastic rankers: the policy owns (1) how pages are
/// partitioned into the deterministic list Ld versus the stochastic pool Pp,
/// and (2) how a fresh random realization of the result list is drawn from
/// that state. The paper's randomized rank promotion is one family; the
/// interface exists so the next family is a single new class instead of a
/// cross-cutting surgery through core, serve, sim, and bench.
///
/// Contract: `ServePrefix` over the pre-merged global view must realize
/// exactly the law of `MaterializeReference` over that view (the
/// chi-squared equivalence tests hold every family to it). Every
/// realization drawn with the same policy over the same state is
/// independent given `rng`.
class StochasticRankingPolicy {
 public:
  virtual ~StochasticRankingPolicy() = default;

  /// Stable human-readable label like "selective(r=0.10,k=2)" or
  /// "plackett-luce(T=0.25)"; bench JSONL keys perf points by it and
  /// MakePolicyFromLabel() inverts it.
  virtual std::string Label() const = 0;

  /// True when the family's parameters are in range and consistent.
  virtual bool Valid() const { return true; }

  /// Partition hook: whether a page with the given zero-awareness flag
  /// enters the stochastic pool Pp rather than the deterministic list Ld.
  /// Single source of truth — Ranker::Update, ShardedRankServer::Update,
  /// RankSnapshot::Build, and the simulator's ghost placement all consult
  /// it, or serving silently diverges from the simulated distribution.
  /// Must draw from `rng` a per-page-deterministic number of times (zero
  /// for most families).
  virtual bool PoolMembership(bool zero_awareness, Rng& rng) const = 0;

  /// Derives this family's per-epoch serving state from the pre-merged
  /// global view, or returns null when the family keeps none (the default —
  /// correct for families whose epoch-invariant state is exactly the merged
  /// view itself, like the promotion splice). Called once per
  /// Ranker::Update / RankSnapshot::Build / epoch publish, never on the
  /// query path, and must not draw randomness (epoch state is a
  /// deterministic function of the ranking state). The returned object obeys
  /// the PolicyEpochState contract: self-contained and immutable.
  virtual std::shared_ptr<const PolicyEpochState> BuildEpochState(
      const ShardView& global) const {
    (void)global;
    return nullptr;
  }

  /// Appends the first min(m, n) slots of a fresh realization over the
  /// pre-merged global view and returns how many were appended.
  /// Precondition: `num_views == 1` — `views[0]` is the whole ranking state
  /// being served (the epoch cache's merged view on the serve path, a
  /// Ranker's or a standalone RankSnapshot's own view elsewhere). The array
  /// form stays only because the benchmark harness (perfbench/) calls
  /// `ServePrefix(&view, 1, ...)`; it narrows to one view when that harness
  /// next changes.
  /// `epoch_state` is either null or the product of this policy's
  /// BuildEpochState over exactly that view (never over a different epoch's
  /// view — the owner of the view owns its state); policies with no state
  /// ignore it. `scratch` is caller-owned and reused across queries.
  virtual size_t ServePrefix(const ShardView* views, size_t num_views,
                             const PolicyEpochState* epoch_state,
                             PolicyScratch& scratch, size_t m, Rng& rng,
                             std::vector<uint32_t>* out) const = 0;

  /// Reference realization of the full list over the pre-merged global
  /// view, implemented naively and independently of the ServePrefix fast
  /// path where possible — the distribution-equivalence tests compare the
  /// two. Not a hot path.
  virtual std::vector<uint32_t> MaterializeReference(const ShardView& global,
                                                     Rng& rng) const = 0;
};

}  // namespace randrank

#endif  // RANDRANK_CORE_POLICY_STOCHASTIC_RANKING_POLICY_H_
