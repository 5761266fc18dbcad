#ifndef RANDRANK_CORE_RANK_MERGE_H_
#define RANDRANK_CORE_RANK_MERGE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/policy/stochastic_ranking_policy.h"
#include "util/rng.h"

namespace randrank {

/// The global deterministic ranking key (Appendix A): popularity descending,
/// ties by age (older, i.e. smaller birth step, first), then by page id.
/// Every sorted deterministic list in the system — Ranker::Update, the
/// server's epoch publish, and the per-shard snapshots — must order by
/// exactly this predicate, or serving silently stops matching the simulated
/// distribution. Keep it in one place.
inline bool RankOrderBefore(double score_a, int64_t birth_a, uint32_t page_a,
                            double score_b, int64_t birth_b, uint32_t page_b) {
  if (score_a != score_b) return score_a > score_b;
  if (birth_a != birth_b) return birth_a < birth_b;
  return page_a < page_b;
}

/// Sorts the page ids in `det` (any order) by RankOrderBefore over
/// (`popularity[p]`, `birth_step[p]`, p) and writes each sorted page's
/// popularity to the same slot of `det_score`. The one deterministic sort
/// behind Ranker::Update, ShardedRankServer::Update and RankSnapshot::Build.
/// It sorts one 128-bit key per page (16 B, freed on return) under plain
/// `<`: the high word is the score's bits mapped to a descending unsigned
/// order, the low word the page's birth offset from the earliest birth in
/// `det`, shifted above its 32-bit id. So a comparison is one integer
/// compare, and no key is loaded through an id (which misses the cache once
/// the key arrays outgrow it).
///
/// The key's domain, asserted: no score in `det` is NaN (RankOrderBefore is
/// no strict weak order over NaN either), and the births in `det` span less
/// than 2^32 steps. Callers pass popularity in [0, 1], JokeSite's vote
/// counts and AgentSimulator's age-weighted or derivative scores, with
/// epoch or day counters as births. A -0.0 score ties with +0.0, as under
/// RankOrderBefore, and reads back as +0.0 in `det_score`.
void SortByRankOrder(const std::vector<double>& popularity,
                     const std::vector<int64_t>& birth_step,
                     std::vector<uint32_t>* det,
                     std::vector<double>* det_score);

/// Executes the ranking pipeline for one time step under any
/// StochasticRankingPolicy (the paper's Section 4 pipeline is the promotion
/// family):
///
///  1. Split pages into the stochastic pool Pp (per the policy's
///     PoolMembership hook) and the rest, which forms the deterministic
///     list Ld sorted by descending popularity (ties broken by age, older
///     first, as in Appendix A). Scores are kept alongside for weighted
///     families.
///  2. Produce result lists through the policy: a full reference
///     realization (MaterializeReference) or a prefix (ServePrefix) over
///     view().
///
/// The ranker knows no family. Promotion-only realizations (list positions,
/// lazy per-rank resolution) are PromotionPolicy members that callers apply
/// to view().
class Ranker {
 public:
  explicit Ranker(std::shared_ptr<const StochasticRankingPolicy> policy);

  /// Recomputes pool membership and the deterministic order from current
  /// page state. `popularity[p]` is p's score, higher ranked better, within
  /// SortByRankOrder's domain: popularity in [0,1], but JokeSite passes
  /// vote counts and AgentSimulator age-weighted or derivative scores;
  /// `zero_awareness[p]` nonzero when no monitored user has visited p;
  /// `birth_step[p]` breaks score ties (smaller = older = ranked better).
  /// The uniform rule re-samples pool membership on every call. Also
  /// rebuilds the policy's per-epoch state (BuildEpochState over the fresh
  /// global view — e.g. Plackett-Luce's alias table), which TopM then reuses
  /// on every realization.
  void Update(const std::vector<double>& popularity,
              const std::vector<uint8_t>& zero_awareness,
              const std::vector<int64_t>& birth_step, Rng& rng);

  /// One realization of the merged result list: a permutation of all pages,
  /// best rank first (the policy's MaterializeReference over view()).
  std::vector<uint32_t> MaterializeList(Rng& rng) const;

  /// First min(m, n()) slots of an independent random realization, via the
  /// policy's ServePrefix. Marginals match MaterializeList; O(m) expected
  /// for every shipped family except in Plackett-Luce's degenerate regimes.
  std::vector<uint32_t> TopM(size_t m, Rng& rng) const;

  /// Deterministically ranked pages (Ld), best first.
  const std::vector<uint32_t>& deterministic_order() const { return det_; }
  /// Stochastic pool Pp (unshuffled; empty for pool-less families).
  const std::vector<uint32_t>& pool() const { return pool_; }
  const StochasticRankingPolicy& policy() const { return *policy_; }
  size_t n() const { return det_.size() + pool_.size(); }

  /// The complete corpus as one pre-merged global view (borrowing this
  /// ranker's arrays; valid until the next Update).
  ShardView view() const {
    return {det_.data(), det_score_.data(), det_.size(), pool_.data(),
            pool_.size()};
  }

 private:
  std::shared_ptr<const StochasticRankingPolicy> policy_;
  std::vector<uint32_t> det_;
  // Scores are kept so view() satisfies the full ShardView contract
  // (weighted families read them), so policies need no null-view cases.
  std::vector<double> det_score_;
  std::vector<uint32_t> pool_;
  // Policy-owned per-epoch state over view(), rebuilt by Update and handed
  // to every ServePrefix; null for stateless families.
  std::shared_ptr<const PolicyEpochState> epoch_state_;
};

}  // namespace randrank

#endif  // RANDRANK_CORE_RANK_MERGE_H_
