#include "serve/rank_snapshot.h"

#include <cassert>

#include "core/rank_merge.h"

namespace randrank {

size_t RankSnapshot::TopM(size_t m, Rng& rng, std::vector<uint32_t>* out) const {
  const ShardView view = AsView();
  PolicyScratch scratch;
  return policy->ServePrefix(&view, 1, epoch_state.get(), scratch, m, rng, out);
}

uint32_t RankSnapshot::PageAtRank(size_t rank, Rng& rng) const {
  // The marginal of rank j in a length-j prefix realization equals the
  // full-list marginal.
  std::vector<uint32_t> prefix;
  TopM(rank, rng, &prefix);
  assert(prefix.size() == rank);
  return prefix.back();
}

std::shared_ptr<const RankSnapshot> RankSnapshot::Build(
    std::shared_ptr<const StochasticRankingPolicy> policy, uint64_t epoch,
    const std::vector<uint32_t>& pages, const std::vector<double>& popularity,
    const std::vector<uint8_t>& zero_awareness,
    const std::vector<int64_t>& birth_step, Rng& rng,
    bool build_epoch_state) {
  assert(policy != nullptr && policy->Valid());
  auto snap = std::make_shared<RankSnapshot>();
  snap->epoch = epoch;
  snap->policy = std::move(policy);
  snap->det.reserve(pages.size());

  for (const uint32_t p : pages) {
    assert(p < popularity.size());
    (snap->policy->PoolMembership(zero_awareness[p] != 0, rng) ? snap->pool
                                                               : snap->det)
        .push_back(p);
  }

  SortByRankOrder(popularity, birth_step, &snap->det, &snap->det_score);
  snap->det_birth.reserve(snap->det.size());
  for (const uint32_t p : snap->det) snap->det_birth.push_back(birth_step[p]);
  // Per-epoch policy state over this shard's finished view (deterministic,
  // so parallel shard builds stay reproducible; no Rng by contract).
  if (build_epoch_state) {
    snap->epoch_state = snap->policy->BuildEpochState(snap->AsView());
  }
  return snap;
}

size_t BestDetHead(const RankSnapshot* const* snaps, const size_t* cursors,
                   size_t shards) {
  size_t best = shards;
  for (size_t s = 0; s < shards; ++s) {
    const RankSnapshot& snap = *snaps[s];
    const size_t c = cursors[s];
    if (c >= snap.det.size()) continue;
    if (best == shards) {
      best = s;
      continue;
    }
    const RankSnapshot& bs = *snaps[best];
    const size_t bc = cursors[best];
    if (RankOrderBefore(snap.det_score[c], snap.det_birth[c], snap.det[c],
                        bs.det_score[bc], bs.det_birth[bc], bs.det[bc])) {
      best = s;
    }
  }
  return best;
}

}  // namespace randrank
