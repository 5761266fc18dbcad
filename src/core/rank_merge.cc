#include "core/rank_merge.h"

#include <algorithm>
#include <cassert>

namespace randrank {

Ranker::Ranker(std::shared_ptr<const StochasticRankingPolicy> policy)
    : policy_(std::move(policy)) {
  assert(policy_ != nullptr);
  assert(policy_->Valid());
}

void Ranker::Update(const std::vector<double>& popularity,
                    const std::vector<uint8_t>& zero_awareness,
                    const std::vector<int64_t>& birth_step, Rng& rng) {
  const size_t n = popularity.size();
  assert(zero_awareness.size() == n);
  assert(birth_step.size() == n);

  det_.clear();
  pool_.clear();
  det_.reserve(n);
  for (uint32_t p = 0; p < n; ++p) {
    (policy_->PoolMembership(zero_awareness[p] != 0, rng) ? pool_ : det_)
        .push_back(p);
  }

  std::sort(det_.begin(), det_.end(), [&](uint32_t a, uint32_t b) {
    return RankOrderBefore(popularity[a], birth_step[a], a, popularity[b],
                           birth_step[b], b);
  });
  det_score_.clear();
  det_score_.reserve(det_.size());
  for (const uint32_t p : det_) det_score_.push_back(popularity[p]);
  // Per-epoch policy state (no Rng by contract, so seeded streams are
  // unaffected).
  epoch_state_ = policy_->BuildEpochState(view());
}

std::vector<uint32_t> Ranker::MaterializeList(Rng& rng) const {
  return policy_->MaterializeReference(view(), rng);
}

std::vector<uint32_t> Ranker::TopM(size_t m, Rng& rng) const {
  std::vector<uint32_t> out;
  out.reserve(std::min(m, n()));
  const ShardView global = view();
  PolicyScratch scratch;
  policy_->ServePrefix(&global, 1, epoch_state_.get(), scratch, m, rng, &out);
  return out;
}

}  // namespace randrank
