#include "core/rank_merge.h"

#include <algorithm>
#include <cassert>

namespace randrank {

void SortByRankOrder(const std::vector<double>& popularity,
                     const std::vector<int64_t>& birth_step,
                     std::vector<uint32_t>* det,
                     std::vector<double>* det_score) {
  struct Key {
    double score;
    int64_t birth;
    uint32_t page;
  };
  std::vector<Key> keys;
  keys.reserve(det->size());
  for (const uint32_t p : *det) {
    keys.push_back({popularity[p], birth_step[p], p});
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    return RankOrderBefore(a.score, a.birth, a.page, b.score, b.birth,
                           b.page);
  });
  det_score->clear();
  det_score->reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    (*det)[i] = keys[i].page;
    det_score->push_back(keys[i].score);
  }
}

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

  SortByRankOrder(popularity, birth_step, &det_, &det_score_);
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
