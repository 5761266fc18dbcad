#include "core/rank_merge.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

namespace randrank {
namespace {

// Maps a score's bits to an unsigned value whose ascending order is the
// score's descending order: a non-negative score keeps its sign bit and
// flips the rest, a negative one keeps every bit. The map is its own
// inverse, so it also decodes a sorted key's score.
uint64_t FlipScoreOrder(uint64_t bits) {
  return (bits >> 63) != 0 ? bits : bits ^ (~uint64_t{0} >> 1);
}

}  // namespace

void SortByRankOrder(const std::vector<double>& popularity,
                     const std::vector<int64_t>& birth_step,
                     std::vector<uint32_t>* det,
                     std::vector<double>* det_score) {
  const size_t n = det->size();
  // Reserved before the keys, so the keys (freed on return) are not placed
  // below the kept scores in the heap.
  det_score->clear();
  det_score->reserve(n);
  if (n == 0) return;

  int64_t first_birth = birth_step[(*det)[0]];
  for (const uint32_t p : *det) {
    first_birth = std::min(first_birth, birth_step[p]);
  }

  std::vector<unsigned __int128> keys;
  keys.reserve(n);
  for (const uint32_t p : *det) {
    const double score = popularity[p];
    assert(!std::isnan(score));
    // RankOrderBefore ties -0.0 with +0.0, so both take +0.0's bits.
    const uint64_t high =
        FlipScoreOrder(std::bit_cast<uint64_t>(score == 0.0 ? 0.0 : score));
    const uint64_t age = static_cast<uint64_t>(birth_step[p]) -
                         static_cast<uint64_t>(first_birth);
    assert(age <= std::numeric_limits<uint32_t>::max());
    keys.push_back(static_cast<unsigned __int128>(high) << 64 | age << 32 | p);
  }
  std::sort(keys.begin(), keys.end());
  for (size_t i = 0; i < n; ++i) {
    (*det)[i] = static_cast<uint32_t>(keys[i]);
    det_score->push_back(std::bit_cast<double>(
        FlipScoreOrder(static_cast<uint64_t>(keys[i] >> 64))));
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
