#include "core/policy/promotion_policy.h"

#include <algorithm>
#include <cassert>

namespace randrank {

bool PromotionPolicy::PoolMembership(bool zero_awareness, Rng& rng) const {
  switch (config_.rule) {
    case PromotionRule::kNone:
      return false;
    case PromotionRule::kUniform:
      return rng.NextBernoulli(config_.r);
    case PromotionRule::kSelective:
      return zero_awareness;
  }
  return false;
}

bool PromotionPolicy::NextSlot(size_t det_remaining, size_t pool_remaining,
                               Rng& rng) const {
  if (pool_remaining == 0) return false;
  if (det_remaining == 0) return true;
  return rng.NextBernoulli(config_.r);
}

size_t PromotionPolicy::ServePrefix(const ShardView* views, size_t num_views,
                                    const PolicyEpochState* epoch_state,
                                    PolicyScratch& scratch, size_t m, Rng& rng,
                                    std::vector<uint32_t>* out) const {
  assert(num_views == 1 && "ServePrefix takes the one pre-merged view");
  (void)num_views;
  (void)epoch_state;  // stateless: the merged view carries everything
  const uint32_t* det = views[0].det;
  const size_t det_size = views[0].det_size;
  PoolPrefixSampler& sampler = scratch.pool_sampler;
  sampler.Reset(views[0].pool, views[0].pool_size, m);

  const size_t count = std::min(m, det_size + sampler.remaining());
  const size_t protected_prefix = std::min(config_.k - 1, det_size);
  size_t d = 0;
  size_t appended = 0;
  while (appended < count && d < protected_prefix) {
    out->push_back(det[d++]);
    ++appended;
  }
  // Chunked coin pre-draw: while neither side can empty within the slots
  // left, every slot tosses exactly one Bernoulli(r) coin, so the coins can
  // be drawn in one tight loop before the splice touches any list.
  constexpr size_t kCoinChunk = 64;
  bool coins[kCoinChunk];
  while (appended < count) {
    const size_t left = count - appended;
    if (det_size - d >= left && sampler.remaining() >= left) {
      const size_t chunk = std::min(left, kCoinChunk);
      for (size_t i = 0; i < chunk; ++i) {
        coins[i] = rng.NextBernoulli(config_.r);
      }
      for (size_t i = 0; i < chunk; ++i) {
        out->push_back(coins[i] ? sampler.Next(rng) : det[d++]);
      }
      appended += chunk;
    } else {
      const bool from_pool = NextSlot(det_size - d, sampler.remaining(), rng);
      out->push_back(from_pool ? sampler.Next(rng) : det[d++]);
      ++appended;
    }
  }
  return count;
}

std::vector<uint32_t> PromotionPolicy::MaterializeReference(
    const ShardView& global, Rng& rng) const {
  return MaterializeWithPositions(global, rng, nullptr, nullptr);
}

std::vector<uint32_t> PromotionPolicy::MaterializeWithPositions(
    const ShardView& view, Rng& rng, std::vector<uint32_t>* det_positions,
    std::vector<uint32_t>* pool_positions) const {
  std::vector<uint32_t> shuffled_pool(view.pool, view.pool + view.pool_size);
  for (size_t i = shuffled_pool.size(); i > 1; --i) {
    std::swap(shuffled_pool[i - 1], shuffled_pool[rng.NextIndex(i)]);
  }
  if (det_positions) det_positions->resize(view.det_size);
  if (pool_positions) pool_positions->resize(view.pool_size);

  std::vector<uint32_t> out;
  out.reserve(view.n());
  const size_t protected_prefix = std::min(config_.k - 1, view.det_size);
  size_t d = 0;
  size_t s = 0;
  auto place = [&](bool from_pool) {
    const auto pos = static_cast<uint32_t>(out.size());
    if (from_pool) {
      if (pool_positions) (*pool_positions)[s] = pos;
      out.push_back(shuffled_pool[s++]);
    } else {
      if (det_positions) (*det_positions)[d] = pos;
      out.push_back(view.det[d++]);
    }
  };
  while (d < protected_prefix) place(false);
  while (d < view.det_size || s < shuffled_pool.size()) {
    place(NextSlot(view.det_size - d, shuffled_pool.size() - s, rng));
  }
  return out;
}

uint32_t PromotionPolicy::PageAtRank(const ShardView& view, size_t rank,
                                     Rng& rng) const {
  assert(rank >= 1 && rank <= view.n());
  const size_t protected_prefix = std::min(config_.k - 1, view.det_size);
  if (rank <= protected_prefix) return view.det[rank - 1];
  if (view.pool_size == 0) return view.det[rank - 1];

  size_t d = protected_prefix;  // det entries consumed
  size_t s = 0;                 // pool entries consumed
  for (size_t pos = protected_prefix + 1; pos <= rank; ++pos) {
    const bool from_pool =
        NextSlot(view.det_size - d, view.pool_size - s, rng);
    if (pos == rank) {
      // The s-th element of a uniformly shuffled pool is marginally uniform
      // over the pool, so a single-slot resolution may draw uniformly.
      return from_pool ? view.pool[rng.NextIndex(view.pool_size)]
                       : view.det[d];
    }
    from_pool ? ++s : ++d;
  }
  assert(false && "unreachable");
  return 0;
}

std::shared_ptr<const PromotionPolicy> MakePromotionPolicy(
    const RankPromotionConfig& config) {
  return std::make_shared<PromotionPolicy>(config);
}

}  // namespace randrank
