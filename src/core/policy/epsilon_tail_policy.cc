#include "core/policy/epsilon_tail_policy.h"

#include <algorithm>
#include <cassert>

#include "core/ranking_policy.h"

namespace randrank {

std::string EpsilonTailPolicy::Label() const {
  return "eps-tail(eps=" + LabelNumber(epsilon_, 2) +
         ",k=" + std::to_string(protect_) + ")";
}

size_t EpsilonTailPolicy::ServePrefix(const ShardView* views, size_t num_views,
                                      const PolicyEpochState* epoch_state,
                                      PolicyScratch& scratch, size_t m,
                                      Rng& rng,
                                      std::vector<uint32_t>* out) const {
  assert(num_views == 1 && "ServePrefix takes the one pre-merged view");
  (void)num_views;
  (void)epoch_state;  // stateless: the head is a prefix of view.det
  const ShardView& view = views[0];
  const size_t n = view.det_size;
  const size_t count = std::min(m, n);

  // Deterministic head: one bulk copy of the merged order's top slots, no
  // Rng. The cursor below starts right after it.
  const size_t head_count = std::min(protect_, count);
  out->insert(out->end(), view.det, view.det + head_count);

  // Tail: uniform exploration draws are rejection-sampled against the pages
  // the uniform branch already served; the exploitation branch advances the
  // cursor past those pages. The cursor never moves back and the uniform
  // branch draws only at or past it, so a passed page is never looked up
  // again and stays in the set harmlessly. A query that never explores
  // inserts nothing, and its Reset costs nothing.
  scratch.emitted.Reset(count);
  size_t cursor = head_count;
  auto skip_emitted = [&]() {
    while (cursor < n && scratch.emitted.Contains(view.det[cursor])) ++cursor;
  };
  size_t appended = head_count;
  while (appended < count) {
    const size_t remaining = n - appended;
    if (remaining > 0 && rng.NextBernoulli(epsilon_)) {
      // Uniform over the unserved span [cursor, n), rejecting pages the
      // uniform branch already emitted (a subset of the span).
      for (;;) {
        const size_t span = n - cursor;
        const size_t t = static_cast<size_t>(rng.NextIndex(span));
        const uint32_t page = view.det[cursor + t];
        if (scratch.emitted.Insert(page)) {
          out->push_back(page);
          break;
        }
      }
    } else {
      skip_emitted();
      assert(cursor < n);
      out->push_back(view.det[cursor++]);
    }
    ++appended;
  }
  return count;
}

std::vector<uint32_t> EpsilonTailPolicy::MaterializeReference(
    const ShardView& global, Rng& rng) const {
  // Naive slot-by-slot realization over an explicit remaining list; the
  // independent reference the distribution-equivalence tests compare
  // ServePrefix against.
  std::vector<uint32_t> remaining(global.det, global.det + global.det_size);
  std::vector<uint32_t> out;
  out.reserve(remaining.size());
  while (!remaining.empty()) {
    size_t pick = 0;
    if (out.size() >= protect_ && rng.NextBernoulli(epsilon_)) {
      pick = rng.NextIndex(remaining.size());
    }
    out.push_back(remaining[pick]);
    remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(pick));
  }
  return out;
}

std::shared_ptr<const StochasticRankingPolicy> MakeEpsilonTailPolicy(
    double epsilon, size_t protect) {
  return std::make_shared<EpsilonTailPolicy>(epsilon, protect);
}

}  // namespace randrank
