#include "core/policy/plackett_luce_policy.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/ranking_policy.h"
#include "util/alias_table.h"

namespace randrank {

namespace {

/// Standard Gumbel draw; u is guarded away from 0 so the key stays finite.
double NextGumbel(Rng& rng) {
  double u;
  do {
    u = rng.NextDouble();
  } while (u <= 0.0);
  return -std::log(-std::log1p(u - 1.0));
}

/// Per-epoch state: the alias table over exp(score/T) whose columns carry
/// the det page ids, so a draw yields a page id without reading the view
/// (the state copies the ids and borrows nothing).
class PlackettLuceEpochState final : public PolicyEpochState {
 public:
  AliasTable table;
};

/// Alias draws the serve loop keeps prefetched ahead of its Sample calls:
/// enough to overlap the cache misses of a query's first draws.
constexpr size_t kLookahead = 8;

}  // namespace

std::string PlackettLucePolicy::Label() const {
  return "plackett-luce(T=" + LabelNumber(temperature_, 2) + ")";
}

std::shared_ptr<const PolicyEpochState> PlackettLucePolicy::BuildEpochState(
    const ShardView& global) const {
  assert(global.pool_size == 0 && "weighted families keep no pool");
  if (global.det_size == 0) return nullptr;
  // Weights are shifted by the max score before exponentiation so small
  // temperatures saturate to 0 on the tail instead of overflowing the head;
  // the alias table normalizes, so the shift cancels.
  double max_score = global.det_score[0];
  for (size_t j = 1; j < global.det_size; ++j) {
    max_score = std::max(max_score, global.det_score[j]);
  }
  std::vector<double> weight(global.det_size);
  for (size_t j = 0; j < global.det_size; ++j) {
    weight[j] = std::exp((global.det_score[j] - max_score) / temperature_);
  }
  auto state = std::make_shared<PlackettLuceEpochState>();
  state->table.Build(weight.data(), global.det, global.det_size);
  return state;
}

size_t PlackettLucePolicy::ServePrefix(const ShardView* views,
                                       size_t num_views,
                                       const PolicyEpochState* epoch_state,
                                       PolicyScratch& scratch, size_t m,
                                       Rng& rng,
                                       std::vector<uint32_t>* out) const {
  assert(num_views == 1 && "ServePrefix takes the one pre-merged view");
  (void)num_views;
  const ShardView& view = views[0];
  const size_t n = view.det_size;
  const size_t count = std::min(m, n);
  if (count == 0) return 0;
  assert(view.det_score != nullptr);

  // Drawing from the *unconditional* softmax and rejecting already-served
  // pages realizes exactly sequential softmax sampling without replacement
  // (the rejected draws are uniform noise over the served mass). Expected
  // attempts per slot are 1/(1 - served_mass): O(1) while the served prefix
  // holds a bounded share of the softmax mass, i.e. O(m) expected per query
  // for m << n at sane temperatures.
  //
  // The cap bounds the degenerate regimes (tiny T concentrating the mass on
  // a handful of pages, or m -> n) where served_mass -> 1 and the rejection
  // loop would otherwise be unbounded: after O(log n) failed attempts the
  // remainder of the query falls back to Gumbel-max over the not-yet-served
  // pages — the exact conditional law — so a query never costs more than
  // O(n log n). Without an alias table the fallback serves every slot.
  const AliasTable* table =
      epoch_state != nullptr
          ? &static_cast<const PlackettLuceEpochState*>(epoch_state)->table
          : nullptr;
  assert(table == nullptr || table->size() == n);
  size_t max_attempts = 16;
  for (size_t span = n; span > 0; span >>= 1) max_attempts += 4;

  // `ahead` replays rng's stream kLookahead attempts early, prefetching the
  // column each attempt will read; rng itself draws exactly as it would
  // without it, so every attempt, the fallback and the list are unchanged.
  scratch.emitted.Reset(count);
  size_t appended = 0;
  if (table != nullptr) {
    Rng ahead = rng;
    for (size_t j = 0; j < kLookahead; ++j) table->Lookahead(ahead);
    while (appended < count) {
      bool served = false;
      for (size_t attempt = 0; attempt < max_attempts; ++attempt) {
        table->Lookahead(ahead);
        const uint32_t page = table->Sample(rng);
        if (scratch.emitted.Insert(page)) {
          out->push_back(page);
          ++appended;
          served = true;
          break;
        }
      }
      if (!served) break;  // rejection went degenerate: Gumbel fallback
    }
  }
  if (appended == count) return count;

  // Fallback: Gumbel-max over the pages not yet served — one perturbed key
  // per page, top keys descending. Conditioning a Plackett-Luce realization
  // on its first `appended` entries leaves a Plackett-Luce law over the
  // remainder, which Gumbel-max samples exactly.
  scratch.keyed.clear();
  scratch.keyed.reserve(n - appended);
  for (size_t j = 0; j < n; ++j) {
    if (scratch.emitted.Contains(view.det[j])) continue;
    scratch.keyed.emplace_back(
        view.det_score[j] / temperature_ + NextGumbel(rng), view.det[j]);
  }
  const size_t rest = count - appended;
  // Ties have probability zero in exact arithmetic; break them by page id so
  // floating-point collisions stay deterministic.
  const auto better = [](const std::pair<double, uint32_t>& a,
                         const std::pair<double, uint32_t>& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  };
  if (rest < scratch.keyed.size()) {
    std::nth_element(scratch.keyed.begin(),
                     scratch.keyed.begin() + static_cast<ptrdiff_t>(rest - 1),
                     scratch.keyed.end(), better);
  }
  std::sort(scratch.keyed.begin(),
            scratch.keyed.begin() + static_cast<ptrdiff_t>(rest), better);
  for (size_t j = 0; j < rest; ++j) out->push_back(scratch.keyed[j].second);
  return count;
}

std::vector<uint32_t> PlackettLucePolicy::MaterializeReference(
    const ShardView& global, Rng& rng) const {
  // Naive sequential softmax sampling without replacement — the textbook
  // Plackett-Luce definition, independent of the alias and Gumbel draws.
  assert(global.det_score != nullptr);
  const size_t n = global.det_size;
  // Weights of the pages not yet drawn, exp((s - shift)/T); a drawn page's
  // weight is 0. `positive` counts the undrawn pages whose weight did not
  // underflow to 0.
  std::vector<double> weight(n);
  std::vector<uint8_t> drawn(n, 0);
  double mass = 0.0;
  size_t positive = 0;
  const auto reweigh = [&](double shift) {
    mass = 0.0;
    positive = 0;
    for (size_t j = 0; j < n; ++j) {
      if (drawn[j]) continue;
      weight[j] = std::exp((global.det_score[j] - shift) / temperature_);
      mass += weight[j];
      positive += weight[j] > 0.0 ? 1 : 0;
    }
  };
  const auto top_left = [&]() {
    double top = -HUGE_VAL;
    for (size_t j = 0; j < n; ++j) {
      if (!drawn[j]) top = std::max(top, global.det_score[j]);
    }
    return top;
  };
  reweigh(std::max(0.0, top_left()));

  std::vector<uint32_t> out;
  out.reserve(n);
  for (size_t slot = 0; slot < n; ++slot) {
    // Every page left underflowed (tiny T over a wide score range). Softmax
    // is shift-invariant, so weigh them again against the largest score
    // left, whose weight is then exactly 1.
    if (positive == 0) reweigh(top_left());
    double target = rng.NextDouble() * mass;
    size_t pick = n;
    for (size_t j = 0; j < n; ++j) {
      if (weight[j] == 0.0) continue;
      pick = j;  // last live page absorbs rounding leftovers
      target -= weight[j];
      if (target < 0.0) break;
    }
    assert(pick < n);
    out.push_back(global.det[pick]);
    mass -= weight[pick];
    weight[pick] = 0.0;
    drawn[pick] = 1;
    --positive;
  }
  return out;
}

std::shared_ptr<const StochasticRankingPolicy> MakePlackettLucePolicy(
    double temperature) {
  return std::make_shared<PlackettLucePolicy>(temperature);
}

}  // namespace randrank
