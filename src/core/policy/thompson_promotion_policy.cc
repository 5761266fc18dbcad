#include "core/policy/thompson_promotion_policy.h"

#include <math.h>  // lgamma_r

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/ranking_policy.h"

namespace randrank {

namespace {

/// Marsaglia–Tsang squeeze sampler for Gamma(alpha, 1); the alpha < 1 case
/// boosts through Gamma(alpha + 1) * U^(1/alpha).
double SampleGamma(double alpha, Rng& rng) {
  assert(alpha > 0.0);
  double boost = 1.0;
  if (alpha < 1.0) {
    const double u = rng.NextDouble();
    boost = std::pow(u > 0.0 ? u : 1e-300, 1.0 / alpha);
    alpha += 1.0;
  }
  const double d = alpha - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x;
    double v;
    do {
      x = rng.NextGaussian();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = rng.NextDouble();
    if (u < 1.0 - 0.0331 * x * x * x * x) return boost * d * v;
    if (u > 0.0 &&
        std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return boost * d * v;
    }
  }
}

double SampleBeta(double a, double b, Rng& rng) {
  const double x = SampleGamma(a, rng);
  const double y = SampleGamma(b, rng);
  const double total = x + y;
  return total > 0.0 ? x / total : 0.5;
}

/// Normalized evidence score of a deterministic head: its rank score over
/// the global maximum, clamped to [0, 1] (degenerate all-zero scores give a
/// neutral 1/2).
double NormalizedScore(double score, double max_score) {
  if (!(max_score > 0.0)) return 0.5;
  return std::clamp(score / max_score, 0.0, 1.0);
}

/// One sampled duel: true when the pool's Beta(a, b) draw beats the head's
/// Beta(1 + c*s, 1 + c*(1 - s)) draw.
bool SampledDuel(double a, double b, double evidence, double s, Rng& rng) {
  const double theta_det =
      SampleBeta(1.0 + evidence * s, 1.0 + evidence * (1.0 - s), rng);
  const double theta_pool = SampleBeta(a, b, rng);
  return theta_pool > theta_det;
}

/// log Gamma(x) through the reentrant lgamma_r: std::lgamma writes the
/// global signgam, a data race between serving threads.
double LogGamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

/// Per-epoch state at a = 1: q of the head at each of the first det
/// positions, in det order.
class ThompsonEpochState final : public PolicyEpochState {
 public:
  std::vector<double> coin;
};

/// q of the head at det position `j` of `view`: from `table` when it covers
/// j, else computed. Both give the same bits, so a served list does not
/// depend on whether the table was there.
double CoinAt(const ThompsonPromotionPolicy& policy, const ShardView& view,
              const std::vector<double>* table, size_t j) {
  if (table != nullptr && j < table->size()) return (*table)[j];
  return policy.PoolWinProbability(
      NormalizedScore(view.det_score[j], view.det_score[0]));
}

}  // namespace

ThompsonPromotionPolicy::ThompsonPromotionPolicy(double a, double b,
                                                 double evidence,
                                                 size_t protect)
    : a_(a),
      b_(b),
      evidence_(evidence),
      protect_(protect),
      log_coin_scale_(LogGamma(2.0 + evidence) - LogGamma(2.0 + evidence + b)) {
}

double ThompsonPromotionPolicy::PoolWinProbability(double s) const {
  // With theta_pool ~ Beta(1, b), P(theta_pool > x) = (1 - x)^b, so
  // q = E[(1 - theta_det)^b] = B(alpha, beta + b) / B(alpha, beta) over the
  // head's Beta(alpha, beta), and alpha + beta = 2 + c.
  assert(a_ == 1.0 && "q has a closed form only for a Beta(1, b) prior");
  const double beta = 1.0 + evidence_ * (1.0 - s);
  return std::exp(log_coin_scale_ + LogGamma(beta + b_) - LogGamma(beta));
}

std::string ThompsonPromotionPolicy::Label() const {
  return "ts-promo(a=" + LabelNumber(a_, 2) + ",b=" + LabelNumber(b_, 2) +
         ",c=" + LabelNumber(evidence_, 1) + ",k=" + std::to_string(protect_) +
         ")";
}

std::shared_ptr<const PolicyEpochState>
ThompsonPromotionPolicy::BuildEpochState(const ShardView& global) const {
  if (a_ != 1.0 || global.det_size == 0) return nullptr;
  assert(global.det_score != nullptr);
  auto state = std::make_shared<ThompsonEpochState>();
  state->coin.resize(std::min(global.det_size, kCoinTablePositions));
  for (size_t j = 0; j < state->coin.size(); ++j) {
    state->coin[j] = CoinAt(*this, global, nullptr, j);
  }
  return state;
}

size_t ThompsonPromotionPolicy::ServePrefix(const ShardView* views,
                                            size_t num_views,
                                            const PolicyEpochState* epoch_state,
                                            PolicyScratch& scratch, size_t m,
                                            Rng& rng,
                                            std::vector<uint32_t>* out) const {
  assert(num_views == 1 && "ServePrefix takes the one pre-merged view");
  (void)num_views;
  const ShardView& view = views[0];
  const std::vector<double>* table =
      epoch_state != nullptr
          ? &static_cast<const ThompsonEpochState*>(epoch_state)->coin
          : nullptr;
  assert(table == nullptr ||
         table->size() == std::min(view.det_size, kCoinTablePositions));
  // The duel normalizes head scores by the global maximum: the first entry
  // of the (descending) det list.
  assert(view.det_size == 0 || view.det_score != nullptr);
  const size_t count = std::min(m, view.n());

  // The protected prefix never duels: one bulk copy of the det head.
  const size_t head = std::min({protect_, count, view.det_size});
  out->insert(out->end(), view.det, view.det + head);
  PoolPrefixSampler& pool = scratch.pool_sampler;
  pool.Reset(view.pool, view.pool_size, count - head);
  size_t det_cursor = head;
  for (size_t appended = head; appended < count; ++appended) {
    bool from_pool;
    if (det_cursor == view.det_size) {
      from_pool = true;
    } else if (pool.remaining() == 0) {
      from_pool = false;
    } else if (a_ == 1.0) {
      from_pool = rng.NextDouble() < CoinAt(*this, view, table, det_cursor);
    } else {
      from_pool = SampledDuel(
          a_, b_, evidence_,
          NormalizedScore(view.det_score[det_cursor], view.det_score[0]), rng);
    }
    if (from_pool) {
      out->push_back(pool.Next(rng));
    } else {
      out->push_back(view.det[det_cursor++]);
    }
  }
  return count;
}

std::vector<uint32_t> ThompsonPromotionPolicy::MaterializeReference(
    const ShardView& global, Rng& rng) const {
  // Naive slot-by-slot realization over explicit remaining lists; the
  // independent reference the distribution-equivalence tests compare
  // ServePrefix against. Same law, different plumbing: every duel samples
  // both Betas (ServePrefix tosses the closed-form coin at a = 1), and the
  // pool is an explicit swap-pop vector instead of a lazy sampler.
  std::vector<uint32_t> pool(global.pool, global.pool + global.pool_size);
  std::vector<uint32_t> out;
  out.reserve(global.n());
  const double max_score =
      global.det_size > 0 && global.det_score != nullptr ? global.det_score[0]
                                                         : 0.0;
  size_t det_cursor = 0;
  while (out.size() < global.n()) {
    bool from_pool;
    const size_t det_remaining = global.det_size - det_cursor;
    if (out.size() < protect_ && det_remaining > 0) {
      from_pool = false;
    } else if (det_remaining == 0) {
      from_pool = true;
    } else if (pool.empty()) {
      from_pool = false;
    } else {
      assert(global.det_score != nullptr);
      from_pool = SampledDuel(
          a_, b_, evidence_,
          NormalizedScore(global.det_score[det_cursor], max_score), rng);
    }
    if (from_pool) {
      const size_t pick = static_cast<size_t>(rng.NextIndex(pool.size()));
      out.push_back(pool[pick]);
      pool[pick] = pool.back();
      pool.pop_back();
    } else {
      out.push_back(global.det[det_cursor++]);
    }
  }
  return out;
}

std::shared_ptr<const StochasticRankingPolicy> MakeThompsonPromotionPolicy(
    double a, double b, double evidence, size_t protect) {
  return std::make_shared<ThompsonPromotionPolicy>(a, b, evidence, protect);
}

}  // namespace randrank
