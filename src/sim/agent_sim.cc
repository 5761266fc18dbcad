#include "sim/agent_sim.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace randrank {

namespace {

/// Geometric draw: number of biased coin flips (success prob r) up to and
/// including the first success. Used to place a lone pool page.
size_t GeometricOneBased(Rng& rng, double r) {
  if (r >= 1.0) return 1;
  if (r <= 0.0) return std::numeric_limits<size_t>::max();
  double u;
  do {
    u = rng.NextDouble();
  } while (u == 0.0);
  return 1 + static_cast<size_t>(std::log(u) / std::log1p(-r));
}

/// Stochastic rounding: E[result] == x.
uint32_t RoundStochastic(double x, Rng& rng) {
  const double floor_x = std::floor(x);
  const auto base = static_cast<uint32_t>(floor_x);
  return base + (rng.NextBernoulli(x - floor_x) ? 1 : 0);
}

}  // namespace

AgentSimulator::AgentSimulator(const CommunityParams& params,
                               const RankPromotionConfig& config,
                               const SimOptions& options)
    : params_(params),
      policy_(MakePromotionPolicy(config)),
      opts_(options),
      rng_(options.seed),
      ranker_(policy_),
      rank_sampler_(params.n, params.rank_bias_exponent) {
  assert(params_.Valid());
  assert(opts_.surf_fraction >= 0.0 && opts_.surf_fraction <= 1.0);

  quality_ = params_.QualityValues();
  aware_monitored_.assign(params_.n, 0);
  aware_total_.assign(params_.n, 0);
  popularity_.assign(params_.n, 0.0);
  true_popularity_.assign(params_.n, 0.0);
  zero_flag_.assign(params_.n, 1);
  birth_day_.assign(params_.n, 0);
  score_ = popularity_;

  visits_per_day_ = params_.visits_per_day;
  theta_ = visits_per_day_ * rank_sampler_.theta();
  monitored_fraction_ =
      static_cast<double>(params_.m) / static_cast<double>(params_.u);
  batched_ = visits_per_day_ > static_cast<double>(opts_.batch_visit_threshold);

  mean_quality_ = 0.0;
  for (const double q : quality_) mean_quality_ += q;
  mean_quality_ /= static_cast<double>(params_.n);

  if (opts_.warmup_days == 0) {
    opts_.warmup_days =
        static_cast<size_t>(std::ceil(2.5 * params_.lifetime_days));
  }
  if (opts_.measure_days == 0) opts_.measure_days = 365;
  if (opts_.per_visit_lists) opts_.ghost_count = 0;  // see header

  ghosts_.assign(opts_.ghost_count, Ghost{});
  // Stagger probe births so age-indexed curves are sampled evenly.
  for (size_t g = 0; g < ghosts_.size(); ++g) {
    ghosts_[g].age = opts_.ghost_count
                         ? (g * opts_.ghost_max_age) / opts_.ghost_count / 4
                         : 0;
  }
  ghost_visit_sum_.assign(opts_.ghost_max_age + 1, 0.0);
  ghost_pop_sum_.assign(opts_.ghost_max_age + 1, 0.0);
  ghost_age_count_.assign(opts_.ghost_max_age + 1, 0.0);
  top_occupancy_.assign(101, 0.0);
}

void AgentSimulator::RefreshPageSignal(uint32_t page) {
  true_popularity_[page] =
      quality_[page] * static_cast<double>(aware_total_[page]) /
      static_cast<double>(params_.u);
  if (opts_.measured_ranking) {
    popularity_[page] =
        quality_[page] * static_cast<double>(aware_monitored_[page]) /
        static_cast<double>(params_.m);
    zero_flag_[page] = aware_monitored_[page] == 0 ? 1 : 0;
  } else {
    popularity_[page] = true_popularity_[page];
    zero_flag_[page] = aware_total_[page] == 0 ? 1 : 0;
  }
}

void AgentSimulator::ApplyChurn() {
  const double expected_deaths =
      params_.lambda() * static_cast<double>(params_.n);
  const uint64_t deaths = rng_.NextPoisson(expected_deaths);
  for (uint64_t d = 0; d < deaths; ++d) {
    const auto page = static_cast<uint32_t>(rng_.NextIndex(params_.n));
    aware_monitored_[page] = 0;
    aware_total_[page] = 0;
    birth_day_[page] = static_cast<int64_t>(day_);
    RefreshPageSignal(page);
  }
}

void AgentSimulator::VisitPage(uint32_t page) {
  // The visiting user is uniform over the population; monitored w.p. m/u.
  // Conversion happens when that user has not visited the page before.
  if (rng_.NextBernoulli(monitored_fraction_)) {
    const double aware = static_cast<double>(aware_monitored_[page]) /
                         static_cast<double>(params_.m);
    if (aware_monitored_[page] < params_.m &&
        rng_.NextBernoulli(1.0 - aware)) {
      ++aware_monitored_[page];
      ++aware_total_[page];
      RefreshPageSignal(page);
    }
  } else {
    const uint32_t unmonitored_pop =
        static_cast<uint32_t>(params_.u - params_.m);
    const uint32_t aware_unmon = aware_total_[page] - aware_monitored_[page];
    if (unmonitored_pop == 0) return;
    const double aware = static_cast<double>(aware_unmon) /
                         static_cast<double>(unmonitored_pop);
    if (aware_unmon < unmonitored_pop && rng_.NextBernoulli(1.0 - aware)) {
      ++aware_total_[page];
      RefreshPageSignal(page);
    }
  }
}

void AgentSimulator::VisitPageBatch(uint32_t page, double visits) {
  if (visits <= 0.0) return;
  // Expected new aware users among V uniform visitors: each of the (u - A)
  // unaware users is hit at least once w.p. 1 - (1 - 1/u)^V.
  const auto u = static_cast<double>(params_.u);
  const double unaware =
      u - static_cast<double>(aware_total_[page]);
  if (unaware <= 0.0) return;
  const double hit_prob = 1.0 - std::pow(1.0 - 1.0 / u, visits);
  const uint32_t converts = std::min(
      static_cast<uint32_t>(unaware),
      RoundStochastic(unaware * hit_prob, rng_));
  if (converts == 0) return;
  // Split converts between monitored/unmonitored proportionally to the
  // remaining unaware mass in each subpopulation.
  const double unaware_mon =
      static_cast<double>(params_.m - aware_monitored_[page]);
  uint32_t mon = 0;
  for (uint32_t c = 0; c < converts; ++c) {
    if (rng_.NextBernoulli(unaware_mon / unaware)) ++mon;
  }
  mon = std::min(mon, static_cast<uint32_t>(params_.m) - aware_monitored_[page]);
  aware_monitored_[page] += mon;
  aware_total_[page] += converts;
  RefreshPageSignal(page);
}

void AgentSimulator::AccumulateQpc(const std::vector<uint32_t>& list) {
  const double x = opts_.surf_fraction;
  double search_quality = 0.0;
  if (!list.empty()) {
    for (size_t i = 0; i < list.size(); ++i) {
      search_quality += rank_sampler_.Pmf(i + 1) * quality_[list[i]];
    }
  }
  double surf_quality = 0.0;
  if (x > 0.0) {
    double proportional = mean_quality_;
    if (popularity_sum_ > 0.0) {
      proportional = 0.0;
      for (size_t p = 0; p < params_.n; ++p) {
        proportional += true_popularity_[p] / popularity_sum_ * quality_[p];
      }
    }
    surf_quality =
        (1.0 - opts_.teleport) * proportional + opts_.teleport * mean_quality_;
  }
  qpc_num_ +=
      visits_per_day_ * ((1.0 - x) * search_quality + x * surf_quality);
  qpc_den_ += visits_per_day_;
}

void AgentSimulator::DistributeVisitsSampled(
    const std::vector<uint32_t>& list) {
  const double x = opts_.surf_fraction;
  auto whole = static_cast<size_t>(std::floor(visits_per_day_));
  if (rng_.NextBernoulli(visits_per_day_ - std::floor(visits_per_day_))) {
    ++whole;
  }

  // True-popularity prefix sums for the surfing component, built per day.
  std::vector<double> pop_prefix;
  if (x > 0.0) {
    pop_prefix.resize(params_.n);
    double acc = 0.0;
    for (size_t p = 0; p < params_.n; ++p) {
      acc += true_popularity_[p];
      pop_prefix[p] = acc;
    }
  }

  for (size_t visit = 0; visit < whole; ++visit) {
    uint32_t page;
    if (x > 0.0 && rng_.NextBernoulli(x)) {
      // Random surfing: teleport w.p. c, else popularity-proportional.
      if (popularity_sum_ <= 0.0 || rng_.NextBernoulli(opts_.teleport)) {
        page = static_cast<uint32_t>(rng_.NextIndex(params_.n));
      } else {
        const double u = rng_.NextDouble() * pop_prefix.back();
        const auto it =
            std::lower_bound(pop_prefix.begin(), pop_prefix.end(), u);
        page = static_cast<uint32_t>(it - pop_prefix.begin());
      }
    } else {
      const size_t rank = rank_sampler_.Sample(rng_);
      page = opts_.per_visit_lists
                 ? policy_->PageAtRank(ranker_.view(), rank, rng_)
                 : list[rank - 1];
      if (opts_.per_visit_lists) {
        // No materialized list: accumulate QPC from the sampled visit.
        qpc_num_ += quality_[page];
        qpc_den_ += 1.0;
      }
    }
    VisitPage(page);
  }
}

void AgentSimulator::DistributeVisitsBatched(
    const std::vector<uint32_t>& list) {
  const double x = opts_.surf_fraction;
  const double search_visits = visits_per_day_ * (1.0 - x);
  // Search visits: expected visits to rank i are Pmf(i) * search_visits;
  // apply them page by page. Beyond the rank where expectations drop below
  // a small epsilon the per-page effect is negligible but cheap to keep.
  for (size_t i = 0; i < list.size(); ++i) {
    VisitPageBatch(list[i], search_visits * rank_sampler_.Pmf(i + 1));
  }
  if (x > 0.0) {
    const double surf_visits = visits_per_day_ * x;
    const double teleport_each =
        surf_visits * opts_.teleport / static_cast<double>(params_.n);
    for (uint32_t p = 0; p < params_.n; ++p) {
      double visits = teleport_each;
      if (popularity_sum_ > 0.0) {
        visits += surf_visits * (1.0 - opts_.teleport) * true_popularity_[p] /
                  popularity_sum_;
      }
      VisitPageBatch(p, visits);
    }
  }
}

double AgentSimulator::GhostScore(const Ghost& ghost) const {
  const double pop = GhostRankingPopularity(ghost);
  switch (opts_.baseline) {
    case BaselineScoring::kNone:
      return pop;
    case BaselineScoring::kAgeWeighted:
      return pop + opts_.age_weighted.bonus *
                       std::exp(-std::log(2.0) /
                                opts_.age_weighted.half_life_days *
                                static_cast<double>(ghost.age));
    case BaselineScoring::kDerivative: {
      if (ghost.history.empty()) return pop;
      const double previous = ghost.history[ghost.history_next];
      const double slope =
          (pop - previous) / opts_.derivative.window_days;
      return pop + opts_.derivative.gamma * (slope > 0.0 ? slope : 0.0);
    }
  }
  return pop;
}

size_t AgentSimulator::GhostListPosition(const Ghost& ghost, Rng& rng) const {
  const size_t n = params_.n;
  const double ghost_pop = GhostScore(ghost);
  const bool ghost_zero =
      opts_.measured_ranking ? ghost.aware_monitored == 0
                             : (ghost.aware_monitored + ghost.aware_unmonitored) == 0;
  const bool in_pool = policy_->PoolMembership(ghost_zero, rng);
  if (in_pool) {
    if (pool_positions_.empty()) {
      // The ghost is the pool's only page: it lands `hop` slots below the
      // protected prefix. At r = 0 it never lands (hop is SIZE_MAX), which
      // the sum below would wrap.
      const size_t hop = GeometricOneBased(rng, policy_->config().r);
      if (hop >= n) return n;
      return std::min(n, std::min(policy_->ProtectedPrefix(),
                                  ranker_.deterministic_order().size()) +
                             hop);
    }
    const size_t slot = rng.NextIndex(pool_positions_.size());
    return std::min<size_t>(n, pool_positions_[slot] + 1);
  }
  // Deterministic branch: rank among Ld (ghost is youngest, so all ties sort
  // ahead of it), then map through today's realized slot positions.
  const auto& det = ranker_.deterministic_order();
  if (det.empty()) return 1;
  const auto it = std::partition_point(
      det.begin(), det.end(),
      [&](uint32_t p) { return score_[p] >= ghost_pop; });
  const auto dr = static_cast<size_t>(it - det.begin());
  if (dr >= det_positions_.size()) return n;
  return std::min<size_t>(n, det_positions_[dr] + 1);
}

double AgentSimulator::TrueAwareness(const Ghost& ghost) const {
  return static_cast<double>(ghost.aware_monitored +
                             ghost.aware_unmonitored) /
         static_cast<double>(params_.u);
}

double AgentSimulator::GhostRankingPopularity(const Ghost& ghost) const {
  if (opts_.measured_ranking) {
    return opts_.ghost_quality * static_cast<double>(ghost.aware_monitored) /
           static_cast<double>(params_.m);
  }
  return opts_.ghost_quality * TrueAwareness(ghost);
}

double AgentSimulator::GhostExpectedVisits(const Ghost& ghost,
                                           Rng& rng) const {
  const double x = opts_.surf_fraction;
  const size_t pos = GhostListPosition(ghost, rng);
  double expected = (1.0 - x) * theta_ *
                    std::pow(static_cast<double>(pos),
                             -params_.rank_bias_exponent);
  if (x > 0.0) {
    const double ghost_pop = opts_.ghost_quality * TrueAwareness(ghost);
    const double denom = popularity_sum_ + ghost_pop;
    const double proportional = denom > 0.0 ? ghost_pop / denom : 0.0;
    expected += x * visits_per_day_ *
                ((1.0 - opts_.teleport) * proportional +
                 opts_.teleport / static_cast<double>(params_.n));
  }
  return expected;
}

void AgentSimulator::UpdateGhosts(bool measuring) {
  const auto window = static_cast<size_t>(opts_.derivative.window_days);
  for (Ghost& ghost : ghosts_) {
    if (opts_.baseline == BaselineScoring::kDerivative) {
      if (ghost.history.size() != window) {
        ghost.history.assign(window, 0.0);
        ghost.history_next = 0;
      }
      // Overwrite the oldest entry with today's popularity after reading it
      // in GhostScore (called below via GhostExpectedVisits).
    }
    const double expected = GhostExpectedVisits(ghost, rng_);
    const uint64_t visits = rng_.NextPoisson(expected);
    const bool was_below = TrueAwareness(ghost) < opts_.tbp_threshold;
    for (uint64_t i = 0; i < visits; ++i) {
      if (rng_.NextBernoulli(monitored_fraction_)) {
        const double aware = static_cast<double>(ghost.aware_monitored) /
                             static_cast<double>(params_.m);
        if (ghost.aware_monitored < params_.m &&
            rng_.NextBernoulli(1.0 - aware)) {
          ++ghost.aware_monitored;
        }
      } else {
        const auto unmon_pop = static_cast<uint32_t>(params_.u - params_.m);
        if (unmon_pop == 0) continue;
        const double aware = static_cast<double>(ghost.aware_unmonitored) /
                             static_cast<double>(unmon_pop);
        if (ghost.aware_unmonitored < unmon_pop &&
            rng_.NextBernoulli(1.0 - aware)) {
          ++ghost.aware_unmonitored;
        }
      }
    }
    if (measuring && ghost.age < ghost_visit_sum_.size()) {
      ghost_visit_sum_[ghost.age] += static_cast<double>(visits);
      ghost_pop_sum_[ghost.age] +=
          opts_.ghost_quality * TrueAwareness(ghost);
      ghost_age_count_[ghost.age] += 1.0;
    }
    if (was_below && TrueAwareness(ghost) >= opts_.tbp_threshold &&
        measuring) {
      tbp_sum_ += static_cast<double>(ghost.age);
      ++tbp_count_;
    }
    if (opts_.baseline == BaselineScoring::kDerivative) {
      ghost.history[ghost.history_next] = GhostRankingPopularity(ghost);
      ghost.history_next = (ghost.history_next + 1) % ghost.history.size();
    }
    ++ghost.age;
    if (ghost.age > opts_.ghost_max_age) {
      if (measuring && TrueAwareness(ghost) < opts_.tbp_threshold) {
        ++tbp_censored_;
      }
      ghost = Ghost{};
    }
  }
}

void AgentSimulator::ComputeScores() {
  switch (opts_.baseline) {
    case BaselineScoring::kNone:
      score_ = popularity_;
      return;
    case BaselineScoring::kAgeWeighted:
      score_ = opts_.age_weighted.Score(popularity_, birth_day_,
                                        static_cast<int64_t>(day_));
      return;
    case BaselineScoring::kDerivative: {
      const auto window =
          static_cast<size_t>(opts_.derivative.window_days);
      if (pop_history_.size() < window + 1) {
        pop_history_.resize(window + 1);
      }
      // The slot about to be overwritten holds popularity `window` days ago
      // (or an empty vector during the first window).
      std::vector<double>& slot = pop_history_[history_next_];
      const std::vector<double>& previous =
          slot.size() == popularity_.size() ? slot : popularity_;
      score_ = opts_.derivative.Score(popularity_, previous);
      slot = popularity_;
      history_next_ = (history_next_ + 1) % pop_history_.size();
      return;
    }
  }
}

void AgentSimulator::StepDay(bool measuring) {
  ApplyChurn();

  popularity_sum_ = 0.0;
  for (const double p : true_popularity_) popularity_sum_ += p;

  ComputeScores();
  ranker_.Update(score_, zero_flag_, birth_day_, rng_);
  std::vector<uint32_t> list;
  if (!opts_.per_visit_lists) {
    list = policy_->MaterializeWithPositions(ranker_.view(), rng_,
                                             &det_positions_,
                                             &pool_positions_);
  }

  if (measuring && !opts_.per_visit_lists) AccumulateQpc(list);
  if (batched_ && !opts_.per_visit_lists) {
    DistributeVisitsBatched(list);
  } else {
    DistributeVisitsSampled(list);
  }
  if (opts_.ghost_count > 0) UpdateGhosts(measuring);

  if (measuring) {
    double zeros = 0.0;
    for (const uint8_t z : zero_flag_) zeros += z;
    zero_pages_sum_ += zeros;
    const double top_aware = static_cast<double>(aware_total_[0]) /
                             static_cast<double>(params_.u);
    const auto bin = static_cast<size_t>(
        std::llround(top_aware * (top_occupancy_.size() - 1)));
    top_occupancy_[bin] += 1.0;
    ++measured_days_;
  }
  ++day_;
}

SimResult AgentSimulator::Run() {
  for (size_t d = 0; d < opts_.warmup_days; ++d) StepDay(false);
  for (size_t d = 0; d < opts_.measure_days; ++d) StepDay(true);

  SimResult result;
  result.qpc = qpc_den_ > 0.0 ? qpc_num_ / qpc_den_ : 0.0;
  result.normalized_qpc = result.qpc / IdealQpc(params_);
  result.mean_tbp = tbp_count_ > 0
                        ? tbp_sum_ / static_cast<double>(tbp_count_)
                        : std::nan("");
  result.tbp_samples = tbp_count_;
  result.tbp_censored = tbp_censored_;
  result.mean_zero_awareness_pages =
      measured_days_ > 0
          ? zero_pages_sum_ / static_cast<double>(measured_days_)
          : 0.0;
  result.days_simulated = day_;

  if (opts_.ghost_count > 0) {
    result.ghost_visits_by_age.resize(ghost_visit_sum_.size(), 0.0);
    result.ghost_popularity_by_age.resize(ghost_pop_sum_.size(), 0.0);
    for (size_t age = 0; age < ghost_visit_sum_.size(); ++age) {
      if (ghost_age_count_[age] > 0.0) {
        result.ghost_visits_by_age[age] =
            ghost_visit_sum_[age] / ghost_age_count_[age];
        result.ghost_popularity_by_age[age] =
            ghost_pop_sum_[age] / ghost_age_count_[age];
      }
    }
  }
  if (measured_days_ > 0) {
    result.top_page_awareness_occupancy = top_occupancy_;
    for (double& o : result.top_page_awareness_occupancy) {
      o /= static_cast<double>(measured_days_);
    }
  }
  return result;
}

}  // namespace randrank
