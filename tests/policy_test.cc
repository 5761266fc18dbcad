#include "core/policy/stochastic_ranking_policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/policy/epsilon_tail_policy.h"
#include "core/policy/plackett_luce_policy.h"
#include "core/policy/policy_factory.h"
#include "core/policy/promotion_policy.h"
#include "core/policy/thompson_promotion_policy.h"
#include "core/rank_merge.h"
#include "core/ranking_policy.h"
#include "harness/presets.h"
#include "serve/query_workload.h"
#include "serve/sharded_rank_server.h"
#include "util/rng.h"
#include "util/stats.h"

#include "serve_fixture.h"

namespace randrank {
namespace {

using testutil::Fixture;

// Which families actually produce opaque per-epoch state (Plackett-Luce's
// alias table, and ts-promo's coin table at a = 1; for the other families
// the epoch-invariant state is the merged view itself, so the hook returns
// null and the serve layer passes nothing extra).
TEST(PolicyEpochStateTest, BuildEpochStateProducesStateWhereExpected) {
  const size_t n = 60;
  Fixture fx(n, 0);
  const auto build = [&](std::shared_ptr<const StochasticRankingPolicy> p) {
    Ranker ranker(p);
    Rng rng(17);
    ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
    return p->BuildEpochState(ranker.view());
  };
  EXPECT_EQ(build(MakePromotionPolicy(RankPromotionConfig::None())), nullptr);
  EXPECT_NE(build(MakePlackettLucePolicy(0.2)), nullptr);
  // Epsilon-tail's protected head is a prefix of the merged order: nothing
  // extra to build. ts-promo tabulates its duel coin only where it has a
  // closed form (a = 1).
  EXPECT_EQ(build(MakeEpsilonTailPolicy(0.3, 4)), nullptr);
  EXPECT_NE(build(MakeThompsonPromotionPolicy(1.0, 3.0, 20.0, 1)), nullptr);
  EXPECT_EQ(build(MakeThompsonPromotionPolicy(1.5, 1.5, 4.0, 1)), nullptr);
}

TEST(PolicyFactoryTest, LabelsRoundTripThroughMakePolicyFromLabel) {
  for (const auto& policy : StandardPolicyFamilies()) {
    const auto parsed = MakePolicyFromLabel(policy->Label());
    ASSERT_NE(parsed, nullptr) << policy->Label();
    EXPECT_EQ(parsed->Label(), policy->Label());
  }
  // Parameters survive the round trip, not just the family name.
  const auto pl = MakePolicyFromLabel("plackett-luce(T=0.33)");
  ASSERT_NE(pl, nullptr);
  EXPECT_EQ(pl->Label(), "plackett-luce(T=0.33)");
  const auto eps = MakePolicyFromLabel("eps-tail(eps=0.25,k=7)");
  ASSERT_NE(eps, nullptr);
  EXPECT_EQ(eps->Label(), "eps-tail(eps=0.25,k=7)");
  const auto ts = MakePolicyFromLabel("ts-promo(a=1.50,b=2.00,c=12.0,k=2)");
  ASSERT_NE(ts, nullptr);
  EXPECT_EQ(ts->Label(), "ts-promo(a=1.50,b=2.00,c=12.0,k=2)");

  EXPECT_EQ(MakePolicyFromLabel("thompson(alpha=1)"), nullptr);
  EXPECT_EQ(MakePolicyFromLabel("plackett-luce(T=-1.00)"), nullptr);
  EXPECT_EQ(MakePolicyFromLabel("plackett-luce(T=0.05)x"), nullptr);
  EXPECT_EQ(MakePolicyFromLabel("plackett-luce(T=0.05"), nullptr);
  EXPECT_EQ(MakePolicyFromLabel("eps-tail(eps=0.10,k=5)junk"), nullptr);
  EXPECT_EQ(MakePolicyFromLabel("eps-tail(eps=2.00,k=5)"), nullptr);
  EXPECT_EQ(MakePolicyFromLabel("ts-promo(a=0.00,b=3.00,c=20.0,k=1)"),
            nullptr);
  EXPECT_EQ(MakePolicyFromLabel("ts-promo(a=1.00,b=3.00,c=20.0,k=1)x"),
            nullptr);
  EXPECT_EQ(MakePolicyFromLabel(""), nullptr);
}

// Rejections carry a diagnostic that echoes the offending label; unknown
// families additionally list the known family vocabulary.
TEST(PolicyFactoryTest, RejectionsEchoTheLabelAndKnownFamilies) {
  std::string error;
  EXPECT_EQ(MakePolicyFromLabel("thompson(alpha=1)", &error), nullptr);
  EXPECT_NE(error.find("thompson(alpha=1)"), std::string::npos) << error;
  for (const std::string& prefix : KnownPolicyFamilyPrefixes()) {
    EXPECT_NE(error.find(prefix), std::string::npos)
        << "known-family list missing \"" << prefix << "\": " << error;
  }

  // Known family, out-of-range parameter: a specific message, not the
  // unknown-family one.
  error.clear();
  EXPECT_EQ(MakePolicyFromLabel("plackett-luce(T=-1.00)", &error), nullptr);
  EXPECT_NE(error.find("plackett-luce(T=-1.00)"), std::string::npos) << error;
  EXPECT_NE(error.find("temperature"), std::string::npos) << error;
  error.clear();
  EXPECT_EQ(MakePolicyFromLabel("eps-tail(eps=2.00,k=5)", &error), nullptr);
  EXPECT_NE(error.find("eps-tail(eps=2.00,k=5)"), std::string::npos) << error;
  EXPECT_NE(error.find("epsilon"), std::string::npos) << error;
  error.clear();
  EXPECT_EQ(MakePolicyFromLabel("ts-promo(a=0.00,b=3.00,c=20.0,k=1)", &error),
            nullptr);
  EXPECT_NE(error.find("ts-promo(a=0.00,b=3.00,c=20.0,k=1)"),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("a > 0"), std::string::npos) << error;
  // Promotion-shaped labels with bad parameters get the promotion-specific
  // message, not the contradictory "unknown family" one.
  error.clear();
  EXPECT_EQ(MakePolicyFromLabel("uniform(r=2.00,k=2)", &error), nullptr);
  EXPECT_NE(error.find("uniform(r=2.00,k=2)"), std::string::npos) << error;
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
  EXPECT_EQ(error.find("unknown"), std::string::npos) << error;

  // A successful parse leaves the error untouched.
  error = "sentinel";
  EXPECT_NE(MakePolicyFromLabel("plackett-luce(T=0.25)", &error), nullptr);
  EXPECT_EQ(error, "sentinel");
}

// Family slug of a label or of a KnownPolicyFamilyPrefixes entry: the text
// up to the parameter list ("selective(r=0.10,k=2)" -> "selective").
std::string FamilySlug(const std::string& label) {
  return label.substr(0, label.find('('));
}

// `label` with the value of its parameter `key` — or of its first parameter
// when `key` is empty — replaced by `value`; empty when the label has no
// such parameter. ("eps-tail(eps=0.25,k=7)", "k", "-1") ->
// "eps-tail(eps=0.25,k=-1)".
std::string WithParam(const std::string& label, const std::string& key,
                      const std::string& value) {
  const size_t open = label.find('(');
  if (open == std::string::npos) return "";
  const size_t name =
      key.empty() ? open + 1 : label.find("," + key + "=", open);
  if (name == std::string::npos) return "";
  const size_t begin = label.find('=', name) + 1;
  const size_t end = label.find_first_of(",)", begin);
  return label.substr(0, begin) + value + label.substr(end);
}

// The label vocabulary, swept generically instead of per-family statics:
// every family MakePolicyFromLabel knows (KnownPolicyFamilyPrefixes) must
// have representative labels here that (a) round-trip exactly and (b)
// reject a standard battery of malformations derived from the label itself.
// A new family added to the factory without representatives in the standard
// sets fails the coverage assertion — joining the sweep is the admission
// ticket.
TEST(PolicyFactoryTest, EveryKnownFamilyRoundTripsAndRejectsMalformedLabels) {
  // Representatives: one hand-picked label per shipped family (including
  // the parameterless "none") plus everything the standard policy sets
  // produce, deduplicated.
  std::set<std::string> labels = {
      "none",
      "uniform(r=0.30,k=3)",
      "selective(r=0.10,k=2)",
      "plackett-luce(T=0.33)",
      "eps-tail(eps=0.25,k=7)",
      "ts-promo(a=1.50,b=2.00,c=12.0,k=2)",
      // Parameters that two decimals (one for c) do not hold print at the
      // shortest precision that parses back to them.
      "plackett-luce(T=0.001)",
      "uniform(r=0.004,k=1)",
      "selective(r=0.125,k=2)",
      "ts-promo(a=1.00,b=3.00,c=12.25,k=1)",
  };
  for (const auto& policy : StandardPolicyFamilies()) {
    labels.insert(policy->Label());
  }
  for (const auto& policy : PolicyTuningGrid()) {
    labels.insert(policy->Label());
  }

  // Coverage: every known family prefix has at least one representative.
  std::set<std::string> covered;
  for (const std::string& label : labels) covered.insert(FamilySlug(label));
  for (const std::string& prefix : KnownPolicyFamilyPrefixes()) {
    EXPECT_TRUE(covered.count(FamilySlug(prefix)))
        << "family \"" << prefix
        << "\" has no representative label in the round-trip sweep";
  }

  for (const std::string& label : labels) {
    // Round trip: parse succeeds and reproduces the label byte for byte.
    std::string error;
    const auto parsed = MakePolicyFromLabel(label, &error);
    ASSERT_NE(parsed, nullptr) << label << ": " << error;
    EXPECT_EQ(parsed->Label(), label);
    EXPECT_TRUE(parsed->Valid()) << label;

    // Malformation battery, derived from the label so every family gets the
    // same treatment: trailing garbage, truncation, a bare parameter list, a
    // negative integer k (which strtoull wraps to SIZE_MAX), and a NaN,
    // infinite or overflowing first parameter must all be rejected (strict
    // parsing — a mangled label must never silently map to a policy whose
    // Label() differs from the input).
    std::vector<std::string> malformed = {
        label + "x", label + " ", label.substr(0, label.size() - 1),
        FamilySlug(label) + "(", "x" + label};
    for (const std::string& bad :
         {WithParam(label, "k", "-1"), WithParam(label, "", "nan"),
          WithParam(label, "", "inf"), WithParam(label, "", "1e400")}) {
      if (!bad.empty()) malformed.push_back(bad);
    }
    for (const std::string& bad : malformed) {
      EXPECT_EQ(MakePolicyFromLabel(bad), nullptr)
          << "malformed \"" << bad << "\" (from \"" << label
          << "\") was accepted";
    }
  }
}

TEST(PolicyFactoryTest, StandardFamiliesAreValidAndDistinct) {
  const auto families = StandardPolicyFamilies();
  ASSERT_EQ(families.size(), 4u);
  std::set<std::string> labels;
  for (const auto& policy : families) {
    EXPECT_TRUE(policy->Valid()) << policy->Label();
    labels.insert(policy->Label());
  }
  EXPECT_EQ(labels.size(), families.size());
}

// FNV-1a folds for the pinned-digest tests below.
void Fold(uint64_t* h, uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    *h ^= (value >> (8 * byte)) & 0xff;
    *h *= 0x100000001b3ULL;
  }
}

void FoldAll(uint64_t* h, const std::vector<uint32_t>& list) {
  Fold(h, list.size());
  for (const uint32_t page : list) Fold(h, page);
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

// Seeded streams pinned across commits. Per promotion config: two Updates,
// each followed by 50 rounds of every realization the Ranker and the
// PromotionPolicy offer over its view (full list, prefix, lazy rank, list
// with positions), folded into one FNV-1a digest. A change to any seeded
// stream changes a digest; update a constant only in a change that means to
// alter that stream.
TEST(PromotionPolicyTest, SeededStreamsMatchPinnedDigests) {
  const std::pair<RankPromotionConfig, uint64_t> cases[] = {
      {RankPromotionConfig::None(), 0x69d1059b17b48aa5ULL},
      {RankPromotionConfig::Uniform(0.3, 3), 0xe3c93919807115beULL},
      {RankPromotionConfig::Selective(0.1, 2), 0x9d7f1a4c3eeba049ULL},
      {RankPromotionConfig::FixedPosition(21), 0x1ba5fd24045605a5ULL},
  };
  for (const auto& [config, expected] : cases) {
    const auto policy = MakePromotionPolicy(config);
    Ranker ranker(policy);
    Fixture fx(200, 40);
    Rng rng(11);
    uint64_t h = kFnvOffset;
    for (int update = 0; update < 2; ++update) {
      ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
      for (int round = 0; round < 50; ++round) {
        FoldAll(&h, ranker.MaterializeList(rng));
        FoldAll(&h, ranker.TopM(17, rng));
        Fold(&h, policy->PageAtRank(ranker.view(), 9, rng));
        std::vector<uint32_t> det_pos;
        std::vector<uint32_t> pool_pos;
        FoldAll(&h, policy->MaterializeWithPositions(ranker.view(), rng,
                                                     &det_pos, &pool_pos));
        FoldAll(&h, det_pos);
        FoldAll(&h, pool_pos);
      }
    }
    EXPECT_EQ(h, expected) << config.Label() << ": digest 0x" << std::hex
                           << h;
  }
}

// Seeded served lists of the non-promotion families, pinned the same way:
// per case, 200 ServePrefix calls over one Ranker's view at each listed m,
// folded into one FNV-1a digest. The cases cover every reader of
// PolicyScratch::emitted (Plackett-Luce's alias rejection, its null-state
// Gumbel path and its mid-query fallback at T = 0.01; eps-tail's uniform
// rejection with and without a protected head) and ts-promo's duel (the
// epoch-state coin table, and past it or without it the same coin computed
// per query). One scratch serves every call of a case, so a set that leaks
// entries between queries changes the digest.
TEST(StochasticPolicyTest, SeededServedListsMatchPinnedDigests) {
  struct Case {
    const char* name;
    std::shared_ptr<const StochasticRankingPolicy> policy;
    size_t n;
    size_t zeros;
    bool null_state;
    std::vector<size_t> ms;
    uint64_t expected;
  };
  const Case cases[] = {
      {"plackett-luce alias", MakePlackettLucePolicy(0.15), 120, 6, false,
       {1, 10, 40}, 0x8a313c6e94ef113aULL},
      {"plackett-luce null state", MakePlackettLucePolicy(0.15), 120, 6, true,
       {1, 10, 40}, 0x0c1ee9bc9482c685ULL},
      {"plackett-luce T=0.01 fallback", MakePlackettLucePolicy(0.01), 30, 0,
       false, {12, 30}, 0x2dd942fdcec388cfULL},
      {"eps-tail k=0", MakeEpsilonTailPolicy(0.35, 0), 90, 0, false,
       {10, 90}, 0x43d6685af316c3eaULL},
      {"eps-tail k=3", MakeEpsilonTailPolicy(0.35, 3), 90, 0, false,
       {10, 90}, 0x554050e7c04bece6ULL},
      {"ts-promo", MakeThompsonPromotionPolicy(1.0, 3.0, 20.0, 1), 1500, 300,
       false, {10, 1500}, 0x2d296d12176aa589ULL},
      {"ts-promo null state", MakeThompsonPromotionPolicy(1.0, 3.0, 20.0, 1),
       1500, 300, true, {10, 1500}, 0x2d296d12176aa589ULL},
  };
  for (const Case& c : cases) {
    Fixture fx(c.n, c.zeros);
    Ranker ranker(c.policy);
    Rng rng(13);
    ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
    const ShardView view = ranker.view();
    const std::shared_ptr<const PolicyEpochState> state =
        c.null_state ? nullptr : c.policy->BuildEpochState(view);
    PolicyScratch scratch;
    std::vector<uint32_t> out;
    uint64_t h = kFnvOffset;
    for (int round = 0; round < 200; ++round) {
      for (const size_t m : c.ms) {
        out.clear();
        c.policy->ServePrefix(&view, 1, state.get(), scratch, m, rng, &out);
        FoldAll(&h, out);
      }
    }
    EXPECT_EQ(h, c.expected) << c.name << ": digest 0x" << std::hex << h;
  }
}

TEST(EpsilonTailPolicyTest, ZeroEpsilonReproducesTheDeterministicOrder) {
  const size_t n = 120;
  Fixture fx(n, 0);
  Ranker ranker(MakeEpsilonTailPolicy(0.0, 5));
  Rng rng(3);
  ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
  EXPECT_TRUE(ranker.pool().empty());
  EXPECT_EQ(ranker.MaterializeList(rng), ranker.deterministic_order());
  EXPECT_EQ(ranker.TopM(n, rng), ranker.deterministic_order());
}

TEST(EpsilonTailPolicyTest, ProtectedPrefixIsStableAndListIsPermutation) {
  const size_t n = 150;
  const size_t protect = 7;
  Fixture fx(n, 0);
  Ranker ranker(MakeEpsilonTailPolicy(0.8, protect));
  Rng rng(5);
  ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
  const std::vector<uint32_t>& det = ranker.deterministic_order();
  for (int trial = 0; trial < 30; ++trial) {
    const std::vector<uint32_t> list = ranker.TopM(n, rng);
    ASSERT_EQ(list.size(), n);
    for (size_t j = 0; j < protect; ++j) {
      ASSERT_EQ(list[j], det[j]) << "trial " << trial << " slot " << j;
    }
    const std::set<uint32_t> seen(list.begin(), list.end());
    EXPECT_EQ(seen.size(), n);
  }
}

TEST(PlackettLucePolicyTest, TemperatureInterpolatesDeterminismToUniform) {
  const size_t n = 30;
  const int kTrials = 4000;
  // Evenly spaced scores: the rank-1 gap is 0.4/n, so at T = 0.002 the best
  // page's weight beats the runner-up by e^6.7 (near-deterministic) while
  // T = 50 flattens the whole ladder to within 0.4/50 (near-uniform).
  std::vector<double> popularity(n);
  std::vector<uint8_t> zero(n, 0);
  std::vector<int64_t> birth(n, 0);
  for (size_t p = 0; p < n; ++p) {
    popularity[p] = 0.4 * static_cast<double>(n - p) / static_cast<double>(n);
  }

  std::map<double, double> top_rate;
  for (const double t : {0.002, 50.0}) {
    Ranker ranker(MakePlackettLucePolicy(t));
    Rng rng(7);
    ranker.Update(popularity, zero, birth, rng);
    const uint32_t best = ranker.deterministic_order().front();
    int wins = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      wins += ranker.TopM(1, rng).front() == best;
    }
    top_rate[t] = static_cast<double>(wins) / kTrials;
  }
  EXPECT_GT(top_rate[0.002], 0.97);
  EXPECT_NEAR(top_rate[50.0], 1.0 / static_cast<double>(n), 0.03);
}

TEST(PlackettLucePolicyTest, FullRealizationIsAPermutation) {
  const size_t n = 80;
  Fixture fx(n, 10);
  Ranker ranker(MakePlackettLucePolicy(0.2));
  Rng rng(9);
  ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
  EXPECT_TRUE(ranker.pool().empty());  // weighted families keep no pool
  const std::vector<uint32_t> list = ranker.MaterializeList(rng);
  const std::set<uint32_t> seen(list.begin(), list.end());
  EXPECT_EQ(seen.size(), n);
}

// A tiny temperature over scores spanning 1.0 underflows the tail's weights
// exp((s - s_max)/T) to 0 (here the last 5 of 20 pages at T = 0.001). Both
// realizations must still serve every page: the reference weighs the pages
// left against the largest score left once their mass reaches 0, and
// ServePrefix reaches them through its Gumbel fallback.
TEST(PlackettLucePolicyTest, UnderflowedWeightsStillRealizeAPermutation) {
  const size_t n = 20;
  std::vector<uint32_t> det(n);
  std::vector<double> score(n);
  for (size_t j = 0; j < n; ++j) {
    det[j] = static_cast<uint32_t>(100 + 3 * j);  // ids unlike positions
    score[j] = 1.0 - static_cast<double>(j) / static_cast<double>(n - 1);
  }
  const ShardView view{det.data(), score.data(), n, nullptr, 0};
  const auto policy = MakePolicyFromLabel("plackett-luce(T=0.001)");
  ASSERT_NE(policy, nullptr);
  const auto state = policy->BuildEpochState(view);
  PolicyScratch scratch;
  Rng rng(21);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<uint32_t> reference = policy->MaterializeReference(view, rng);
    std::sort(reference.begin(), reference.end());
    EXPECT_EQ(reference, det) << "reference, trial " << trial;

    std::vector<uint32_t> served;
    ASSERT_EQ(policy->ServePrefix(&view, 1, state.get(), scratch, n, rng,
                                  &served),
              n);
    std::sort(served.begin(), served.end());
    EXPECT_EQ(served, det) << "served, trial " << trial;
  }
}

// log of the integral over (0, 1) of x^(p-1) (1-x)^(r-1), p, r >= 1, by
// tanh-sinh quadrature in long double: x = (1 + tanh u) / 2 with
// u = (pi/2) sinh t, summed at step 1/64 over |t| <= 5. Both endpoint
// behaviours (x^0.3, (1-x)^0.5) converge doubly exponentially, so the sum
// is exact far below 1e-12. Logs throughout keep the tails finite.
long double LogBetaIntegral(long double p, long double r) {
  const long double kPi = 3.14159265358979323846264338327950288L;
  const long double h = 1.0L / 64.0L;
  const auto log_cosh = [](long double v) {
    const long double a = std::fabs(v);
    return a + std::log1p(std::exp(-2.0L * a)) - std::log(2.0L);
  };
  long double max_term = -INFINITY;
  std::vector<long double> terms;
  for (int i = -320; i <= 320; ++i) {
    const long double t = h * i;
    const long double u = kPi / 2.0L * std::sinh(t);
    const long double log_x = -std::log1p(std::exp(-2.0L * u));
    const long double log_1mx = -std::log1p(std::exp(2.0L * u));
    const long double log_weight =
        std::log(kPi / 4.0L) + log_cosh(t) - 2.0L * log_cosh(u);
    terms.push_back(log_weight + (p - 1.0L) * log_x + (r - 1.0L) * log_1mx);
    max_term = std::max(max_term, terms.back());
  }
  long double sum = 0.0L;
  for (const long double term : terms) sum += std::exp(term - max_term);
  return max_term + std::log(sum * h);
}

// The closed-form duel coin against an independent quadrature of its
// definition: q(s) = E[(1 - theta_det)^b] over theta_det ~ Beta(alpha,
// beta), the ratio of two Beta integrals.
TEST(ThompsonPromotionPolicyTest, CoinMatchesQuadrature) {
  for (const double b : {0.5, 3.0}) {
    for (const double c : {0.0, 6.0, 20.0}) {
      const ThompsonPromotionPolicy policy(1.0, b, c, 1);
      for (const double s : {0.0, 0.05, 0.3, 0.9, 1.0}) {
        const long double alpha = 1.0L + c * s;
        const long double beta = 1.0L + c * (1.0L - s);
        const double expected = static_cast<double>(
            std::exp(LogBetaIntegral(alpha, beta + b) -
                     LogBetaIntegral(alpha, beta)));
        EXPECT_NEAR(policy.PoolWinProbability(s), expected, 1e-9)
            << "b=" << b << " c=" << c << " s=" << s;
      }
    }
  }
  // The evidence-free head is a uniform draw: q = 1 / (1 + b).
  EXPECT_NEAR(ThompsonPromotionPolicy(1.0, 3.0, 0.0, 1).PoolWinProbability(0.4),
              0.25, 1e-12);
}

// An infinite parameter makes the duel coin NaN, so the pool never wins.
TEST(ThompsonPromotionPolicyTest, InfiniteEvidenceIsInvalid) {
  EXPECT_FALSE(MakeThompsonPromotionPolicy(1.0, 3.0, INFINITY, 1)->Valid());
}

// The coin table is a cache, not a different law: the table path, and the
// null-state path that computes every coin per query, serve bit-identical
// lists from the same seed. Full lists reach past the table's last
// position, so the table path also computes coins per query.
TEST(ThompsonPromotionPolicyTest, TableAndNullStateServeIdenticalLists) {
  const size_t n = 1500;
  Fixture fx(n, 300);
  const auto policy = MakeThompsonPromotionPolicy(1.0, 3.0, 20.0, 1);
  Ranker ranker(policy);
  Rng build_rng(3);
  ranker.Update(fx.popularity, fx.zero, fx.birth, build_rng);
  const ShardView view = ranker.view();
  const auto state = policy->BuildEpochState(view);
  ASSERT_NE(state, nullptr);
  const std::set<uint32_t> pool(ranker.pool().begin(), ranker.pool().end());

  const size_t m = n;
  PolicyScratch scratch;
  size_t deepest_det = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    std::vector<uint32_t> with_table;
    std::vector<uint32_t> without;
    Rng a(seed);
    Rng b(seed);
    ASSERT_EQ(policy->ServePrefix(&view, 1, state.get(), scratch, m, a,
                                  &with_table),
              m);
    ASSERT_EQ(policy->ServePrefix(&view, 1, nullptr, scratch, m, b, &without),
              m);
    ASSERT_EQ(with_table, without) << "seed " << seed;
    size_t det_served = 0;
    for (const uint32_t page : with_table) det_served += pool.count(page) == 0;
    deepest_det = std::max(deepest_det, det_served);
  }
  EXPECT_GT(deepest_det, ThompsonPromotionPolicy::kCoinTablePositions);
}

// Serving threads compute coins concurrently past the table (and with no
// table at all); each thread's lists equal a serial replay of its seed. The
// CI TSan job runs this case: the coin's lgamma must not share state.
TEST(ThompsonPromotionPolicyTest, ConcurrentServingComputesCoinsPerQuery) {
  const size_t n = 1500;
  Fixture fx(n, 300);
  const auto policy = MakeThompsonPromotionPolicy(1.0, 3.0, 20.0, 1);
  Ranker ranker(policy);
  Rng build_rng(3);
  ranker.Update(fx.popularity, fx.zero, fx.birth, build_rng);
  const ShardView view = ranker.view();
  const auto state = policy->BuildEpochState(view);

  const auto serve = [&](uint64_t seed, const PolicyEpochState* epoch_state) {
    PolicyScratch scratch;
    Rng rng(seed);
    uint64_t h = kFnvOffset;
    std::vector<uint32_t> out;
    for (int q = 0; q < 40; ++q) {
      out.clear();
      policy->ServePrefix(&view, 1, epoch_state, scratch, n, rng, &out);
      FoldAll(&h, out);
    }
    return h;
  };
  const size_t kThreads = 4;
  std::vector<uint64_t> digests(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      digests[t] = serve(100 + t, t % 2 == 0 ? nullptr : state.get());
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(digests[t], serve(100 + t, nullptr)) << "thread " << t;
  }
}

// --- Satellite: chi-squared serve-vs-materialize equivalence -------------

/// Serves `trials` top-m queries through a sharded server and accumulates
/// the categorical statistic `stat(list)`.
template <typename Stat>
std::vector<double> ServeCounts(
    std::shared_ptr<const StochasticRankingPolicy> policy, const Fixture& fx,
    size_t n, size_t shards, size_t m, int trials, size_t cells,
    uint64_t seed, const Stat& stat) {
  ServeOptions opts;
  opts.shards = shards;
  opts.seed = seed;
  ShardedRankServer server(std::move(policy), n, opts);
  server.Update(fx.popularity, fx.zero, fx.birth);
  auto ctx = server.CreateContext();
  std::vector<double> counts(cells, 0.0);
  std::vector<uint32_t> out;
  for (int t = 0; t < trials; ++t) {
    EXPECT_EQ(server.ServeTopM(ctx, m, &out), m);
    counts[stat(out)] += 1.0;
  }
  return counts;
}

/// Materializes `trials` full reference lists through the Ranker (which
/// routes non-promotion families to MaterializeReference) and accumulates
/// the same statistic over the top-m prefix.
template <typename Stat>
std::vector<double> MaterializeCounts(
    std::shared_ptr<const StochasticRankingPolicy> policy, const Fixture& fx,
    size_t m, int trials, size_t cells, uint64_t seed, const Stat& stat) {
  Ranker ranker(std::move(policy));
  Rng rng(seed);
  ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
  std::vector<double> counts(cells, 0.0);
  std::vector<uint32_t> prefix;
  for (int t = 0; t < trials; ++t) {
    const std::vector<uint32_t> list = ranker.MaterializeList(rng);
    prefix.assign(list.begin(), list.begin() + static_cast<ptrdiff_t>(m));
    counts[stat(prefix)] += 1.0;
  }
  return counts;
}

/// Calls ServePrefix directly on a Ranker's view with a null epoch state —
/// a case no server reaches, since every epoch builds its state — and
/// accumulates the statistic over `trials` top-m prefixes.
template <typename Stat>
std::vector<double> NullStateCounts(
    std::shared_ptr<const StochasticRankingPolicy> policy, const Fixture& fx,
    size_t m, int trials, size_t cells, uint64_t seed, const Stat& stat) {
  Ranker ranker(policy);
  Rng rng(seed);
  ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
  const ShardView view = ranker.view();
  PolicyScratch scratch;
  std::vector<double> counts(cells, 0.0);
  std::vector<uint32_t> out;
  for (int t = 0; t < trials; ++t) {
    out.clear();
    EXPECT_EQ(policy->ServePrefix(&view, 1, nullptr, scratch, m, rng, &out),
              m);
    counts[stat(out)] += 1.0;
  }
  return counts;
}

void ExpectChiSquaredAgreement(std::vector<double> a, std::vector<double> b,
                               const char* what) {
  MergeSparseCells(&a, &b, 32.0);
  size_t df = 0;
  const double chi2 = TwoSampleChiSquared(a, b, &df);
  ASSERT_GT(df, 0u) << what;
  EXPECT_LE(chi2, ChiSquaredCritical(df, 0.001))
      << what << ": serve distribution drifted from materialize (df=" << df
      << ")";
}

// The acceptance property for the epsilon-tail family: the served top-m
// realizes exactly the law of the naive materialized reference, with a
// protected head and without one (k = 0: every slot may explore).
// Statistic: how many of the deterministic top-m pages appear in the served
// top-m (a categorical in 0..m).
TEST(PolicyEquivalenceTest, EpsilonTailServeMatchesMaterializeChiSquared) {
  const size_t n = 90;
  const size_t m = 10;
  const int kTrials = 20000;
  Fixture fx(n, 0);
  for (const size_t protect : {3u, 0u}) {
    SCOPED_TRACE("k=" + std::to_string(protect));
    const auto policy = MakeEpsilonTailPolicy(0.35, protect);

    Ranker ranker(policy);
    Rng rng(2);
    ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
    const std::set<uint32_t> det_top(ranker.deterministic_order().begin(),
                                     ranker.deterministic_order().begin() + m);
    const auto stat = [&](const std::vector<uint32_t>& prefix) {
      size_t hits = 0;
      for (const uint32_t page : prefix) hits += det_top.count(page);
      return hits;
    };

    const std::vector<double> reference =
        MaterializeCounts(policy, fx, m, kTrials, m + 1, 101, stat);
    const std::vector<double> served =
        ServeCounts(policy, fx, n, 4, m, kTrials, m + 1, 102, stat);
    ExpectChiSquaredAgreement(served, reference, "eps-tail");
  }
}

// Same acceptance property for Plackett-Luce, on both draw paths: the
// server serves through the per-epoch alias table (rejection against the
// served set), and ServePrefix with a null epoch state runs the Gumbel-max
// fallback from slot 0 — both must realize exactly the sequential-softmax
// reference law. Statistic: the identity of the page served at rank 1
// (categorical over all n pages; sparse cells are merged before the test).
TEST(PolicyEquivalenceTest, PlackettLuceServeMatchesMaterializeChiSquared) {
  const size_t n = 40;
  const size_t m = 5;
  const int kTrials = 20000;
  Fixture fx(n, 6);
  const auto policy = MakePlackettLucePolicy(0.15);

  const auto stat = [](const std::vector<uint32_t>& prefix) {
    return static_cast<size_t>(prefix.front());
  };
  const std::vector<double> reference =
      MaterializeCounts(policy, fx, m, kTrials, n, 201, stat);
  ExpectChiSquaredAgreement(
      ServeCounts(policy, fx, n, 3, m, kTrials, n, 202, stat), reference,
      "plackett-luce rank 1 (alias)");
  ExpectChiSquaredAgreement(
      NullStateCounts(policy, fx, m, kTrials, n, 203, stat), reference,
      "plackett-luce rank 1 (null state)");
}

// Cross-check at a deeper rank so the without-replacement coupling is
// exercised (the alias path's rejection against already-served pages, the
// Gumbel path's key ordering), not just the first draw.
TEST(PolicyEquivalenceTest, PlackettLuceRankMarginalsMatchAtDepth) {
  const size_t n = 40;
  const size_t m = 8;
  const int kTrials = 20000;
  Fixture fx(n, 6);
  const auto policy = MakePlackettLucePolicy(0.15);

  const auto stat = [](const std::vector<uint32_t>& prefix) {
    return static_cast<size_t>(prefix.back());  // page at rank m
  };
  const std::vector<double> reference =
      MaterializeCounts(policy, fx, m, kTrials, n, 301, stat);
  ExpectChiSquaredAgreement(
      ServeCounts(policy, fx, n, 3, m, kTrials, n, 302, stat), reference,
      "plackett-luce rank m (alias)");
  ExpectChiSquaredAgreement(
      NullStateCounts(policy, fx, m, kTrials, n, 303, stat), reference,
      "plackett-luce rank m (null state)");
}

// A temperature small enough that the softmax mass concentrates on the top
// pages forces the alias path's rejection cap to trip mid-query (the served
// prefix absorbs nearly all the mass), exercising the Gumbel fallback for
// the remaining slots. The law must stay exactly the reference's.
TEST(PolicyEquivalenceTest, PlackettLuceAliasFallbackPreservesTheLawChiSquared) {
  const size_t n = 30;
  const size_t m = 12;
  const int kTrials = 20000;
  Fixture fx(n, 0);
  const auto policy = MakePlackettLucePolicy(0.01);  // near-deterministic

  const auto stat = [](const std::vector<uint32_t>& prefix) {
    return static_cast<size_t>(prefix.back());
  };
  const std::vector<double> reference =
      MaterializeCounts(policy, fx, m, kTrials, n, 401, stat);
  const std::vector<double> served =
      ServeCounts(policy, fx, n, 2, m, kTrials, n, 402, stat);
  ExpectChiSquaredAgreement(served, reference, "plackett-luce fallback");
}

// Same acceptance property for the Thompson-promotion family: the served
// top-m duels over the merged view (the score normalizer is its best head)
// and must realize exactly the naive reference law. Statistic: how many of
// the deterministic top-m pages survive in the served top-m (the duel
// decides exactly this exchange).
TEST(PolicyEquivalenceTest, ThompsonPromoServeMatchesMaterializeChiSquared) {
  const size_t n = 90;
  const size_t m = 10;
  const int kTrials = 20000;
  Fixture fx(n, 20);  // selective pool: the zero-awareness pages
  const auto policy = MakeThompsonPromotionPolicy(1.0, 2.0, 6.0, 1);

  Ranker ranker(policy);
  Rng rng(4);
  ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
  ASSERT_FALSE(ranker.pool().empty());
  const std::set<uint32_t> det_top(ranker.deterministic_order().begin(),
                                   ranker.deterministic_order().begin() + m);
  const auto stat = [&](const std::vector<uint32_t>& prefix) {
    size_t hits = 0;
    for (const uint32_t page : prefix) hits += det_top.count(page);
    return hits;
  };

  const std::vector<double> reference =
      MaterializeCounts(policy, fx, m, kTrials, m + 1, 501, stat);
  const std::vector<double> served =
      ServeCounts(policy, fx, n, 4, m, kTrials, m + 1, 502, stat);
  ExpectChiSquaredAgreement(served, reference, "ts-promo");
}

// The same property at the shipped prior (a = 1: the served duel is the
// closed-form coin, read from the epoch table on the server and computed
// per query with a null state) and at a != 1, where ServePrefix keeps the
// sampled duel. m = 30 reaches heads of middling score, where the coin is
// far from 0.
TEST(PolicyEquivalenceTest, ThompsonPromoCoinAndSampledDuelMatchChiSquared) {
  const size_t n = 90;
  const size_t m = 30;
  const int kTrials = 20000;
  Fixture fx(n, 20);
  struct Case {
    const char* name;
    std::shared_ptr<const StochasticRankingPolicy> policy;
  };
  const Case cases[] = {
      {"ts-promo shipped (1, 3, 20, 1)",
       MakeThompsonPromotionPolicy(1.0, 3.0, 20.0, 1)},
      {"ts-promo a != 1 (1.5, 1.5, 4, 1)",
       MakeThompsonPromotionPolicy(1.5, 1.5, 4.0, 1)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Ranker ranker(c.policy);
    Rng rng(6);
    ranker.Update(fx.popularity, fx.zero, fx.birth, rng);
    const std::set<uint32_t> det_top(ranker.deterministic_order().begin(),
                                     ranker.deterministic_order().begin() + m);
    const auto stat = [&](const std::vector<uint32_t>& prefix) {
      size_t hits = 0;
      for (const uint32_t page : prefix) hits += det_top.count(page);
      return hits;
    };
    const std::vector<double> reference =
        MaterializeCounts(c.policy, fx, m, kTrials, m + 1, 601, stat);
    ExpectChiSquaredAgreement(
        ServeCounts(c.policy, fx, n, 4, m, kTrials, m + 1, 602, stat),
        reference, c.name);
    ExpectChiSquaredAgreement(
        NullStateCounts(c.policy, fx, m, kTrials, m + 1, 603, stat), reference,
        c.name);
  }
}

TEST(PolicyServingTest, AllStandardFamiliesServeThroughBatchesAndWorkload) {
  const size_t n = 300;
  Fixture fx(n, 60);
  for (const auto& policy : StandardPolicyFamilies()) {
    ServeOptions opts;
    opts.shards = 4;
    ShardedRankServer server(policy, n, opts);
    server.Update(fx.popularity, fx.zero, fx.birth);

    auto ctx = server.CreateContext();
    QueryBatch batch(12, 8);
    EXPECT_EQ(server.ServeBatch(ctx, &batch), 8u * 12u) << policy->Label();
    for (const auto& result : batch.results) {
      EXPECT_EQ(result.size(), 12u) << policy->Label();
    }

    WorkloadOptions wl;
    wl.threads = 2;
    wl.queries_per_thread = 200;
    wl.top_m = 10;
    wl.seed = 21;
    const WorkloadResult res = RunQueryWorkload(server, wl);
    EXPECT_EQ(res.queries, 400u) << policy->Label();
    EXPECT_EQ(res.visits, 400u) << policy->Label();
  }
}

}  // namespace
}  // namespace randrank
