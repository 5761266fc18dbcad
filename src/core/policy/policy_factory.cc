#include "core/policy/policy_factory.h"

#include <algorithm>
#include <string_view>

#include "core/policy/epsilon_tail_policy.h"
#include "core/policy/plackett_luce_policy.h"
#include "core/policy/promotion_policy.h"
#include "core/policy/thompson_promotion_policy.h"
#include "core/ranking_policy.h"
#include "util/parse.h"

namespace randrank {

namespace {

using PolicyPtr = std::shared_ptr<const StochasticRankingPolicy>;

/// A label's parameter values: `k` reads as an integer, every other key as
/// a finite real, kept in label order.
struct Params {
  std::vector<double> real;
  uint64_t k = 0;
};

/// One shipped family: the name its labels start with, its parameter keys
/// in label order, what its Valid() requires (for the diagnostic), and the
/// constructor the parsed values feed.
struct Family {
  std::string_view name;
  std::vector<std::string_view> keys;
  std::string_view needs;
  PolicyPtr (*make)(const Params& p);
};

const std::vector<Family>& Families() {
  static const std::vector<Family> kFamilies = {
      {"none", {}, "",
       [](const Params&) -> PolicyPtr {
         return MakePromotionPolicy(RankPromotionConfig::None());
       }},
      {"uniform", {"r", "k"}, "r in [0, 1] and k >= 1",
       [](const Params& p) -> PolicyPtr {
         return MakePromotionPolicy(
             RankPromotionConfig::Uniform(p.real[0], p.k));
       }},
      {"selective", {"r", "k"}, "r in [0, 1] and k >= 1",
       [](const Params& p) -> PolicyPtr {
         return MakePromotionPolicy(
             RankPromotionConfig::Selective(p.real[0], p.k));
       }},
      {"plackett-luce", {"T"}, "a temperature T > 0",
       [](const Params& p) { return MakePlackettLucePolicy(p.real[0]); }},
      {"eps-tail", {"eps", "k"}, "epsilon in [0, 1]",
       [](const Params& p) {
         return MakeEpsilonTailPolicy(p.real[0], p.k);
       }},
      {"ts-promo", {"a", "b", "c", "k"}, "a > 0, b > 0 and c >= 0",
       [](const Params& p) {
         return MakeThompsonPromotionPolicy(p.real[0], p.real[1], p.real[2],
                                            p.k);
       }},
  };
  return kFamilies;
}

std::string Prefix(const Family& family) {
  std::string prefix(family.name);
  for (size_t i = 0; i < family.keys.size(); ++i) {
    prefix += (i == 0 ? "(" : ",");
    prefix += std::string(family.keys[i]) + "=...";
  }
  if (!family.keys.empty()) prefix += ")";
  return prefix;
}

/// Reads `list`, the text after the family name, into `*params`: nothing
/// for a family without parameters, else "(key=value,...)" with exactly the
/// family's keys in order. Returns "" on success, else what is wrong.
std::string ReadParams(const Family& family, std::string_view list,
                       Params* params) {
  const std::string expected = "expected " + Prefix(family);
  if (family.keys.empty()) return list.empty() ? "" : expected;
  if (list.size() < 2 || list.front() != '(' || list.back() != ')') {
    return expected;
  }
  list = list.substr(1, list.size() - 2);
  for (size_t i = 0; i < family.keys.size(); ++i) {
    const std::string_view key = family.keys[i];
    const size_t end =
        i + 1 == family.keys.size() ? list.size() : list.find(',');
    const std::string_view field = list.substr(0, end);
    if (end == std::string_view::npos || !field.starts_with(key) ||
        field.substr(key.size(), 1) != "=") {
      return expected;
    }
    const std::string_view value = field.substr(key.size() + 1);
    double real = 0.0;
    if (key == "k" ? !ParseU64(value, &params->k)
                   : !ParseFiniteReal(value, &real)) {
      return "bad value for \"" + std::string(key) + "\": \"" +
             std::string(value) + "\"";
    }
    if (key != "k") params->real.push_back(real);
    list.remove_prefix(std::min(end + 1, list.size()));
  }
  return "";
}

std::string JoinPrefixes() {
  std::string joined;
  for (const std::string& prefix : KnownPolicyFamilyPrefixes()) {
    if (!joined.empty()) joined += ", ";
    joined += prefix;
  }
  return joined;
}

}  // namespace

const std::vector<std::string>& KnownPolicyFamilyPrefixes() {
  static const std::vector<std::string> kPrefixes = [] {
    std::vector<std::string> prefixes;
    for (const Family& family : Families()) prefixes.push_back(Prefix(family));
    return prefixes;
  }();
  return kPrefixes;
}

std::shared_ptr<const StochasticRankingPolicy> MakePolicyFromLabel(
    const std::string& label, std::string* error) {
  const std::string_view text = label;
  const size_t open = std::min(text.find('('), text.size());
  for (const Family& family : Families()) {
    if (text.substr(0, open) != family.name) continue;
    Params params;
    std::string wrong = ReadParams(family, text.substr(open), &params);
    if (wrong.empty()) {
      PolicyPtr policy = family.make(params);
      if (policy->Valid()) return policy;
      wrong = "parameters out of range (" + std::string(family.name) +
              " needs " + std::string(family.needs) + ")";
    }
    if (error != nullptr) *error = "policy label \"" + label + "\": " + wrong;
    return nullptr;
  }
  if (error != nullptr) {
    *error = "unknown policy label \"" + label +
             "\"; known families: " + JoinPrefixes();
  }
  return nullptr;
}

std::vector<std::shared_ptr<const StochasticRankingPolicy>>
StandardPolicyFamilies() {
  return {
      MakePromotionPolicy(RankPromotionConfig::Recommended(2)),
      MakePlackettLucePolicy(0.05),
      MakeEpsilonTailPolicy(0.1, 10),
      // Beta(1, 3) pool prior (mean 0.25) against c = 20 pseudo-observations
      // per head: top-ranked heads (~mean 0.95) almost never lose the duel,
      // deep-tail heads (~0.05) lose often — rank-adaptive promotion.
      MakeThompsonPromotionPolicy(1.0, 3.0, 20.0, 1),
  };
}

}  // namespace randrank
