#ifndef RANDRANK_CORE_POLICY_POLICY_FACTORY_H_
#define RANDRANK_CORE_POLICY_POLICY_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/policy/stochastic_ranking_policy.h"

namespace randrank {

/// Parses a policy label into the policy it names, across every shipped
/// family:
///
///   "none" | "uniform(r=0.10,k=1)" | "selective(r=0.10,k=2)"   (promotion)
///   "plackett-luce(T=0.25)"
///   "eps-tail(eps=0.10,k=10)"
///   "ts-promo(a=1.00,b=3.00,c=20.0,k=1)"
///
/// Every key must appear once, in this order; `k` is decimal digits and
/// every other value a finite real (util/parse.h). The policy's Valid() is
/// the only range check. Returns nullptr on an unknown family, a malformed
/// label or out-of-range parameters; `*error` (when non-null) then receives
/// a one-line diagnostic that echoes the label and names the bad parameter,
/// the family's range, or, for an unknown family, the known family prefixes
/// (KnownPolicyFamilyPrefixes).
///
/// Label() reads back to the same policy: it prints any parameter that its
/// usual precision would round at the shortest precision that parses back
/// to it (LabelNumber). The reverse need not hold: "selective(r=0.1,k=2)"
/// parses to the policy whose Label() is "selective(r=0.10,k=2)".
std::shared_ptr<const StochasticRankingPolicy> MakePolicyFromLabel(
    const std::string& label, std::string* error = nullptr);

/// The label prefixes of every family MakePolicyFromLabel understands, in
/// stable order ("none", "uniform(r=...,k=...)", ...): the vocabulary error
/// messages and CLIs list.
const std::vector<std::string>& KnownPolicyFamilyPrefixes();

/// One representative policy per shipped family, in stable order: the
/// paper's recommended promotion recipe, a Plackett-Luce sampler, an
/// epsilon-tail explorer, and a Thompson-sampling promoter. The standard
/// sweep set for perf_serve's policy points, examples/policy_tuning, and
/// the cross-family tests.
std::vector<std::shared_ptr<const StochasticRankingPolicy>>
StandardPolicyFamilies();

}  // namespace randrank

#endif  // RANDRANK_CORE_POLICY_POLICY_FACTORY_H_
