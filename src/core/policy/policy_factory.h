#ifndef RANDRANK_CORE_POLICY_POLICY_FACTORY_H_
#define RANDRANK_CORE_POLICY_POLICY_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/policy/stochastic_ranking_policy.h"

namespace randrank {

/// Parses a policy label back into the policy it names — the inverse of
/// StochasticRankingPolicy::Label() across every shipped family:
///
///   "none" | "uniform(r=0.10,k=1)" | "selective(r=0.10,k=2)"   (promotion)
///   "plackett-luce(T=0.25)"
///   "eps-tail(eps=0.10,k=10)"
///   "ts-promo(a=1.00,b=3.00,c=20.0,k=1)"
///
/// Returns nullptr when the label names no known family or carries
/// out-of-range parameters; in that case `*error` (when non-null) receives
/// a one-line diagnostic echoing the offending label and, for unknown
/// families, the known family prefixes (KnownPolicyFamilyPrefixes).
/// Round-trips exactly: Label() prints any parameter that its usual
/// precision would round at the shortest precision that parses back to it
/// (LabelNumber).
std::shared_ptr<const StochasticRankingPolicy> MakePolicyFromLabel(
    const std::string& label, std::string* error = nullptr);

/// The label prefixes of every family MakePolicyFromLabel understands, in
/// stable order — the vocabulary error messages and CLIs list.
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
