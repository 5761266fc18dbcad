#ifndef RANDRANK_CORE_RANKING_POLICY_H_
#define RANDRANK_CORE_RANKING_POLICY_H_

#include <cstddef>
#include <string>

namespace randrank {

/// Which pages are eligible for rank promotion (paper Section 4).
enum class PromotionRule {
  /// No promotion: strict deterministic ranking by popularity.
  kNone,
  /// Every page enters the promotion pool independently with probability r.
  kUniform,
  /// Exactly the pages whose awareness among monitored users is zero.
  kSelective,
};

/// Configuration of the randomized rank-promotion scheme (Section 4).
///
/// The merge procedure: the top k-1 entries of the deterministic list Ld are
/// protected; each later position takes the next element of the shuffled pool
/// Lp with probability r, otherwise the next element of Ld, until one list
/// empties.
struct RankPromotionConfig {
  PromotionRule rule = PromotionRule::kNone;
  /// Degree of randomization r in [0, 1].
  double r = 0.0;
  /// Starting point k >= 1. k = 2 preserves the "feeling lucky" top result.
  size_t k = 1;

  /// Strict deterministic ranking.
  static RankPromotionConfig None();
  /// Uniform rule with the given r and k.
  static RankPromotionConfig Uniform(double r, size_t k = 1);
  /// Selective rule with the given r and k.
  static RankPromotionConfig Selective(double r, size_t k = 1);
  /// The paper's recommended recipe (Section 6.4): selective promotion,
  /// r = 0.1, k in {1, 2}.
  static RankPromotionConfig Recommended(size_t k = 1);
  /// The live study's variant (Appendix A): new pages inserted in random
  /// order immediately below `position - 1`; equals Selective(r=1, k=position).
  static RankPromotionConfig FixedPosition(size_t position = 21);

  /// True when parameters are in range and consistent.
  bool Valid() const;

  /// Human-readable label like "selective(r=0.10,k=1)" for tables. Stable:
  /// bench JSONL and tools/check_bench.py key perf points by it, and
  /// MakePolicyFromLabel() (core/policy/policy_factory.h) inverts it.
  std::string Label() const;
};

/// A policy label's real-valued parameter: `value` printed "%.<precision>f"
/// when that text parses back to `value`, else at the shortest "%f"
/// precision (up to 17 decimals) that does, else "%.17g". Every family's
/// Label() prints its parameters this way, so labels keep their usual
/// precision and still parse back to the same policy.
std::string LabelNumber(double value, int precision);

}  // namespace randrank

#endif  // RANDRANK_CORE_RANKING_POLICY_H_
