#include "core/ranking_policy.h"

#include <cmath>
#include <cstdio>

#include "util/parse.h"

namespace randrank {

RankPromotionConfig RankPromotionConfig::None() {
  return {PromotionRule::kNone, 0.0, 1};
}

RankPromotionConfig RankPromotionConfig::Uniform(double r, size_t k) {
  return {PromotionRule::kUniform, r, k};
}

RankPromotionConfig RankPromotionConfig::Selective(double r, size_t k) {
  return {PromotionRule::kSelective, r, k};
}

RankPromotionConfig RankPromotionConfig::Recommended(size_t k) {
  return Selective(0.1, k);
}

RankPromotionConfig RankPromotionConfig::FixedPosition(size_t position) {
  return Selective(1.0, position);
}

bool RankPromotionConfig::Valid() const {
  if (k < 1) return false;
  if (!(r >= 0.0 && r <= 1.0)) return false;  // also rejects NaN
  if (rule == PromotionRule::kNone) return r == 0.0;
  return true;
}

std::string RankPromotionConfig::Label() const {
  switch (rule) {
    case PromotionRule::kNone:
      return "none";
    case PromotionRule::kUniform:
      return "uniform(r=" + LabelNumber(r, 2) + ",k=" + std::to_string(k) +
             ")";
    case PromotionRule::kSelective:
      return "selective(r=" + LabelNumber(r, 2) + ",k=" + std::to_string(k) +
             ")";
  }
  return "?";
}

std::string LabelNumber(double value, int precision) {
  // Room for "%.17f" of the largest finite double (309 integer digits).
  char buf[352];
  for (int digits = precision; digits <= 17; ++digits) {
    std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
    double back = 0.0;
    if (!std::isfinite(value) ||
        (ParseFiniteReal(buf, &back) && back == value)) {
      return buf;
    }
  }
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace randrank
