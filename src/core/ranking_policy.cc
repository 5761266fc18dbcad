#include "core/ranking_policy.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

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

bool RankPromotionConfig::ParseLabel(const std::string& label,
                                     RankPromotionConfig* out) {
  if (label == "none") {
    *out = None();
    return true;
  }
  double r = 0.0;
  size_t k = 0;
  // %n guards against trailing garbage ("uniform(r=0.10,k=1)x" must fail);
  // `k_at` against a sign or blank before k, which %zu accepts (glibc
  // wraps "-1" to SIZE_MAX).
  int k_at = 0;
  int consumed = 0;
  if (std::sscanf(label.c_str(), "uniform(r=%lf,k=%n%zu)%n", &r, &k_at, &k,
                  &consumed) == 2 &&
      static_cast<size_t>(consumed) == label.size() &&
      std::isdigit(static_cast<unsigned char>(label[k_at]))) {
    const RankPromotionConfig parsed = Uniform(r, k);
    if (!parsed.Valid()) return false;
    *out = parsed;
    return true;
  }
  if (std::sscanf(label.c_str(), "selective(r=%lf,k=%n%zu)%n", &r, &k_at, &k,
                  &consumed) == 2 &&
      static_cast<size_t>(consumed) == label.size() &&
      std::isdigit(static_cast<unsigned char>(label[k_at]))) {
    const RankPromotionConfig parsed = Selective(r, k);
    if (!parsed.Valid()) return false;
    *out = parsed;
    return true;
  }
  return false;
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
    if (!std::isfinite(value) || std::strtod(buf, nullptr) == value) return buf;
  }
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace randrank
