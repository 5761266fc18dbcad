#include "util/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace randrank {

void RunningStats::Add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::nan("");
  assert(p >= 0.0 && p <= 100.0);
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const auto hi = static_cast<size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double NormalQuantile(double p) {
  assert(p > 0.0 && p < 1.0);
  // Acklam's rational approximation in three regions.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - p_low) {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

double ChiSquaredCritical(size_t df, double alpha) {
  assert(df > 0);
  assert(alpha > 0.0 && alpha < 1.0);
  // Wilson-Hilferty: (X/df)^(1/3) is approximately normal with mean
  // 1 - 2/(9 df) and variance 2/(9 df).
  const auto v = static_cast<double>(df);
  const double z = NormalQuantile(1.0 - alpha);
  const double t = 1.0 - 2.0 / (9.0 * v) + z * std::sqrt(2.0 / (9.0 * v));
  return v * t * t * t;
}

double TwoSampleChiSquared(const std::vector<double>& a,
                           const std::vector<double>& b, size_t* df) {
  assert(a.size() == b.size());
  double total_a = 0.0;
  double total_b = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    total_a += a[i];
    total_b += b[i];
  }
  if (total_a <= 0.0 || total_b <= 0.0) {
    if (df) *df = 0;
    return 0.0;
  }
  // Two-sample statistic of Press et al.: cells scaled so unequal sample
  // sizes are handled without binning either sample as "expected".
  const double ka = std::sqrt(total_b / total_a);
  const double kb = std::sqrt(total_a / total_b);
  double stat = 0.0;
  size_t occupied = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double sum = a[i] + b[i];
    if (sum <= 0.0) continue;
    ++occupied;
    const double diff = ka * a[i] - kb * b[i];
    stat += diff * diff / sum;
  }
  // Degrees of freedom = occupied cells, minus one only when the totals are
  // equal (equal totals impose one linear constraint; see NR "chstwo").
  if (df) {
    *df = occupied;
    if (occupied > 0 && total_a == total_b) *df = occupied - 1;
  }
  return stat;
}

void MergeSparseCells(std::vector<double>* a, std::vector<double>* b,
                      double min_total) {
  assert(a->size() == b->size());
  std::vector<double> ma;
  std::vector<double> mb;
  double run_a = 0.0;
  double run_b = 0.0;
  for (size_t i = 0; i < a->size(); ++i) {
    run_a += (*a)[i];
    run_b += (*b)[i];
    if (run_a + run_b >= min_total) {
      ma.push_back(run_a);
      mb.push_back(run_b);
      run_a = run_b = 0.0;
    }
  }
  if (run_a + run_b > 0.0) {
    if (ma.empty()) {
      ma.push_back(run_a);
      mb.push_back(run_b);
    } else {
      ma.back() += run_a;
      mb.back() += run_b;
    }
  }
  a->swap(ma);
  b->swap(mb);
}

double GiniCoefficient(const std::vector<double>& mass) {
  if (mass.empty()) return 0.0;
  std::vector<double> sorted = mass;
  std::sort(sorted.begin(), sorted.end());
  double total = 0.0;
  double weighted = 0.0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    assert(sorted[i] >= 0.0);
    total += sorted[i];
    weighted += static_cast<double>(i + 1) * sorted[i];
  }
  if (total <= 0.0) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  // G = (2 * sum(i * x_(i)) - (n + 1) * sum(x)) / (n * sum(x)).
  return (2.0 * weighted - (n + 1.0) * total) / (n * total);
}

double ShannonEntropyBits(const std::vector<double>& mass) {
  double total = 0.0;
  for (const double x : mass) {
    assert(x >= 0.0);
    total += x;
  }
  if (total <= 0.0) return 0.0;
  double bits = 0.0;
  for (const double x : mass) {
    if (x <= 0.0) continue;
    const double p = x / total;
    bits -= p * std::log2(p);
  }
  return bits;
}

double MannWhitneyZ(const std::vector<double>& a, const std::vector<double>& b) {
  const size_t na = a.size();
  const size_t nb = b.size();
  if (na == 0 || nb == 0) return 0.0;
  // Pool, sort, assign midranks to tied runs, and accumulate a's rank sum
  // plus the tie-correction term sum(t^3 - t) over tie-group sizes t.
  std::vector<std::pair<double, bool>> pooled;  // (value, from_a)
  pooled.reserve(na + nb);
  for (const double x : a) pooled.emplace_back(x, true);
  for (const double x : b) pooled.emplace_back(x, false);
  std::sort(pooled.begin(), pooled.end(),
            [](const auto& l, const auto& r) { return l.first < r.first; });

  double rank_sum_a = 0.0;
  double tie_term = 0.0;
  const size_t n = pooled.size();
  for (size_t i = 0; i < n;) {
    size_t j = i;
    while (j < n && pooled[j].first == pooled[i].first) ++j;
    const auto ties = static_cast<double>(j - i);
    const double midrank =
        (static_cast<double>(i + 1) + static_cast<double>(j)) / 2.0;
    for (size_t k = i; k < j; ++k) {
      if (pooled[k].second) rank_sum_a += midrank;
    }
    tie_term += ties * ties * ties - ties;
    i = j;
  }

  const auto da = static_cast<double>(na);
  const auto db = static_cast<double>(nb);
  const auto dn = static_cast<double>(n);
  const double u = rank_sum_a - da * (da + 1.0) / 2.0;
  const double mean_u = da * db / 2.0;
  const double variance =
      da * db / 12.0 * (dn + 1.0 - tie_term / (dn * (dn - 1.0)));
  if (variance <= 0.0) return 0.0;
  return (u - mean_u) / std::sqrt(variance);
}

}  // namespace randrank
