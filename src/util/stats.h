#ifndef RANDRANK_UTIL_STATS_H_
#define RANDRANK_UTIL_STATS_H_

#include <cstddef>
#include <limits>
#include <vector>

namespace randrank {

/// Streaming mean/variance/extrema accumulator (Welford's algorithm).
class RunningStats {
 public:
  void Add(double x);
  void Merge(const RunningStats& other);

  size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 when fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exact percentile of a sample (sorts a copy; linear interpolation).
/// `p` in [0, 100]. Returns NaN for an empty vector.
double Percentile(std::vector<double> values, double p);

/// Standard normal quantile Phi^-1(p), p in (0, 1) (Acklam's rational
/// approximation, |relative error| < 1.2e-9). Used to derive chi-squared
/// critical values.
double NormalQuantile(double p);

/// Upper critical value of the chi-squared distribution with `df` degrees of
/// freedom at significance `alpha` (Wilson-Hilferty cube approximation; a
/// few percent accurate at df = 1 and better than 0.2% for df >= 10 — use
/// generous df and alpha when gating, as the equivalence tests do).
double ChiSquaredCritical(size_t df, double alpha);

/// Two-sample chi-squared homogeneity statistic over matched count vectors
/// `a` and `b` (same categories; unequal totals allowed). Cells empty in
/// both samples are skipped; `df` (if non-null) receives the occupied cell
/// count, minus one when the sample totals are equal (NR "chstwo").
/// Compare against ChiSquaredCritical(df, alpha) to test whether the two
/// samples draw from the same categorical distribution. For ordered
/// categories with thin tails, MergeSparseCells first — the chi-squared
/// approximation needs non-trivial expected counts per cell.
double TwoSampleChiSquared(const std::vector<double>& a,
                           const std::vector<double>& b, size_t* df = nullptr);

/// Merges adjacent cells of the matched count vectors until every merged
/// cell holds at least `min_total` combined counts (the final cell absorbs
/// any underweight remainder). Standard preconditioning for chi-squared
/// tests over ordered categories whose tails are too sparse for the
/// asymptotic distribution to hold.
void MergeSparseCells(std::vector<double>* a, std::vector<double>* b,
                      double min_total);

/// Gini coefficient of a non-negative mass vector (0 = perfectly even,
/// -> 1 = all mass on one entry). Zero entries count — a catalogue where
/// one page takes every impression over n pages scores (n-1)/n, not 0.
/// Returns 0 for empty input or zero total mass. Sorts a copy, O(n log n).
double GiniCoefficient(const std::vector<double>& mass);

/// Shannon entropy (in bits) of the distribution obtained by normalizing a
/// non-negative mass vector; zero cells contribute nothing. Returns 0 for
/// empty input or zero total. Max is log2(#positive cells) — even exposure.
double ShannonEntropyBits(const std::vector<double>& mass);

/// Mann-Whitney / Wilcoxon rank-sum z statistic for samples `a` vs `b`
/// (midranks for ties, tie-corrected variance, normal approximation —
/// appropriate from ~8 observations per side). Negative z means `a` tends
/// to take SMALLER values than `b`. Suits right-censored durations with a
/// common censoring horizon (record the censor value itself for unfinished
/// observations; the shared tie rank keeps the test valid — Gehan's
/// generalization). Returns 0 when either sample is empty or the variance
/// degenerates (e.g. all observations tied).
double MannWhitneyZ(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace randrank

#endif  // RANDRANK_UTIL_STATS_H_
