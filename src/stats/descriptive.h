// Descriptive statistics over samples of doubles.
//
// These are the building blocks for every estimator in the experiment
// framework: cell means, sample variances, standard errors, and the
// quantiles used for quantile treatment effects (Section 2, "Note on
// averages").
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace xp::stats {

/// Arithmetic mean. Returns 0 for an empty sample.
double mean(std::span<const double> xs) noexcept;

/// Unbiased (n-1) sample variance. Returns 0 for samples of size < 2.
double variance(std::span<const double> xs) noexcept;

/// Sample standard deviation (sqrt of unbiased variance).
double stddev(std::span<const double> xs) noexcept;

/// Standard error of the mean: sd / sqrt(n). Returns 0 for n < 2.
double standard_error(std::span<const double> xs) noexcept;

/// Minimum; +inf for empty input.
double min(std::span<const double> xs) noexcept;

/// Maximum; -inf for empty input.
double max(std::span<const double> xs) noexcept;

/// Linear-interpolation quantile (R type 7, the default in R/NumPy).
/// q must be in [0, 1]. Returns 0 for an empty sample. Copies and sorts.
double quantile(std::span<const double> xs, double q);

/// Quantile over data the caller has already sorted ascending.
double quantile_sorted(std::span<const double> sorted, double q) noexcept;

/// Where the R-7 quantile q falls in a sorted sample of size n >= 2: the
/// bracketing sorted positions lo <= hi and the weight on hi. q is clamped
/// to [0, 1]. Lets a caller that reads order statistics some other way
/// (the rank-count bootstrap) interpolate exactly as quantile_sorted does.
struct QuantileBracket {
  std::size_t lo = 0;
  std::size_t hi = 0;
  double frac = 0.0;
};
QuantileBracket quantile_bracket(std::size_t n, double q) noexcept;

/// The quantile from its bracket's two order statistics.
inline double interpolate(const QuantileBracket& at, double lo_value,
                          double hi_value) noexcept {
  return lo_value + at.frac * (hi_value - lo_value);
}

/// Median (quantile 0.5).
double median(std::span<const double> xs);

/// Weighted mean: sum(w*x)/sum(w). Requires equal lengths; returns 0 when
/// total weight is 0.
double weighted_mean(std::span<const double> xs,
                     std::span<const double> weights) noexcept;

/// Streaming mean/variance accumulator (Welford). Numerically stable for
/// long simulation runs where metric samples arrive one at a time.
class Accumulator {
 public:
  void add(double x) noexcept;
  /// Merge another accumulator (parallel reduction, Chan et al.).
  void merge(const Accumulator& other) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ == 0 ? 0.0 : mean_; }
  double variance() const noexcept;  ///< Unbiased; 0 for n < 2.
  double stddev() const noexcept;
  double standard_error() const noexcept;
  double min() const noexcept;
  double max() const noexcept;
  double sum() const noexcept { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Five-number-style summary used by the report printers.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Compute a Summary of a sample (copies and sorts once).
Summary summarize(std::span<const double> xs);

}  // namespace xp::stats
