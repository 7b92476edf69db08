// Probability distributions needed by the inference machinery: the standard
// normal (for z confidence intervals and power analysis) and Student's t
// (for small-sample intervals such as the hourly-aggregated regressions of
// Appendix B, which have ~24 observations per day-hour cell).
#pragma once

namespace xp::stats {

/// Standard normal CDF via erfc (double precision accurate).
double normal_cdf(double x) noexcept;

/// Inverse standard normal CDF (Acklam's rational approximation refined by
/// one Halley step; |error| < 1e-12 over (0,1)). p in (0,1).
double normal_inv(double p) noexcept;

/// Natural log of the gamma function (Lanczos).
double lgamma_fn(double x) noexcept;

/// Regularized incomplete beta function I_x(a, b) via continued fraction
/// (Lentz). Needed for the Student-t CDF.
double incomplete_beta(double a, double b, double x) noexcept;

/// Student-t CDF with `df` degrees of freedom.
double student_t_cdf(double t, double df) noexcept;

/// Inverse Student-t CDF (quantile). p in (0,1), df > 0.
double student_t_inv(double p, double df) noexcept;

/// Two-sided critical value for confidence `level` (e.g. 0.95 -> ~1.96 for
/// the normal as df -> inf). Uses Student-t with the given df; passes
/// df <= 0 through to the normal critical value.
double critical_value(double level, double df) noexcept;

/// Two-sided p-value for a t statistic with `df` degrees of freedom
/// (normal when df <= 0).
double two_sided_p_value(double t_stat, double df) noexcept;

}  // namespace xp::stats
