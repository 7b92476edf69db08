// Power analysis for experiment sizing.
//
// Section 5.2: "The allocation size should be large enough to give
// statistically significant results, and can be determined by a power
// calculation." These helpers size two-sample tests and switchback
// experiments (where the effective sample size is the number of intervals,
// not the number of sessions, because of the worst-case within-interval
// correlation assumption in Appendix B).
#pragma once

#include <cstddef>

namespace xp::stats {

/// Inputs for a two-sample difference-of-means power calculation.
struct PowerSpec {
  double effect = 0.0;       ///< minimum detectable difference in means
  double sd = 1.0;           ///< outcome standard deviation (per unit)
  double alpha = 0.05;       ///< two-sided significance level
  double power = 0.8;        ///< target power (1 - beta)
  double allocation = 0.5;   ///< treatment fraction p
};

/// Total sample size (treatment + control) needed to detect `effect` with
/// the requested power in a two-sided z-test with unequal allocation.
/// Throws std::invalid_argument naming the field when `alpha`, `power` or
/// `allocation` is outside (0, 1), or `effect` or `sd` is not finite (or
/// `effect` is zero).
std::size_t required_sample_size(const PowerSpec& spec);

/// Number of switchback intervals needed, treating each interval as one
/// (perfectly correlated) observation with between-interval sd `interval_sd`.
/// Validates like required_sample_size.
std::size_t required_switchback_intervals(double effect, double interval_sd,
                                          double alpha = 0.05,
                                          double power = 0.8);

}  // namespace xp::stats
