// Nonparametric bootstrap confidence intervals.
//
// Used for quantile treatment effects (where the delta method is awkward)
// and as an independent check of the regression-based intervals in the
// experiment analyses.
//
// Replicates run on the process-wide parallel runner. Each replicate draws
// from its own counter-based RNG substream (seeded by a single draw from
// the caller's Rng), so intervals are bit-for-bit reproducible for a given
// seed at any thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "stats/rng.h"

namespace xp::util {
class Runner;  // replicates fan out on the util runner (see util/runner.h)
}

namespace xp::stats {

/// Percentile-bootstrap interval for a scalar statistic of one sample.
struct BootstrapInterval {
  double point = 0.0;   ///< statistic of the original sample
  double low = 0.0;
  double high = 0.0;
  double std_error = 0.0;  ///< bootstrap standard deviation
  /// Percentile-bootstrap two-sided p-value for "statistic = 0":
  /// min(1, 2 * min(#replicates <= 0, #replicates >= 0) / replicates).
  double p_value = 1.0;
};

/// Statistic of a single sample, e.g. the mean or a quantile.
using Statistic = std::function<double(std::span<const double>)>;

/// Statistic contrasting two samples, e.g. difference in means.
using TwoSampleStatistic =
    std::function<double(std::span<const double>, std::span<const double>)>;

/// Percentile bootstrap for a one-sample statistic. Pass `runner` to pin a
/// specific thread pool (tests); nullptr uses the process-wide runner.
BootstrapInterval bootstrap_ci(std::span<const double> sample,
                               const Statistic& statistic, Rng& rng,
                               std::size_t replicates = 1000,
                               double confidence_level = 0.95,
                               util::Runner* runner = nullptr);

/// Percentile bootstrap for a two-sample contrast; resamples each group
/// independently (appropriate for A/B cells).
BootstrapInterval bootstrap_two_sample_ci(std::span<const double> a,
                                          std::span<const double> b,
                                          const TwoSampleStatistic& statistic,
                                          Rng& rng,
                                          std::size_t replicates = 1000,
                                          double confidence_level = 0.95,
                                          util::Runner* runner = nullptr);

/// One sample ranked once, for bootstrap reads that never sort a
/// resample: `sorted` holds the values ascending and `rank[i]` is the
/// sorted position of sample[i] (a stable argsort). Values must be
/// finite, since a NaN breaks the ordering the sort needs; at most 2^32
/// of them (the resampling index range).
struct RankedSample {
  explicit RankedSample(std::span<const double> sample);
  std::size_t size() const noexcept { return sorted.size(); }

  std::vector<double> sorted;
  std::vector<std::uint32_t> rank;
};

/// Percentile bootstrap for Q_q(a) - Q_q(b), the R-7 quantile difference
/// of two independently resampled groups. Bit-identical to
/// bootstrap_two_sample_ci with the statistic
/// `quantile(a, q) - quantile(b, q)` from the same Rng state: each
/// replicate makes the same index draws (group a, then group b), but
/// tallies them per rank and reads the two bracketing order statistics off
/// the cumulative counts, so a replicate costs O(n) instead of a copy and
/// an O(n log n) sort. Tied values are equal, so which tied rank a draw
/// lands on does not change any quantile.
BootstrapInterval bootstrap_quantile_difference_ci(
    const RankedSample& a, const RankedSample& b, double q, Rng& rng,
    std::size_t replicates = 1000, double confidence_level = 0.95,
    util::Runner* runner = nullptr);

}  // namespace xp::stats
