// Quantile treatment effects (Section 2, "Note on averages"): the
// difference in a quantile of the outcome distribution between arms,
// e.g. the p99 latency gap. "These are regularly estimated from A/B test
// results" — we provide the plug-in estimator with bootstrap intervals,
// since the sampling distribution of quantile differences is awkward for
// the delta method at extreme quantiles.
#pragma once

#include <span>
#include <vector>

#include "core/estimands.h"
#include "core/observation.h"
#include "stats/rng.h"

namespace xp::util {
class Runner;  // rungs and replicates fan out here (see util/runner.h)
}

namespace xp::core {

struct QuantileEffectOptions {
  double confidence_level = 0.95;
  std::size_t bootstrap_replicates = 600;
  std::uint64_t seed = 7;
};

/// A ladder of quantile effects (e.g. median, p90, p99) for one metric —
/// congestion interference often concentrates in the tail, so the tail
/// effects can disagree with the mean effect in both size and sign.
struct QuantileEffectRow {
  double quantile = 0.0;
  EffectEstimate effect;
};

/// Each rung is Q_q(treated) - Q_q(control) with a percentile-bootstrap
/// interval (arms resampled independently). Each arm is sorted once and
/// the ranking is shared, read-only, across rungs; every replicate is read
/// off per-rank draw counts (stats::bootstrap_quantile_difference_ci).
/// Rung i bootstraps with seed `options.seed + i + 1`. `runner` controls
/// where rungs and replicates fan out (null = the process-wide runner);
/// results are identical at any thread count. Throws
/// std::invalid_argument, naming the arm, if an arm has fewer than 10
/// units or a NaN or infinite outcome.
std::vector<QuantileEffectRow> quantile_effect_ladder(
    std::span<const Observation> rows,
    std::span<const double> quantiles,
    const QuantileEffectOptions& options = {},
    util::Runner* runner = nullptr);

}  // namespace xp::core
