#include "core/quantile_effects.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "util/runner.h"
#include "stats/bootstrap.h"
#include "stats/descriptive.h"

namespace xp::core {

namespace {

void split_arms(std::span<const Observation> rows, std::vector<double>& treated,
                std::vector<double>& control) {
  for (const Observation& row : rows) {
    (row.treated ? treated : control).push_back(row.outcome);
  }
}

void require_arm_sizes(std::size_t treated, std::size_t control) {
  if (treated < 10 || control < 10) {
    throw std::invalid_argument(
        "quantile_effect_ladder: need >= 10 units per arm");
  }
}

/// Ranks one arm for the rank-count bootstrap. A NaN would break the
/// ordering the sort relies on and an inf turns interpolation into NaN,
/// so both are refused up front, naming the arm.
stats::RankedSample rank_arm(std::span<const double> outcomes,
                             const char* arm) {
  for (double x : outcomes) {
    if (!std::isfinite(x)) {
      throw std::invalid_argument(
          std::string("quantile_effect_ladder: non-finite outcome in the ") +
          arm + " arm");
    }
  }
  return stats::RankedSample(outcomes);
}

EffectEstimate ranked_effect(const stats::RankedSample& treated,
                             const stats::RankedSample& control, double q,
                             const QuantileEffectOptions& options,
                             util::Runner* runner) {
  stats::Rng rng(options.seed);
  const stats::BootstrapInterval interval =
      stats::bootstrap_quantile_difference_ci(
          treated, control, q, rng, options.bootstrap_replicates,
          options.confidence_level, runner);

  EffectEstimate effect;
  effect.estimate = interval.point;
  effect.std_error = interval.std_error;
  effect.ci_low = interval.low;
  effect.ci_high = interval.high;
  effect.significant = interval.low > 0.0 || interval.high < 0.0;
  effect.p_value = interval.p_value;
  effect.baseline = stats::quantile_sorted(control.sorted, q);
  return effect;
}

}  // namespace

std::vector<QuantileEffectRow> quantile_effect_ladder(
    std::span<const Observation> rows, std::span<const double> quantiles,
    const QuantileEffectOptions& options, util::Runner* runner) {
  // The arms are identical for every rung, so split and rank them once;
  // each rung then bootstraps over the shared read-only ranking.
  std::vector<double> treated, control;
  split_arms(rows, treated, control);
  require_arm_sizes(treated.size(), control.size());
  const stats::RankedSample treated_ranks = rank_arm(treated, "treated");
  const stats::RankedSample control_ranks = rank_arm(control, "control");
  // Rungs are independent bootstraps with index-derived seeds, so the
  // runner can fan them out; the ladder is identical at any thread count.
  util::Runner& pool = runner ? *runner : util::global_runner();
  std::vector<QuantileEffectRow> ladder(quantiles.size());
  pool.parallel_for(quantiles.size(), [&](std::size_t i) {
    QuantileEffectOptions step = options;
    step.seed = options.seed + i + 1;  // independent streams per quantile
    ladder[i].quantile = quantiles[i];
    ladder[i].effect = ranked_effect(treated_ranks, control_ranks,
                                     quantiles[i], step, runner);
  });
  return ladder;
}

}  // namespace xp::core
