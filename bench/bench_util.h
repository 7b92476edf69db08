// Shared helpers for the figure-reproduction benchmark binaries. Every
// bench builds its worlds through one ExperimentSpec -> run_experiment
// (the registry's scenarios, the pipeline's cell seeds), so two figures
// that name the same scenario and seed read the same week.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "core/observation.h"
#include "lab/experiment.h"

namespace xp::bench {

void header(std::string_view title);

/// `weeks` independent replicate worlds of a registered scenario at its
/// default allocation, fanned across the process-wide runner (the
/// bootstrap-week harness of the Figure 5/10-13 benches), analyzed in
/// the same pass by the named registry estimators (core/estimator.h).
lab::ExperimentReport bootstrap_weeks(
    const std::string& scenario, std::size_t weeks,
    std::vector<std::string> estimators = {}, std::uint64_t seed = 2021,
    double duration_scale = 1.0);

/// The Figure 2/3 allocation sweep over a dumbbell/* scenario: one
/// canonical lab world at each allocation p = 0, 0.1, ..., 1.0, read with
/// the gradual/contrast estimator (tau@p, spillover@p and tte rows).
lab::ExperimentReport lab_sweep(const std::string& scenario);

/// Mean of `metric` over one arm of the first replicate world at
/// allocation index `a`, on one link (0/1) or both (-1); 0 for an empty
/// arm.
double arm_mean(const lab::ExperimentReport& report, std::size_t a,
                std::string_view metric, bool treated, int link = -1);

/// The headline "<metric>/<label>" row of `estimator` run on `report`'s
/// `metric` column alone (default EstimatorOptions, the spec defaults),
/// formatted as a relative effect with its significance star (the text
/// fig05's table cells print).
std::string relative_effect(const lab::ExperimentReport& report,
                            std::string_view estimator,
                            std::string_view metric, std::string_view label);

/// The headline gradual/contrast estimate of one sweep step: the
/// "<metric>/<label>@p" row ("tau" or "spillover") at allocation index
/// `a`, or nullptr when the estimator emits no such row (no tau at the
/// p = 0 baseline world, no spillover at the lowest allocation).
const core::EffectEstimate* step_effect(const lab::ExperimentReport& report,
                                        std::size_t a,
                                        std::string_view metric,
                                        std::string_view label);

/// Across-week spread of a per-week statistic.
struct WeekSpread {
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
};

WeekSpread across_weeks(const std::vector<double>& values);

/// Across-week band of hourly mean outcomes (the Figure 11/12 series).
/// A week contributes to an hour's band only if it has observations in
/// that hour, so sparsely covered hours are not dragged toward zero.
struct HourlyBand {
  std::vector<double> mean, min, max;          ///< indexed by hour
  std::vector<std::size_t> weeks_with_data;    ///< per-hour coverage
};

HourlyBand hourly_band(
    const std::vector<std::vector<core::Observation>>& weekly_obs,
    std::size_t hours);

}  // namespace xp::bench
