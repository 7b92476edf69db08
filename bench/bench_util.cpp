#include "bench/bench_util.h"

#include <stdexcept>

#include "core/analysis.h"
#include "core/report.h"
#include "core/session_metrics.h"
#include "stats/descriptive.h"

namespace xp::bench {

void header(std::string_view title) {
  std::printf("\n%.*s\n", 100,
              "====================================================="
              "===============================================");
  std::printf("  %s\n", std::string(title).c_str());
  std::printf("%.*s\n", 100,
              "====================================================="
              "===============================================");
}

lab::ExperimentReport lab_sweep(const std::string& scenario) {
  lab::ExperimentSpec spec;
  spec.scenario = scenario;
  spec.allocations = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5,
                      0.6, 0.7, 0.8, 0.9, 1.0};
  spec.estimators = {"gradual/contrast"};
  return lab::run_experiment(spec);
}

double arm_mean(const lab::ExperimentReport& report, std::size_t a,
                std::string_view metric, bool treated, int link) {
  const auto& column = report.cell(a, 0).table.column(metric);
  if (link < 0) return core::arm_mean(column, treated);
  core::RowFilter filter;
  filter.link = link;
  return core::arm_mean(core::select(column, filter), treated);
}

std::string relative_effect(const lab::ExperimentReport& report,
                            std::string_view estimator,
                            std::string_view metric, std::string_view label) {
  core::EstimateTable table;
  for (core::EstimateRow& row : core::make_estimator(estimator)
                                    ->estimate_metric(report, metric, {})) {
    table.add_row(std::move(row));
  }
  return core::format_relative(
      table.row(std::string(metric) + "/" + std::string(label)).effect());
}

const core::EffectEstimate* step_effect(const lab::ExperimentReport& report,
                                        std::size_t a,
                                        std::string_view metric,
                                        std::string_view label) {
  const std::string prefix = std::string(label) + "@";
  for (const core::EstimateRow* row :
       report.estimates_for("gradual/contrast").metric_rows(metric)) {
    if (row->allocation == report.allocations[a] &&
        row->label.starts_with(prefix)) {
      return &row->effect();
    }
  }
  return nullptr;
}

lab::ExperimentReport bootstrap_weeks(const std::string& scenario,
                                      std::size_t weeks,
                                      std::vector<std::string> estimators,
                                      std::uint64_t seed,
                                      double duration_scale) {
  lab::ExperimentSpec spec;
  spec.scenario = scenario;
  spec.tuning.duration_scale = duration_scale;
  spec.replicates = weeks;
  spec.estimators = std::move(estimators);
  spec.seed = seed;
  return lab::run_experiment(spec);
}

HourlyBand hourly_band(
    const std::vector<std::vector<core::Observation>>& weekly_obs,
    std::size_t hours) {
  const std::size_t weeks = weekly_obs.size();
  std::vector<std::vector<double>> sum(weeks,
                                       std::vector<double>(hours, 0.0));
  std::vector<std::vector<double>> count(weeks,
                                         std::vector<double>(hours, 0.0));
  for (std::size_t w = 0; w < weeks; ++w) {
    for (const core::Observation& obs : weekly_obs[w]) {
      if (obs.hour_index >= hours) continue;
      sum[w][obs.hour_index] += obs.outcome;
      count[w][obs.hour_index] += 1.0;
    }
  }

  HourlyBand band;
  band.mean.assign(hours, 0.0);
  band.min.assign(hours, 0.0);
  band.max.assign(hours, 0.0);
  band.weeks_with_data.assign(hours, 0);
  for (std::size_t h = 0; h < hours; ++h) {
    std::vector<double> means;
    for (std::size_t w = 0; w < weeks; ++w) {
      if (count[w][h] > 0.0) means.push_back(sum[w][h] / count[w][h]);
    }
    band.weeks_with_data[h] = means.size();
    if (!means.empty()) {
      const WeekSpread spread = across_weeks(means);
      band.mean[h] = spread.mean;
      band.min[h] = spread.min;
      band.max[h] = spread.max;
    }
  }
  return band;
}

WeekSpread across_weeks(const std::vector<double>& values) {
  if (values.empty()) {
    throw std::invalid_argument("across_weeks: no values");
  }
  WeekSpread spread;
  spread.mean = stats::mean(values);
  spread.min = stats::min(values);
  spread.max = stats::max(values);
  return spread;
}

}  // namespace xp::bench
