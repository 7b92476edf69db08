#include "core/aa_test.h"

#include <algorithm>
#include <cmath>

#include "core/designs/event_study.h"
#include "core/designs/paired_link.h"
#include "core/designs/switchback.h"

namespace xp::core {

std::vector<Observation> aa_link_contrast(std::span<const Observation> rows,
                                          int day_max) {
  RowFilter link0;
  link0.link = 0;
  link0.treated = 0;
  link0.day_max = day_max;
  RowFilter link1 = link0;
  link1.link = 1;
  return cross_cell_contrast(rows, link0, link1);
}

namespace {

DesignCalibration accumulate(DesignCalibration calibration,
                             const EffectEstimate& estimate) {
  ++calibration.assignments_tested;
  if (estimate.significant) ++calibration.false_positives;
  calibration.max_abs_relative_estimate =
      std::max(calibration.max_abs_relative_estimate,
               std::fabs(estimate.relative()));
  return calibration;
}

}  // namespace

DesignCalibration calibrate_switchback_aa(std::span<const Observation> rows,
                                          std::uint32_t days,
                                          const AnalysisOptions& options) {
  const auto contrast = aa_link_contrast(rows, static_cast<int>(days) - 1);
  DesignCalibration calibration;
  const std::uint32_t combos = 1u << days;
  for (std::uint32_t mask = 1; mask + 1 < combos; ++mask) {
    SwitchbackOptions sb;
    sb.analysis = options;
    sb.day_treated.resize(days);
    for (std::uint32_t d = 0; d < days; ++d) {
      sb.day_treated[d] = (mask >> d) & 1u;
    }
    calibration = accumulate(calibration, switchback_tte(contrast, sb));
  }
  return calibration;
}

DesignCalibration calibrate_event_study_aa(std::span<const Observation> rows,
                                           std::uint32_t days,
                                           const AnalysisOptions& options) {
  const auto contrast = aa_link_contrast(rows, static_cast<int>(days) - 1);
  DesignCalibration calibration;
  for (std::uint32_t switch_day = 1; switch_day < days; ++switch_day) {
    EventStudyOptions es;
    es.switch_day = switch_day;
    es.analysis = options;
    calibration = accumulate(calibration, event_study_tte(contrast, es));
  }
  return calibration;
}

}  // namespace xp::core
