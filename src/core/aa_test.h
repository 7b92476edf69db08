// A/A calibration (Sections 4.1 and 5.3, and [54, Ch. 19]).
//
// Before trusting any design, run it with no treatment anywhere and check
// that it does not "detect" effects. Two calibrations from the paper:
//
//  * Link similarity (the Section 4.1 baseline week): compare links on
//    every metric; significant differences are pre-existing imbalances
//    that must be accounted for (the paper found rebuffer imbalance).
//    This is the hourly FE read of `aa_link_contrast` (aa/null's
//    link_diff rows).
//  * Design false positives: run the switchback / event-study analysis
//    over the same A/A contrast with every possible interval assignment
//    and count significant results. The paper found zero for switchbacks
//    and majority-of-metrics false positives for event studies.
#pragma once

#include <span>
#include <vector>

#include "core/analysis.h"
#include "core/session_metrics.h"

namespace xp::core {

/// The A/A contrast: link 0's control rows labelled A = 1 against link
/// 1's control rows labelled A = 0 — no real treatment anywhere. Only
/// rows with `day <= day_max` are kept; -1 keeps every day.
std::vector<Observation> aa_link_contrast(std::span<const Observation> rows,
                                          int day_max = -1);

struct DesignCalibration {
  std::size_t assignments_tested = 0;
  std::size_t false_positives = 0;  ///< significant results on A/A data
  double max_abs_relative_estimate = 0.0;
};

/// Exhaustively test every day assignment (with >=1 day per arm) of a
/// switchback over the A/A contrast of days [0, days) of a metric column
/// (rows keep their own arm labels; group is the link); count false
/// positives.
DesignCalibration calibrate_switchback_aa(std::span<const Observation> rows,
                                          std::uint32_t days,
                                          const AnalysisOptions& options = {});

/// Test every switch day of an event study over the same A/A contrast.
DesignCalibration calibrate_event_study_aa(
    std::span<const Observation> rows, std::uint32_t days,
    const AnalysisOptions& options = {});

}  // namespace xp::core
