// Experiment framework: analysis pipelines and estimator behaviour on
// synthetic worlds with *known* ground truth.
#include <gtest/gtest.h>

#include <cmath>

#include "core/aa_test.h"
#include "core/analysis.h"
#include "core/estimands.h"
#include "stats/rng.h"

namespace xp::core {
namespace {

// Build a synthetic SUTVA world: outcome = base(hour) + hour shock +
// effect * treated + noise. The hour shock is shared by every session in
// the hour — the within-hour correlation that makes account-level
// standard errors anticonservative (Appendix B / Figure 13).
std::vector<Observation> sutva_world(double effect, double p,
                                     std::uint64_t seed, int days = 3,
                                     int per_hour = 40,
                                     double hour_shock_sd = 0.0) {
  stats::Rng rng(seed);
  std::vector<Observation> rows;
  std::uint64_t unit = 0;
  for (int day = 0; day < days; ++day) {
    for (int hour = 0; hour < 24; ++hour) {
      const double base = 100.0 + 10.0 * std::sin(hour / 24.0 * 6.283) +
                          rng.normal(0.0, hour_shock_sd);
      for (int i = 0; i < per_hour; ++i) {
        Observation obs;
        obs.unit = unit;
        obs.account = unit;
        ++unit;
        obs.treated = rng.bernoulli(p);
        obs.outcome = base + (obs.treated ? effect : 0.0) +
                      rng.normal(0.0, 5.0);
        obs.hour_of_day = hour;
        obs.hour_index = static_cast<std::uint64_t>(day) * 24 + hour;
        obs.day = day;
        rows.push_back(obs);
      }
    }
  }
  return rows;
}

TEST(HourlyFe, RecoversEffectUnderSutva) {
  const auto rows = sutva_world(7.0, 0.5, 11);
  const EffectEstimate estimate = hourly_fe_analysis(rows);
  EXPECT_NEAR(estimate.estimate, 7.0, 1.0);
  EXPECT_TRUE(estimate.significant);
  EXPECT_LT(estimate.ci_low, 7.0);
  EXPECT_GT(estimate.ci_high, 7.0);
}

TEST(HourlyFe, NullEffectNotSignificantUsually) {
  int significant = 0;
  for (int rep = 0; rep < 20; ++rep) {
    const auto rows = sutva_world(0.0, 0.5, 100 + rep);
    significant += hourly_fe_analysis(rows).significant;
  }
  EXPECT_LE(significant, 4);
}

TEST(HourlyFe, HandlesSkewedAllocation) {
  const auto rows = sutva_world(5.0, 0.95, 13);
  const EffectEstimate estimate = hourly_fe_analysis(rows);
  EXPECT_NEAR(estimate.estimate, 5.0, 1.5);
}

TEST(HourlyFe, RelativeUsesControlBaseline) {
  const auto rows = sutva_world(10.0, 0.5, 17);
  const EffectEstimate estimate = hourly_fe_analysis(rows);
  EXPECT_NEAR(estimate.baseline, 100.0, 3.0);
  EXPECT_NEAR(estimate.relative(), 0.10, 0.02);
}

TEST(HourlyFe, TooFewCellsThrows) {
  std::vector<Observation> rows;
  Observation obs;
  rows.push_back(obs);
  EXPECT_THROW(hourly_fe_analysis(rows), std::invalid_argument);
}

TEST(AccountLevel, RecoversEffect) {
  const auto rows = sutva_world(4.0, 0.5, 19);
  const EffectEstimate estimate = account_level_analysis(rows);
  EXPECT_NEAR(estimate.estimate, 4.0, 0.5);
  EXPECT_TRUE(estimate.significant);
}

TEST(AccountLevel, TighterThanHourlyUnderHourShocks) {
  // Figure 13: with within-hour correlated outcomes (hour-level shocks),
  // account-level intervals are much narrower than the worst-case hourly
  // aggregation — narrower than warranted, which is exactly why the paper
  // aggregates to hours.
  const auto rows = sutva_world(3.0, 0.5, 23, 3, 40, /*hour_shock_sd=*/6.0);
  const EffectEstimate hourly = hourly_fe_analysis(rows);
  const EffectEstimate account = account_level_analysis(rows);
  EXPECT_LT(account.ci_high - account.ci_low,
            hourly.ci_high - hourly.ci_low);
}

TEST(AggregateHourly, CellsAreOrderedAndAveraged) {
  std::vector<Observation> rows;
  for (int i = 0; i < 4; ++i) {
    Observation obs;
    obs.hour_index = i % 2;
    obs.hour_of_day = i % 2;
    obs.treated = i >= 2;
    obs.outcome = i;
    rows.push_back(obs);
  }
  const auto cells = aggregate_hourly(rows);
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].hour_index, 0u);
  EXPECT_FALSE(cells[0].treated);
  EXPECT_TRUE(cells[1].treated);
  for (const auto& cell : cells) EXPECT_EQ(cell.sessions, 1u);
}

TEST(ArmMean, SplitsCorrectly) {
  std::vector<Observation> rows(4);
  rows[0].outcome = 1.0;
  rows[1].outcome = 3.0;
  rows[2].outcome = 10.0;
  rows[2].treated = true;
  rows[3].outcome = 20.0;
  rows[3].treated = true;
  EXPECT_DOUBLE_EQ(arm_mean(rows, false), 2.0);
  EXPECT_DOUBLE_EQ(arm_mean(rows, true), 15.0);
}

TEST(EffectEstimate, RelativeHandlesZeroBaseline) {
  EffectEstimate e;
  e.estimate = 5.0;
  EXPECT_DOUBLE_EQ(e.relative(), 0.0);
  e.baseline = 10.0;
  EXPECT_DOUBLE_EQ(e.relative(), 0.5);
}

/// An A/A paired-link metric column (group = link): every hour of `days`
/// days carries control rows on both links drawn from one distribution,
/// plus `link0_shift` on link 0's control rows. Treated rows carry a huge
/// outcome that the A/A calibrations must never read.
std::vector<Observation> two_link_column(int days, double link0_shift,
                                         std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<Observation> rows;
  std::uint64_t unit = 0;
  for (int day = 0; day < days; ++day) {
    for (int hour = 0; hour < 24; ++hour) {
      const double base = 100.0 + 10.0 * std::sin(hour / 24.0 * 6.283);
      for (int i = 0; i < 20; ++i) {
        Observation obs;
        obs.unit = obs.account = unit++;
        obs.group = static_cast<std::uint8_t>(i % 2);
        obs.treated = i % 10 == 9;
        obs.outcome = obs.treated ? 1e6 : base + rng.normal(0.0, 5.0);
        if (!obs.treated && obs.group == 0) obs.outcome += link0_shift;
        obs.hour_of_day = hour;
        obs.hour_index = static_cast<std::uint64_t>(day) * 24 + hour;
        obs.day = day;
        rows.push_back(obs);
      }
    }
  }
  return rows;
}

TEST(AaCalibration, TestsEveryAssignment) {
  const auto rows = two_link_column(4, 0.0, 3);
  EXPECT_EQ(calibrate_switchback_aa(rows, 4).assignments_tested, 14u);
  EXPECT_EQ(calibrate_event_study_aa(rows, 4).assignments_tested, 3u);
  EXPECT_EQ(calibrate_switchback_aa(rows, 3).assignments_tested, 6u);
  EXPECT_EQ(calibrate_event_study_aa(rows, 3).assignments_tested, 2u);
}

TEST(AaCalibration, IdenticalLinksGiveNoSwitchbackFalsePositives) {
  // A pinned realization, not a guarantee: on this 4-day column the
  // hourly FE + Newey-West read is anticonservative (about 11% of
  // assignments significant over seeds 1-200), so some seeds see one.
  const auto calibration =
      calibrate_switchback_aa(two_link_column(4, 0.0, 1), 4);
  EXPECT_EQ(calibration.false_positives, 0u);
  EXPECT_LT(calibration.max_abs_relative_estimate, 0.05);
}

TEST(AaCalibration, ShiftedLinkMakesEverySwitchbackSignificant) {
  // Link 0 sits 50 above link 1 with noise sd 5: every assignment with
  // at least one day per arm sees it.
  const auto calibration =
      calibrate_switchback_aa(two_link_column(4, 50.0, 5), 4);
  EXPECT_EQ(calibration.false_positives, calibration.assignments_tested);
  EXPECT_GT(calibration.max_abs_relative_estimate, 0.2);
}

TEST(AaCalibration, IgnoresDaysPastTheWindow) {
  const auto rows = two_link_column(3, 0.0, 7);
  auto padded = rows;
  for (Observation obs : two_link_column(5, 80.0, 8)) {
    if (obs.day < 3) continue;
    padded.push_back(obs);
  }
  const auto expect_same = [](const DesignCalibration& a,
                              const DesignCalibration& b) {
    EXPECT_EQ(a.assignments_tested, b.assignments_tested);
    EXPECT_EQ(a.false_positives, b.false_positives);
    EXPECT_EQ(a.max_abs_relative_estimate, b.max_abs_relative_estimate);
  };
  expect_same(calibrate_switchback_aa(rows, 3),
              calibrate_switchback_aa(padded, 3));
  expect_same(calibrate_event_study_aa(rows, 3),
              calibrate_event_study_aa(padded, 3));
}

TEST(EstimandNames, AllNamed) {
  EXPECT_STREQ(estimand_name(Estimand::kTotalTreatmentEffect), "TTE");
  EXPECT_STREQ(estimand_name(Estimand::kSpillover), "spillover");
}

}  // namespace
}  // namespace xp::core
