// Scenario registry + experiment pipeline: every registered scenario runs
// through the one ExperimentSpec -> run_experiment -> Report pipeline and
// is bit-for-bit identical at any thread count; unknown names fail with a
// clear error naming the alternatives.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "lab/experiment.h"
#include "lab/registry.h"
#include "trace/codec.h"
#include "trace/writer.h"
#include "util/runner.h"

namespace xp {
namespace {

// Smoke-scale worlds: a sliver of the canonical horizons so the full
// registry sweep stays fast while still exercising both backends.
lab::SourceOptions smoke_options() {
  lab::SourceOptions options;
  options.duration_scale = 0.04;
  return options;
}

void expect_tables_identical(const core::ObservationTable& a,
                             const core::ObservationTable& b) {
  ASSERT_EQ(a.metrics, b.metrics);
  ASSERT_EQ(a.columns.size(), b.columns.size());
  for (std::size_t c = 0; c < a.columns.size(); ++c) {
    ASSERT_EQ(a.columns[c].size(), b.columns[c].size()) << a.metrics[c];
    for (std::size_t r = 0; r < a.columns[c].size(); ++r) {
      const core::Observation& x = a.columns[c][r];
      const core::Observation& y = b.columns[c][r];
      EXPECT_EQ(x.unit, y.unit);
      EXPECT_EQ(x.account, y.account);
      EXPECT_EQ(x.treated, y.treated);
      // Bit-for-bit, not approximately: the determinism contract. The
      // comparison is over bit patterns so NaN outcomes (corrupted
      // telemetry under a fault plan) compare equal to themselves.
      EXPECT_EQ(std::bit_cast<std::uint64_t>(x.outcome),
                std::bit_cast<std::uint64_t>(y.outcome));
      EXPECT_EQ(x.hour_of_day, y.hour_of_day);
      EXPECT_EQ(x.hour_index, y.hour_index);
      EXPECT_EQ(x.day, y.day);
      EXPECT_EQ(x.group, y.group);
    }
  }
  ASSERT_EQ(a.aggregate_names, b.aggregate_names);
  for (std::size_t i = 0; i < a.aggregates.size(); ++i) {
    EXPECT_EQ(a.aggregates[i], b.aggregates[i]) << a.aggregate_names[i];
  }
  ASSERT_EQ(a.series_names, b.series_names);
  ASSERT_EQ(a.series, b.series);
}

TEST(Registry, ListsTheBuiltinScenarios) {
  const auto names = lab::scenario_names();
  for (const char* expected :
       {"dumbbell/two_connections", "dumbbell/pacing",
        "dumbbell/bbr_vs_cubic", "paired_links/experiment",
        "paired_links/baseline", "paired_links/cap_50",
        "paired_links/drop_top", "paired_links/abr_swap",
        "paired_links/bba_vs_rate", "trace/replay",
        "trace/self_calibration"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing scenario: " << expected;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(Registry, UnknownNameFailsWithClearError) {
  try {
    lab::make_scenario("no/such/scenario");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("unknown scenario"), std::string::npos) << message;
    EXPECT_NE(message.find("no/such/scenario"), std::string::npos) << message;
    // The error lists the registered scenarios so the fix is obvious.
    EXPECT_NE(message.find("dumbbell/two_connections"), std::string::npos)
        << message;
    EXPECT_NE(message.find("paired_links/experiment"), std::string::npos)
        << message;
  }
}

TEST(Registry, DuplicateRegistrationThrows) {
  EXPECT_THROW(
      lab::register_scenario("dumbbell/pacing",
                             [](const lab::SourceOptions&)
                                 -> std::unique_ptr<core::DataSource> {
                               return nullptr;
                             }),
      std::invalid_argument);
}

TEST(Registry, EveryScenarioIsBitIdenticalAcrossThreadCounts) {
  util::Runner serial(1);
  util::Runner pool(4);
  // trace/replay needs a recorded log; export one smoke world for it
  // (the other scenarios ignore the path).
  const std::string trace_path =
      ::testing::TempDir() + "registry_smoke_trace.xpt";
  {
    const auto source =
        lab::make_scenario("paired_links/experiment", smoke_options());
    trace::TraceMeta meta;
    meta.source = "paired_links/experiment";
    meta.allocation = 0.95;
    meta.intended_treated_fraction = source->intended_treated_fraction(0.95);
    meta.seed = 5;
    trace::write_trace_file(trace_path,
                            trace::make_log(source->run(0.95, 5), meta));
  }
  for (const std::string& name : lab::scenario_names()) {
    SCOPED_TRACE(name);
    lab::ExperimentSpec spec;
    spec.scenario = name;
    spec.tuning = smoke_options();
    spec.tuning.trace_path = trace_path;
    spec.replicates = 2;
    spec.seed = 7;
    // The lab sweeps pin the all-control and all-treated endpoints too.
    if (name.starts_with("dumbbell/")) spec.allocations = {0.0, 0.5, 1.0};

    const auto report1 = lab::run_experiment(spec, serial);
    const auto reportN = lab::run_experiment(spec, pool);

    ASSERT_EQ(report1.allocations, reportN.allocations);
    ASSERT_EQ(report1.cells.size(), reportN.cells.size());
    for (std::size_t i = 0; i < report1.cells.size(); ++i) {
      EXPECT_EQ(report1.cells[i].allocation, reportN.cells[i].allocation);
      EXPECT_EQ(report1.cells[i].replicate, reportN.cells[i].replicate);
      EXPECT_EQ(report1.cells[i].seed, reportN.cells[i].seed);
      expect_tables_identical(report1.cells[i].table,
                              reportN.cells[i].table);
    }
  }
}

TEST(Pipeline, DefaultAllocationComesFromTheSource) {
  lab::ExperimentSpec spec;
  spec.scenario = "paired_links/experiment";
  spec.tuning = smoke_options();
  const auto report = lab::run_experiment(spec);
  ASSERT_EQ(report.allocations.size(), 1u);
  // The canonical paired-link experiment treats 95% on link 1.
  EXPECT_DOUBLE_EQ(report.allocations[0], 0.95);
}

TEST(Pipeline, CellSeedsAreIndexDerived) {
  // Same spec seed -> same cell seeds; distinct indices -> distinct seeds.
  EXPECT_EQ(lab::cell_seed(42, 0), lab::cell_seed(42, 0));
  EXPECT_NE(lab::cell_seed(42, 0), lab::cell_seed(42, 1));
  EXPECT_NE(lab::cell_seed(42, 0), lab::cell_seed(43, 0));
}

TEST(Pipeline, ReplicateWorldsAreIndependent) {
  lab::ExperimentSpec spec;
  spec.scenario = "dumbbell/two_connections";
  spec.tuning = smoke_options();
  spec.replicates = 2;
  const auto report = lab::run_experiment(spec);
  const auto& first = report.cell(0, 0).table.column("avg throughput");
  const auto& second = report.cell(0, 1).table.column("avg throughput");
  ASSERT_EQ(first.size(), second.size());
  bool any_difference = false;
  for (std::size_t i = 0; i < first.size(); ++i) {
    any_difference |= first[i].outcome != second[i].outcome;
  }
  EXPECT_TRUE(any_difference) << "replicates reused the same seed";
}

TEST(Pipeline, TableLookupFailsWithClearError) {
  lab::ExperimentSpec spec;
  spec.scenario = "dumbbell/pacing";
  spec.tuning = smoke_options();
  const auto report = lab::run_experiment(spec);
  try {
    report.cell(0, 0).table.column("no such metric");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("no such metric"), std::string::npos) << message;
    EXPECT_NE(message.find("avg throughput"), std::string::npos) << message;
  }
}

TEST(Pipeline, PolicyScenariosRunEndToEndThroughEstimators) {
  // The acceptance seam of the policy layer: every policy-backed scenario
  // key runs one spec through the registry estimators unchanged, and the
  // analysis stage yields finite headline estimates.
  for (const char* name :
       {"paired_links/cap_50", "paired_links/drop_top",
        "paired_links/abr_swap", "paired_links/bba_vs_rate"}) {
    SCOPED_TRACE(name);
    lab::ExperimentSpec spec;
    spec.scenario = name;
    spec.tuning = smoke_options();
    spec.estimators = {"naive/ab", "paired_link/tte"};
    spec.seed = 11;
    const auto report = lab::run_experiment(spec);
    const auto& tte = report.estimates_for("paired_link/tte");
    const auto& row = tte.row("video bitrate/tte");
    ASSERT_FALSE(row.replicates.empty());
    EXPECT_TRUE(std::isfinite(row.effect().estimate));
    EXPECT_LE(row.effect().ci_low, row.effect().ci_high);
  }
}

}  // namespace
}  // namespace xp
