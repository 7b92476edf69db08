// Estimator registry + analysis stage: every registered estimator runs
// through the spec -> data -> estimate pipeline and is bit-for-bit
// identical at any thread count; unknown keys fail with a clear error
// naming the alternatives; ExperimentReport::cell rejects bad indices
// with the scenario name and the requested vs available shape; and
// gradual/contrast + core::sutva_tests tell a SUTVA world from a
// congested zero-sum one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/designs/gradual.h"
#include "core/estimator.h"
#include "lab/experiment.h"
#include "lab/registry.h"
#include "stats/rng.h"
#include "util/runner.h"

namespace xp {
namespace {

// ~1.25 simulated days of the paired-link week: enough for the day-based
// designs (switchback, event study) to have both arms while keeping the
// full 8-estimator sweep fast; the bootstrap is shrunk the same way.
lab::ExperimentSpec smoke_spec() {
  lab::ExperimentSpec spec;
  spec.scenario = "paired_links/experiment";
  spec.tuning.duration_scale = 0.25;
  spec.replicates = 2;
  spec.estimators = core::estimator_names();
  spec.seed = 7;
  spec.analysis.bootstrap_replicates = 80;
  return spec;
}

void expect_estimates_identical(const core::EstimateTable& a,
                                const core::EstimateTable& b) {
  EXPECT_EQ(a.estimator, b.estimator);
  ASSERT_EQ(a.names, b.names);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    const core::EstimateRow& x = a.rows[i];
    const core::EstimateRow& y = b.rows[i];
    SCOPED_TRACE(a.names[i]);
    EXPECT_EQ(x.metric, y.metric);
    EXPECT_EQ(x.label, y.label);
    EXPECT_EQ(x.estimand, y.estimand);
    EXPECT_EQ(x.allocation, y.allocation);
    ASSERT_EQ(x.replicates.size(), y.replicates.size());
    for (std::size_t r = 0; r < x.replicates.size(); ++r) {
      // Bit-for-bit, not approximately: the determinism contract.
      EXPECT_EQ(x.replicates[r].estimate, y.replicates[r].estimate);
      EXPECT_EQ(x.replicates[r].std_error, y.replicates[r].std_error);
      EXPECT_EQ(x.replicates[r].ci_low, y.replicates[r].ci_low);
      EXPECT_EQ(x.replicates[r].ci_high, y.replicates[r].ci_high);
      EXPECT_EQ(x.replicates[r].p_value, y.replicates[r].p_value);
      EXPECT_EQ(x.replicates[r].significant, y.replicates[r].significant);
      EXPECT_EQ(x.replicates[r].baseline, y.replicates[r].baseline);
    }
  }
}

// The paired smoke week is simulated + analyzed once at 1 thread and once
// at 4 and shared across the tests below.
class EstimatorPipeline : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    util::Runner serial(1);
    util::Runner pool(4);
    serial_report_ = new lab::ExperimentReport(
        lab::run_experiment(smoke_spec(), serial));
    pool_report_ =
        new lab::ExperimentReport(lab::run_experiment(smoke_spec(), pool));
  }
  static void TearDownTestSuite() {
    delete serial_report_;
    delete pool_report_;
    serial_report_ = nullptr;
    pool_report_ = nullptr;
  }
  static const lab::ExperimentReport& serial_report() {
    return *serial_report_;
  }
  static const lab::ExperimentReport& pool_report() { return *pool_report_; }

 private:
  static lab::ExperimentReport* serial_report_;
  static lab::ExperimentReport* pool_report_;
};

lab::ExperimentReport* EstimatorPipeline::serial_report_ = nullptr;
lab::ExperimentReport* EstimatorPipeline::pool_report_ = nullptr;

TEST(EstimatorRegistry, ListsTheBuiltinEstimators) {
  const auto names = core::estimator_names();
  for (const char* expected :
       {"naive/ab", "paired_link/tte", "paired_link/spillover",
        "switchback/tte", "event_study/tte", "gradual/contrast",
        "quantile/ladder", "aa/null"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing estimator: " << expected;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(EstimatorRegistry, UnknownNameFailsWithClearError) {
  try {
    core::make_estimator("no/such/estimator");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("unknown estimator"), std::string::npos)
        << message;
    EXPECT_NE(message.find("no/such/estimator"), std::string::npos)
        << message;
    // The error lists the registered estimators so the fix is obvious.
    EXPECT_NE(message.find("paired_link/tte"), std::string::npos) << message;
    EXPECT_NE(message.find("naive/ab"), std::string::npos) << message;
    EXPECT_NE(message.find("quantile/ladder"), std::string::npos) << message;
  }
}

TEST(EstimatorRegistry, DuplicateRegistrationThrows) {
  EXPECT_THROW(core::register_estimator(
                   "naive/ab",
                   []() -> std::unique_ptr<core::Estimator> {
                     return nullptr;
                   }),
               std::invalid_argument);
}

TEST(EstimatorRegistry, UnknownSpecKeyFailsBeforeSimulating) {
  lab::ExperimentSpec spec;
  spec.scenario = "paired_links/experiment";
  spec.estimators = {"paired_link/tte", "bogus/estimator"};
  EXPECT_THROW(lab::run_experiment(spec), std::invalid_argument);
}

TEST_F(EstimatorPipeline, EveryEstimatorIsBitIdenticalAcrossThreadCounts) {
  const lab::ExperimentSpec spec = smoke_spec();
  ASSERT_EQ(serial_report().estimates.size(), spec.estimators.size());
  ASSERT_EQ(pool_report().estimates.size(), spec.estimators.size());
  for (std::size_t e = 0; e < spec.estimators.size(); ++e) {
    SCOPED_TRACE(spec.estimators[e]);
    expect_estimates_identical(serial_report().estimates[e],
                               pool_report().estimates[e]);
    // Every estimator must actually answer: at least one row per metric,
    // one estimate per replicate world.
    const core::EstimateTable& table = serial_report().estimates[e];
    EXPECT_GE(table.rows.size(),
              serial_report().cells.front().table.metrics.size());
    for (const core::EstimateRow& row : table.rows) {
      EXPECT_EQ(row.replicates.size(), spec.replicates) << row.metric;
    }
  }
}

TEST_F(EstimatorPipeline, SerialEstimateMatchesThePipelineTable) {
  // The documented contract: Estimator::estimate with the pipeline's
  // estimator_seed reproduces the fanned-out table exactly.
  const lab::ExperimentSpec spec = smoke_spec();
  for (const char* key : {"paired_link/tte", "quantile/ladder"}) {
    SCOPED_TRACE(key);
    const auto it = std::find(spec.estimators.begin(),
                              spec.estimators.end(), key);
    ASSERT_NE(it, spec.estimators.end());
    const auto e =
        static_cast<std::size_t>(it - spec.estimators.begin());
    const auto estimator = core::make_estimator(key);
    core::EstimatorOptions options;
    options.analysis = spec.analysis;
    options.seed = lab::estimator_seed(spec.seed, e);
    expect_estimates_identical(
        serial_report().estimates[e],
        estimator->estimate(serial_report(), options));
  }
}

TEST_F(EstimatorPipeline, PairedWeekProducesTheHeadlineRows) {
  const lab::ExperimentReport& report = serial_report();

  const auto& tte = report.estimates_for("paired_link/tte");
  ASSERT_TRUE(tte.has_row("avg throughput/tte"));
  ASSERT_TRUE(tte.has_row("avg throughput/tte(account)"));
  const core::EstimateRow& row = tte.row("avg throughput/tte");
  EXPECT_EQ(row.estimand, core::Estimand::kTotalTreatmentEffect);
  EXPECT_EQ(row.allocation, 0.95);
  // The capped week moves throughput; the baseline cell mean is real.
  EXPECT_NE(row.effect().baseline, 0.0);
  const core::EstimateSpread spread = core::relative_spread(row);
  EXPECT_LE(spread.min, spread.mean);
  EXPECT_LE(spread.mean, spread.max);

  EXPECT_TRUE(report.estimates_for("naive/ab")
                  .has_row("avg throughput/tau(link1)"));
  EXPECT_TRUE(report.estimates_for("paired_link/spillover")
                  .has_row("avg throughput/spillover"));
  // 1.25 simulated days give the day-based designs both arms.
  EXPECT_NE(report.estimates_for("switchback/tte")
                .row("avg throughput/tte")
                .effect()
                .std_error,
            0.0);
  EXPECT_NE(report.estimates_for("event_study/tte")
                .row("avg throughput/tte")
                .effect()
                .std_error,
            0.0);
}

TEST_F(EstimatorPipeline, EstimateTableLookupFailsWithClearError) {
  const lab::ExperimentReport& report = serial_report();
  try {
    report.estimates_for("not/registered");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("not/registered"), std::string::npos) << message;
    EXPECT_NE(message.find("paired_link/tte"), std::string::npos) << message;
  }
  try {
    report.estimates_for("paired_link/tte").row("no such row");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("no such row"), std::string::npos) << message;
    EXPECT_NE(message.find("avg throughput/tte"), std::string::npos)
        << message;
  }
}

// --- Row shapes of every built-in estimator on hand-built reports ---

/// Two days of hourly rows for one world. Paired worlds put a mostly-
/// treated link (group 0) next to a mostly-control one (group 1); single-
/// group worlds treat accounts with probability `allocation`.
core::ObservationTable shape_world(bool paired, double allocation,
                                   std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<core::Observation> rows;
  std::uint64_t unit = 0;
  for (std::uint64_t hour = 0; hour < 48; ++hour) {
    for (std::uint8_t group = 0; group < (paired ? 2 : 1); ++group) {
      for (std::uint64_t account = 0; account < 8; ++account) {
        core::Observation row;
        row.unit = unit++;
        row.account = group * 100 + account;
        row.treated = paired ? (account % 4 == 0) == (group == 1)
                             : rng.bernoulli(allocation);
        row.outcome = 10.0 + (row.treated ? 1.0 : 0.0) + rng.normal(0.0, 1.0);
        row.hour_of_day = static_cast<std::uint32_t>(hour % 24);
        row.hour_index = hour;
        row.day = static_cast<std::uint32_t>(hour / 24);
        row.group = group;
        rows.push_back(row);
      }
    }
  }
  core::ObservationTable table;
  table.add_column("outcome", std::move(rows));
  return table;
}

core::ExperimentReport shape_report(std::vector<double> allocations,
                                    bool paired) {
  core::ExperimentReport report;
  report.scenario = "hand/built";
  report.allocations = std::move(allocations);
  report.replicates = 2;
  for (std::size_t a = 0; a < report.allocations.size(); ++a) {
    for (std::size_t r = 0; r < report.replicates; ++r) {
      core::ExperimentCell cell;
      cell.allocation = report.allocations[a];
      cell.replicate = r;
      cell.seed = 1000 + a * 10 + r;
      cell.table = shape_world(paired, cell.allocation, cell.seed);
      report.cells.push_back(std::move(cell));
    }
  }
  return report;
}

/// "<row key> <estimand> @<allocation> x<replicates>", one per row.
std::vector<std::string> row_shapes(const core::EstimateTable& table) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < table.rows.size(); ++i) {
    const core::EstimateRow& row = table.rows[i];
    out.push_back(table.names[i] + " " + core::estimand_name(row.estimand) +
                  " @" + std::to_string(row.allocation) + " x" +
                  std::to_string(row.replicates.size()));
  }
  return out;
}

TEST(EstimatorShapes, EveryBuiltinKeepsItsRowsOnHandBuiltReports) {
  // A paired two-allocation sweep whose first cell failed: row labels
  // anchor on the first usable replicate, every row carries the @<p>
  // suffix, and the failed world is a null replicate in its rows.
  core::ExperimentReport paired = shape_report({0.25, 0.75}, true);
  paired.cells[0].status.state = core::CellState::kFailed;
  paired.cells[0].table = core::ObservationTable{};
  // A single-group sweep whose p = 0 step has no treated row: naive/ab
  // skips it, gradual/contrast reads it as the baseline world.
  const core::ExperimentReport single = shape_report({0.0, 0.5}, false);
  // Every cell failed: no metric to name rows after.
  core::ExperimentReport failed = shape_report({0.5}, true);
  for (core::ExperimentCell& cell : failed.cells) {
    cell.status.state = core::CellState::kFailed;
    cell.table = core::ObservationTable{};
  }

  const auto at = [](const char* key, const char* estimand, double p) {
    return std::string("outcome/") + key + " " + estimand + " @" +
           std::to_string(p) + " x2";
  };
  struct Expected {
    const char* key;
    std::vector<std::string> paired;
    std::vector<std::string> single;
  };
  const std::vector<Expected> expected = {
      {"naive/ab",
       {at("tau(link1)@0.25", "tau(p)", 0.25),
        at("tau(link2)@0.25", "tau(p)", 0.25),
        at("tau(link1)@0.75", "tau(p)", 0.75),
        at("tau(link2)@0.75", "tau(p)", 0.75)},
       {at("tau@0.5", "tau(p)", 0.5)}},
      {"paired_link/tte",
       {at("tte@0.25", "TTE", 0.25), at("tte(account)@0.25", "TTE", 0.25),
        at("tte@0.75", "TTE", 0.75), at("tte(account)@0.75", "TTE", 0.75)},
       {at("tte@0", "TTE", 0.0), at("tte(account)@0", "TTE", 0.0),
        at("tte@0.5", "TTE", 0.5), at("tte(account)@0.5", "TTE", 0.5)}},
      {"paired_link/spillover",
       {at("spillover@0.25", "spillover", 0.25),
        at("spillover@0.75", "spillover", 0.75)},
       {at("spillover@0", "spillover", 0.0),
        at("spillover@0.5", "spillover", 0.5)}},
      {"switchback/tte",
       {at("tte@0.25", "TTE", 0.25), at("tte@0.75", "TTE", 0.75)},
       {at("tte@0", "TTE", 0.0), at("tte@0.5", "TTE", 0.5)}},
      {"event_study/tte",
       {at("tte@0.25", "TTE", 0.25), at("tte@0.75", "TTE", 0.75)},
       {at("tte@0", "TTE", 0.0), at("tte@0.5", "TTE", 0.5)}},
      {"gradual/contrast",
       {at("tte", "TTE", 0.75), at("tau@0.25", "tau(p)", 0.25),
        at("tau@0.75", "tau(p)", 0.75),
        at("spillover@0.75", "spillover", 0.75)},
       {at("tte", "TTE", 0.5), at("tau@0.5", "tau(p)", 0.5),
        at("spillover@0.5", "spillover", 0.5)}},
      {"quantile/ladder",
       {at("p50@0.25", "TTE", 0.25), at("p90@0.25", "TTE", 0.25),
        at("p99@0.25", "TTE", 0.25), at("p50@0.75", "TTE", 0.75),
        at("p90@0.75", "TTE", 0.75), at("p99@0.75", "TTE", 0.75)},
       {at("p50@0", "tau(p)", 0.0), at("p90@0", "tau(p)", 0.0),
        at("p99@0", "tau(p)", 0.0), at("p50@0.5", "tau(p)", 0.5),
        at("p90@0.5", "tau(p)", 0.5), at("p99@0.5", "tau(p)", 0.5)}},
      {"aa/null",
       {at("link_diff@0.25", "tau(p)", 0.25),
        at("link_diff@0.75", "tau(p)", 0.75)},
       {at("arm_diff@0", "tau(p)", 0.0), at("arm_diff@0.5", "tau(p)", 0.5)}},
      {"guardrail/srm",
       {at("srm@0.25", "tau(p)", 0.25), at("srm@0.75", "tau(p)", 0.75)},
       {at("srm@0", "tau(p)", 0.0), at("srm@0.5", "tau(p)", 0.5)}},
  };
  ASSERT_EQ(expected.size(), core::estimator_names().size());

  for (const Expected& e : expected) {
    SCOPED_TRACE(e.key);
    const auto estimator = core::make_estimator(e.key);
    const core::EstimateTable paired_table = estimator->estimate(paired);
    EXPECT_EQ(row_shapes(paired_table), e.paired);
    EXPECT_EQ(row_shapes(estimator->estimate(single)), e.single);
    const core::EstimateTable none = estimator->estimate(failed);
    EXPECT_EQ(none.estimator, e.key);
    EXPECT_TRUE(none.rows.empty());
    EXPECT_TRUE(estimator->estimate_metric(failed, "outcome", {}).empty());
    // The failed world is a null replicate wherever it is read.
    for (const core::EstimateRow& row : paired_table.rows) {
      if (row.allocation != 0.25) continue;
      EXPECT_EQ(row.replicates[0].estimate, 0.0) << row.label;
      EXPECT_EQ(row.replicates[0].p_value, 1.0) << row.label;
      EXPECT_FALSE(row.replicates[0].significant) << row.label;
    }
  }
}

TEST(EstimateTableUnit, DuplicateRowKeysAreRejected) {
  core::EstimateTable table;
  core::EstimateRow row;
  row.metric = "avg throughput";
  row.label = "tau@0.5";
  row.replicates.push_back(core::EffectEstimate{});
  table.add_row(row);
  EXPECT_THROW(table.add_row(row), std::invalid_argument);
}

TEST(Report, CellRangeErrorsNameTheScenarioAndShape) {
  lab::ExperimentSpec spec;
  spec.scenario = "dumbbell/pacing";
  spec.tuning.duration_scale = 0.04;
  spec.replicates = 2;
  const auto report = lab::run_experiment(spec);

  EXPECT_NO_THROW(report.cell(0, 1));
  try {
    report.cell(1, 5);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("dumbbell/pacing"), std::string::npos) << message;
    EXPECT_NE(message.find("allocation 1"), std::string::npos) << message;
    EXPECT_NE(message.find("replicate 5"), std::string::npos) << message;
    EXPECT_NE(message.find("1 allocation(s)"), std::string::npos) << message;
    EXPECT_NE(message.find("2 replicate(s)"), std::string::npos) << message;
  }
}

// --- Gradual deployment on synthetic worlds (Section 5.1) ---

enum class World { kSutva, kZeroSum };

/// 4000 units at allocation p, pure in (allocation, seed). The SUTVA
/// world adds a constant effect of 5 with no interference; the zero-sum
/// world is a congested link in miniature — treated units claim twice the
/// share of a fixed total, so they gain exactly what the controls lose
/// (the parallel-connections phenomenon).
class SyntheticWorld final : public core::DataSource {
 public:
  SyntheticWorld(std::string name, World world)
      : name_(std::move(name)), world_(world) {}

  std::string_view name() const noexcept override { return name_; }
  double default_allocation() const noexcept override { return 0.5; }

  core::ObservationTable run(double allocation,
                             std::uint64_t seed) const override {
    stats::Rng rng(seed);
    const std::size_t n = 4000;
    std::vector<core::Observation> rows(n);
    double share_total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      rows[i].unit = i;
      rows[i].account = i;
      rows[i].treated = rng.bernoulli(allocation);
      share_total += rows[i].treated ? 2.0 : 1.0;
    }
    for (core::Observation& row : rows) {
      row.outcome =
          world_ == World::kSutva
              ? 50.0 + (row.treated ? 5.0 : 0.0) + rng.normal(0.0, 3.0)
              : 1000.0 * static_cast<double>(n) *
                        (row.treated ? 2.0 : 1.0) / share_total +
                    rng.normal(0.0, 20.0);
    }
    core::ObservationTable table;
    table.add_column("outcome", std::move(rows));
    return table;
  }

 private:
  std::string name_;
  World world_;
};

/// A gradual ramp over one synthetic world: p = 0 is the pre-deployment
/// baseline world that anchors mu_C(0).
core::EstimateTable gradual_ramp(const char* scenario) {
  static const bool registered = [] {
    const auto add = [](const char* name, World world) {
      lab::register_scenario(name, [name, world](const lab::SourceOptions&) {
        return std::make_unique<SyntheticWorld>(name, world);
      });
    };
    add("test/sutva_world", World::kSutva);
    add("test/zero_sum_world", World::kZeroSum);
    return true;
  }();
  (void)registered;
  lab::ExperimentSpec spec;
  spec.scenario = scenario;
  spec.allocations = {0.0, 0.1, 0.5, 0.9};
  spec.estimators = {"gradual/contrast"};
  spec.seed = 1;
  return lab::run_experiment(spec).estimates_for("gradual/contrast");
}

TEST(Gradual, SutvaWorldShowsNoInterference) {
  const core::EstimateTable table = gradual_ramp("test/sutva_world");
  for (const char* p : {"@0.1", "@0.5", "@0.9"}) {
    SCOPED_TRACE(p);
    EXPECT_NEAR(table.row(std::string("outcome/tau") + p).effect().estimate,
                5.0, 0.6);
  }
  EXPECT_NEAR(table.row("outcome/tte").effect().estimate, 5.0, 0.6);
  EXPECT_FALSE(core::sutva_tests(table, "outcome").interference_detected);
}

TEST(Gradual, ZeroSumWorldDetectsInterference) {
  const core::EstimateTable table = gradual_ramp("test/zero_sum_world");
  // The A/B effect looks big at every allocation...
  for (const char* p : {"@0.1", "@0.5", "@0.9"}) {
    SCOPED_TRACE(p);
    EXPECT_GT(table.row(std::string("outcome/tau") + p).effect().estimate,
              200.0);
  }
  // ...but the true TTE is ~0 and spillover is negative and significant.
  // (The ramp tops out at p=0.9, where mu_T = 2/(1.9) of baseline, so the
  // top-step TTE legitimately sits ~5% above zero.)
  EXPECT_NEAR(table.row("outcome/tte").effect().relative(), 0.0, 0.07);
  const core::SutvaTests tests = core::sutva_tests(table, "outcome");
  EXPECT_TRUE(tests.interference_detected);
  EXPECT_GT(tests.significant_spillovers, 0u);
  // tau(p) shrinks as p grows: 2C/n winners dilute.
  EXPECT_GT(table.row("outcome/tau@0.1").effect().estimate,
            table.row("outcome/tau@0.9").effect().estimate);
}

}  // namespace
}  // namespace xp
