#include "core/estimator.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <utility>

#include "util/string_registry.h"
#include "core/aa_test.h"
#include "core/data_quality.h"
#include "core/designs/event_study.h"
#include "core/designs/paired_link.h"
#include "core/designs/switchback.h"
#include "core/quantile_effects.h"
#include "core/session_metrics.h"
#include "stats/distributions.h"
#include "stats/rng.h"
#include "stats/ttest.h"

namespace xp::core {

namespace {

using Rows = std::span<const Observation>;

// ------------------------------------------------------------ row guards ----
//
// Each guard mirrors the precondition of the analysis it fronts; a failed
// guard (or a numerical failure inside the analysis) yields a null
// EffectEstimate instead of aborting the whole report.

bool both_arms(Rows rows, std::size_t min_per_arm) {
  std::size_t treated = 0, control = 0;
  for (const Observation& row : rows) {
    (row.treated ? treated : control) += 1;
    if (treated >= min_per_arm && control >= min_per_arm) return true;
  }
  return false;
}

/// hourly_fe_analysis needs >= 4 (hour, arm) cells, both arms present,
/// and more cells than regression parameters (intercept + arm + the
/// hour-of-day dummies minus the dropped base level).
bool hourly_ok(Rows rows) {
  std::set<std::pair<std::uint64_t, bool>> cells;
  std::set<std::uint32_t> hours_of_day;
  bool treated_seen = false, control_seen = false;
  for (const Observation& row : rows) {
    cells.insert({row.hour_index, row.treated});
    hours_of_day.insert(row.hour_of_day);
    (row.treated ? treated_seen : control_seen) = true;
  }
  return treated_seen && control_seen && cells.size() >= 4 &&
         cells.size() > hours_of_day.size() + 1;
}

/// account_level_analysis needs >= 2 distinct accounts per arm.
bool accounts_ok(Rows rows) {
  std::set<std::uint64_t> treated, control;
  for (const Observation& row : rows) {
    (row.treated ? treated : control).insert(row.account);
    if (treated.size() >= 2 && control.size() >= 2) return true;
  }
  return false;
}

/// Run `analyze` with the degenerate-input contract: a failed guard, a
/// numerical failure (singular design, too few cells), or a non-finite
/// result (an all-NaN metric column from corrupted telemetry) becomes a
/// null estimate. Guards catch the common cases cheaply; the catch and
/// the finiteness check are the backstop for
/// pathological-but-deterministic inputs.
template <typename Guard, typename Analyze>
EffectEstimate guarded(const Guard& guard, const Analyze& analyze) {
  if (!guard()) return EffectEstimate{};
  try {
    const EffectEstimate estimate = analyze();
    if (!std::isfinite(estimate.estimate)) return EffectEstimate{};
    return estimate;
  } catch (const std::exception&) {
    return EffectEstimate{};
  }
}

// ----------------------------------------------------------- data shapes ----

bool two_groups(Rows rows) {
  bool g0 = false, g1 = false;
  for (const Observation& row : rows) {
    (row.group == 0 ? g0 : g1) = true;
    if (g0 && g1) return true;
  }
  return false;
}

/// The global control condition of the paired design: mean outcome of the
/// control cell on the mostly-control link (group 1).
double paired_baseline(Rows rows) {
  double sum = 0.0;
  double weight = 0.0;
  for (const Observation& row : rows) {
    if (row.group == 1 && !row.treated && std::isfinite(row.outcome)) {
      sum += row.weight * row.outcome;
      weight += row.weight;
    }
  }
  return weight == 0.0 ? 0.0 : sum / weight;
}

std::uint32_t day_count(Rows rows) {
  std::uint32_t max_day = 0;
  if (rows.empty()) return 0;
  for (const Observation& row : rows) max_day = std::max(max_day, row.day);
  return max_day + 1;
}

/// Shortest round-trip formatting (std::to_chars), not a fixed
/// precision: distinct allocations must yield distinct row keys (with
/// "%.2f", 0.051 and 0.049 would both collide into "@0.05" and trip
/// EstimateTable's duplicate-key rejection).
std::string allocation_label(double allocation) {
  char buffer[32];
  const auto result =
      std::to_chars(buffer, buffer + sizeof(buffer), allocation);
  return "@" + std::string(buffer, result.ptr);
}

std::string allocation_suffix(const ExperimentReport& report,
                              std::size_t allocation_index) {
  if (report.allocations.size() <= 1) return "";
  return allocation_label(report.allocations[allocation_index]);
}

/// Rows of one cell's metric column — empty for cells that are not OK
/// (failed, skipped, or quality-held worlds have no usable table), which
/// flows through every row guard as "too thin" and yields a null
/// estimate for that replicate without touching the survivors.
Rows metric_column(const ExperimentReport& report, std::size_t a,
                   std::size_t r, std::string_view metric) {
  const ExperimentCell& cell = report.cell(a, r);
  if (!cell.status.ok()) return {};
  return cell.table.column(metric);
}

/// The first usable replicate's rows of an allocation — the anchor for
/// data-shape detection (paired vs single-group). Anchoring on the first
/// *usable* replicate rather than replicate 0 keeps row labels (and thus
/// the surviving estimates) identical whether or not replicate 0 failed.
Rows first_usable_rows(const ExperimentReport& report, std::size_t a,
                       std::string_view metric) {
  for (std::size_t r = 0; r < report.replicates; ++r) {
    const Rows rows = metric_column(report, a, r, metric);
    if (!rows.empty()) return rows;
  }
  return {};
}

/// True when any replicate world of allocation `a` has a treated row.
/// Checked across every replicate, not just the first: under per-session
/// probabilistic assignment a single replicate can draw zero treated
/// units without the allocation being a baseline step.
bool any_treated(const ExperimentReport& report, std::size_t a,
                 std::string_view metric) {
  for (std::size_t r = 0; r < report.replicates; ++r) {
    for (const Observation& row : metric_column(report, a, r, metric)) {
      if (row.treated) return true;
    }
  }
  return false;
}

/// Build one row by analyzing every replicate world of one allocation
/// independently: analyze(r) -> the estimate from replicate r alone.
template <typename Analyze>
EstimateRow replicate_row(const ExperimentReport& report, std::size_t a,
                          std::string_view metric, std::string label,
                          Estimand estimand, const Analyze& analyze) {
  EstimateRow row;
  row.metric = std::string(metric);
  row.label = std::move(label);
  row.estimand = estimand;
  row.allocation = report.allocations[a];
  row.replicates.reserve(report.replicates);
  for (std::size_t r = 0; r < report.replicates; ++r) {
    row.replicates.push_back(analyze(r));
  }
  return row;
}

// --------------------------------------------------------------- adapters ----

/// Shared front door of every built-in estimator: a metric absent from
/// the report's tables is a caller error and throws (naming the available
/// metric columns, the registry convention), while a report with no OK
/// cell at all degrades to zero rows — there is no data to name rows
/// after, let alone analyze. True when there are rows to compute.
bool has_rows(const ExperimentReport& report, std::string_view metric) {
  const ExperimentCell* first_ok = report.first_ok_cell();
  if (first_ok == nullptr) return false;
  // Throws std::invalid_argument listing the available metric columns
  // on a miss — never a silent null row for a misspelled metric.
  (void)first_ok->table.column(metric);
  return true;
}

// ------------------------------------------------------- per-cell reads ----
//
// Most designs read each replicate world on its own. Such a design is a
// read function over one cell plus its fixed row labels; PerCellEstimator
// owns the allocation x replicate loop around it.

/// What a per-cell read sees of one replicate world.
struct CellInput {
  const ExperimentCell& cell;
  /// The cell's metric column; empty unless the cell is OK, which flows
  /// through every row guard as "too thin" and yields null estimates.
  Rows rows;
  /// The allocation's data shape (two link groups, or one), anchored on
  /// its first usable replicate so a failed replicate 0 changes no label.
  bool paired;
  /// Resampling seed of this (allocation, replicate).
  std::uint64_t seed;
  const AnalysisOptions& analysis;
};

/// One estimate per label of the read's shape, in label order.
using CellRead = std::vector<EffectEstimate> (*)(const CellInput&);

struct Label {
  const char* text;
  Estimand estimand;
};

struct PerCellDesign {
  const char* name;  ///< the registry key
  std::vector<Label> paired_labels;
  /// Labels on single-group data; empty means the paired labels.
  std::vector<Label> single_labels;
  CellRead read;
  /// Skip allocations where no replicate has a treated row (a p ~ 0
  /// baseline step has no A/B contrast to read) instead of null rows.
  bool needs_treated = false;
};

/// Account-level Welch on the rows as labeled.
EffectEstimate account_read(Rows rows, const AnalysisOptions& analysis) {
  return guarded([&] { return accounts_ok(rows); },
                 [&] { return account_level_analysis(rows, analysis); });
}

/// The hourly FE + Newey-West pipeline over already-built observations.
EffectEstimate hourly_read(Rows obs, const AnalysisOptions& analysis) {
  return guarded([&] { return hourly_ok(obs); },
                 [&] { return hourly_fe_analysis(obs, analysis); });
}

/// The analysis options normalized by the paired global control cell.
AnalysisOptions paired_normalized(const CellInput& in) {
  AnalysisOptions analysis = in.analysis;
  analysis.baseline_override = paired_baseline(in.rows);
  return analysis;
}

/// naive/ab — the read every practitioner starts with: account-level
/// Welch within each arm's own link. On paired data, one row per link
/// (tau(link1) is the mostly-treated read, tau(link2) the mostly-control
/// one), both normalized by the global control cell; on single-group
/// data, one pooled "tau" row.
std::vector<EffectEstimate> read_naive_ab(const CellInput& in) {
  if (!in.paired) return {account_read(in.rows, in.analysis)};
  const AnalysisOptions analysis = paired_normalized(in);
  std::vector<EffectEstimate> out;
  for (int link = 0; link < 2; ++link) {
    RowFilter filter;
    filter.link = link;
    out.push_back(account_read(select(in.rows, filter), analysis));
  }
  return out;
}

/// paired_link/tte — the cross-link contrast (treated on the mostly-
/// treated link vs control on the mostly-control link), read twice:
/// "tte" through the conservative hourly FE + Newey-West pipeline (the
/// paper's default) and "tte(account)" through the account-level Welch
/// read — the Figure 13 aggregation comparison.
std::vector<EffectEstimate> read_paired_tte(const CellInput& in) {
  const auto contrast = tte_contrast(in.rows);
  const AnalysisOptions analysis = paired_normalized(in);
  return {hourly_read(contrast, analysis), account_read(contrast, analysis)};
}

/// paired_link/spillover — s(p): control units on the mostly-treated
/// link vs control units on the mostly-control link, hourly FE pipeline.
std::vector<EffectEstimate> read_spillover(const CellInput& in) {
  RowFilter exposed;
  exposed.link = 0;
  exposed.treated = 0;
  RowFilter control;
  control.link = 1;
  control.treated = 0;
  return {hourly_read(cross_cell_contrast(in.rows, exposed, control),
                      paired_normalized(in))};
}

/// switchback/tte — the emulated switchback of Section 5.3: alternating
/// daily intervals (days 1, 3, 5... treated) over however many days the
/// data covers, analyzed with the hourly FE pipeline. Normalized by the
/// paired global control cell when the data is paired.
std::vector<EffectEstimate> read_switchback(const CellInput& in) {
  const std::uint32_t days = day_count(in.rows);
  if (days < 2) return {EffectEstimate{}};
  SwitchbackOptions sb;
  sb.analysis = paired_normalized(in);
  sb.day_treated.resize(days);
  for (std::uint32_t d = 0; d < days; ++d) sb.day_treated[d] = d % 2 == 0;
  return {hourly_read(switchback_observations(in.rows, sb), sb.analysis)};
}

/// event_study/tte — the emulated deployment-day event study: control
/// link data before the mid-horizon switch day, treated link data after,
/// hourly FE pipeline. The design the paper shows to be seasonally
/// biased.
std::vector<EffectEstimate> read_event_study(const CellInput& in) {
  const std::uint32_t days = day_count(in.rows);
  if (days < 2) return {EffectEstimate{}};
  EventStudyOptions es;
  es.analysis = paired_normalized(in);
  es.switch_day = (days + 1) / 2;  // "between Thursday and Friday"
  return {hourly_read(event_study_observations(in.rows, es), es.analysis)};
}

/// quantile/ladder — p50/p90/p99 quantile treatment effects with
/// percentile-bootstrap intervals. On paired data the ladder runs over
/// the TTE contrast (the Figure 9 pairing); otherwise over the rows as
/// labeled. quantile_effect_ladder derives its per-rung streams from the
/// cell's seed, so the ladder is reproducible at any thread count.
constexpr double kLadderQuantiles[] = {0.5, 0.9, 0.99};

std::vector<EffectEstimate> read_quantile_ladder(const CellInput& in) {
  std::vector<Observation> contrast =
      in.paired ? tte_contrast(in.rows)
                : std::vector<Observation>(in.rows.begin(), in.rows.end());
  // Quantiles have no aggregation step to hide behind: drop corrupted
  // (non-finite) outcomes here, like the regression pipelines do in
  // aggregate_hourly.
  std::erase_if(contrast, [](const Observation& row) {
    return !std::isfinite(row.outcome);
  });
  QuantileEffectOptions ladder_options;
  ladder_options.confidence_level = in.analysis.confidence_level;
  ladder_options.bootstrap_replicates = in.analysis.bootstrap_replicates;
  ladder_options.seed = in.seed;
  // A failed guard nulls every rung of this replicate.
  std::vector<EffectEstimate> out(std::size(kLadderQuantiles));
  if (!both_arms(contrast, 10)) return out;
  try {
    const auto ladder =
        quantile_effect_ladder(contrast, kLadderQuantiles, ladder_options);
    for (std::size_t q = 0; q < out.size(); ++q) {
      // Same finiteness backstop as guarded(): an all-NaN column yields
      // NaN quantiles without throwing, which must null out.
      if (std::isfinite(ladder[q].effect.estimate)) out[q] = ladder[q].effect;
    }
  } catch (const std::exception&) {
  }
  return out;
}

/// aa/null — the A/A calibration read (Section 4.1): on paired data, the
/// link-similarity difference (control rows of link 1 vs control rows of
/// link 2 through the hourly FE pipeline — significant rows are
/// pre-existing imbalances); on single-group data, the as-labeled
/// account-level difference. Either way the expected answer is "null".
std::vector<EffectEstimate> read_aa_null(const CellInput& in) {
  if (!in.paired) return {account_read(in.rows, in.analysis)};
  return {hourly_read(aa_link_contrast(in.rows), in.analysis)};
}

/// guardrail/srm — the sample-ratio-mismatch check as first-class
/// estimate rows, one per allocation: estimate = observed - intended
/// treated fraction, p-value from the 1-df chi-square, significant iff
/// the guardrail tripped. On healthy worlds every row is null-ish
/// (p ~ 1); a significant row means the cell's assignment or telemetry
/// is broken and its other estimates should not be believed. Reads the
/// DataQualityReport the pipeline attached to each cell, recomputing
/// against the raw allocation for hand-built reports that never ran
/// through run_experiment.
std::vector<EffectEstimate> read_srm(const CellInput& in) {
  const ExperimentCell& cell = in.cell;
  if (!cell.status.ok()) return {EffectEstimate{}};
  const DataQualityReport quality =
      cell.quality.computed ? cell.quality
                            : assess_quality(cell.table, cell.allocation);
  if (quality.rows == 0) return {EffectEstimate{}};
  const double f = quality.intended_treated_fraction;
  const auto n = static_cast<double>(quality.rows);
  EffectEstimate estimate;
  estimate.estimate = quality.observed_treated_fraction - f;
  estimate.baseline = f;
  estimate.std_error = std::sqrt(std::max(0.0, f * (1.0 - f)) / n);
  const double z = stats::normal_inv(0.5 + in.analysis.confidence_level / 2.0);
  estimate.ci_low = estimate.estimate - z * estimate.std_error;
  estimate.ci_high = estimate.estimate + z * estimate.std_error;
  estimate.p_value = quality.srm_p_value;
  estimate.significant = quality.srm_flag;
  return {estimate};
}

/// The allocation x replicate loop every per-cell design shares: per
/// allocation, anchor the data shape, read each replicate world with its
/// own resampling substream, and transpose the reads into one row per
/// label ("@<allocation>"-suffixed on sweeps).
class PerCellEstimator final : public Estimator {
 public:
  /// `design` must outlive the estimator (the registry's are static).
  explicit PerCellEstimator(const PerCellDesign& design) : design_(design) {}

  std::string_view name() const noexcept override { return design_.name; }

  std::vector<EstimateRow> estimate_metric(
      const ExperimentReport& report, std::string_view metric,
      const EstimatorOptions& options) const override {
    std::vector<EstimateRow> out;
    if (!has_rows(report, metric)) return out;
    for (std::size_t a = 0; a < report.allocations.size(); ++a) {
      if (design_.needs_treated && !any_treated(report, a, metric)) continue;
      const bool paired = two_groups(first_usable_rows(report, a, metric));
      const std::vector<Label>& labels =
          paired || design_.single_labels.empty() ? design_.paired_labels
                                                  : design_.single_labels;
      const std::string suffix = allocation_suffix(report, a);
      const std::size_t first = out.size();
      for (const Label& label : labels) {
        EstimateRow& row = out.emplace_back();
        row.metric = std::string(metric);
        row.label = label.text + suffix;
        row.estimand = label.estimand;
        row.allocation = report.allocations[a];
        row.replicates.reserve(report.replicates);
      }
      for (std::size_t r = 0; r < report.replicates; ++r) {
        const CellInput in{
            report.cell(a, r), metric_column(report, a, r, metric), paired,
            stats::substream_seed(options.seed, a * 8192 + r),
            options.analysis};
        const std::vector<EffectEstimate> reads = design_.read(in);
        for (std::size_t q = 0; q < labels.size(); ++q) {
          out[first + q].replicates.push_back(reads[q]);
        }
      }
    }
    return out;
  }

 private:
  const PerCellDesign& design_;
};

/// gradual/contrast — gradual deployments as measurement instruments
/// (Section 5.1) read off an allocation sweep: a within-step tau at every
/// allocation, the spillover of each step's control arm against the
/// lowest-allocation control world, and the cross-allocation TTE
/// (treated at the highest allocation vs control at the lowest). All
/// Welch on raw outcomes; core::sutva_tests reads the SUTVA battery off
/// these rows.
class GradualContrastEstimator final : public Estimator {
 public:
  std::string_view name() const noexcept override {
    return "gradual/contrast";
  }

  std::vector<EstimateRow> estimate_metric(
      const ExperimentReport& report, std::string_view metric,
      const EstimatorOptions& options) const override {
    if (!has_rows(report, metric) || report.allocations.empty()) return {};
    const std::size_t a_min = static_cast<std::size_t>(
        std::min_element(report.allocations.begin(),
                         report.allocations.end()) -
        report.allocations.begin());
    const std::size_t a_max = static_cast<std::size_t>(
        std::max_element(report.allocations.begin(),
                         report.allocations.end()) -
        report.allocations.begin());

    const auto arm_outcomes = [&](std::size_t a, std::size_t r,
                                  bool treated) {
      std::vector<double> out;
      for (const Observation& row : metric_column(report, a, r, metric)) {
        if (row.treated == treated && std::isfinite(row.outcome)) {
          out.push_back(row.outcome);
        }
      }
      return out;
    };
    const auto welch = [&](const std::vector<double>& lhs,
                           const std::vector<double>& rhs,
                           double baseline) {
      return guarded(
          [&] { return lhs.size() >= 2 && rhs.size() >= 2; },
          [&] {
            const stats::TTestResult t = stats::welch_t_test(
                lhs, rhs, options.analysis.confidence_level);
            EffectEstimate e;
            e.estimate = t.estimate;
            e.std_error = t.std_error;
            e.ci_low = t.ci_low;
            e.ci_high = t.ci_high;
            e.p_value = t.p_value;
            e.significant = t.significant;
            e.baseline = baseline;
            return e;
          });
    };
    // The lowest-allocation control arm feeds mu_C(0) and every contrast
    // below; extract it once per replicate instead of per row.
    std::vector<std::vector<double>> base_control(report.replicates);
    std::vector<double> base_mean(report.replicates, 0.0);
    for (std::size_t r = 0; r < report.replicates; ++r) {
      base_control[r] = arm_outcomes(a_min, r, false);
      double sum = 0.0;
      for (double x : base_control[r]) sum += x;
      if (!base_control[r].empty()) {
        base_mean[r] = sum / static_cast<double>(base_control[r].size());
      }
    }

    // A p ~ 0 lowest step is the pre-deployment baseline world: it feeds
    // mu_C(0) but has no within-step A/B contrast of its own.
    const bool baseline_step = !any_treated(report, a_min, metric);

    std::vector<EstimateRow> out;
    out.push_back(replicate_row(
        report, a_max, metric, "tte", Estimand::kTotalTreatmentEffect,
        [&](std::size_t r) {
          return welch(arm_outcomes(a_max, r, true), base_control[r],
                       base_mean[r]);
        }));
    for (std::size_t a = 0; a < report.allocations.size(); ++a) {
      if (a == a_min && baseline_step) continue;
      const std::string suffix = allocation_label(report.allocations[a]);
      out.push_back(replicate_row(
          report, a, metric, "tau" + suffix,
          Estimand::kAverageTreatmentEffect, [&](std::size_t r) {
            return welch(arm_outcomes(a, r, true),
                         arm_outcomes(a, r, false), base_mean[r]);
          }));
      if (a == a_min) continue;
      out.push_back(replicate_row(
          report, a, metric, "spillover" + suffix, Estimand::kSpillover,
          [&](std::size_t r) {
            return welch(arm_outcomes(a, r, false), base_control[r],
                         base_mean[r]);
          }));
    }
    return out;
  }
};

// --------------------------------------------------------------- registry ----

void install_builtins(std::map<std::string, EstimatorFactory>& reg) {
  constexpr Estimand kAte = Estimand::kAverageTreatmentEffect;
  constexpr Estimand kTte = Estimand::kTotalTreatmentEffect;
  // Static, so making an estimator copies no design: one line per key.
  static const PerCellDesign kDesigns[] = {
      {"naive/ab", {{"tau(link1)", kAte}, {"tau(link2)", kAte}},
       {{"tau", kAte}}, read_naive_ab, true},
      {"paired_link/tte", {{"tte", kTte}, {"tte(account)", kTte}}, {},
       read_paired_tte},
      {"paired_link/spillover", {{"spillover", Estimand::kSpillover}}, {},
       read_spillover},
      {"switchback/tte", {{"tte", kTte}}, {}, read_switchback},
      {"event_study/tte", {{"tte", kTte}}, {}, read_event_study},
      {"quantile/ladder", {{"p50", kTte}, {"p90", kTte}, {"p99", kTte}},
       {{"p50", kAte}, {"p90", kAte}, {"p99", kAte}}, read_quantile_ladder},
      {"aa/null", {{"link_diff", kAte}}, {{"arm_diff", kAte}}, read_aa_null},
      {"guardrail/srm", {{"srm", kAte}}, {}, read_srm},
  };
  for (const PerCellDesign& design : kDesigns) {
    reg.emplace(design.name, [&design]() -> std::unique_ptr<Estimator> {
      return std::make_unique<PerCellEstimator>(design);
    });
  }
  reg.emplace("gradual/contrast", []() -> std::unique_ptr<Estimator> {
    return std::make_unique<GradualContrastEstimator>();
  });
}

util::StringRegistry<EstimatorFactory>& registry() {
  static util::StringRegistry<EstimatorFactory> instance("estimator",
                                                           install_builtins);
  return instance;
}

}  // namespace

EstimateTable Estimator::estimate(const ExperimentReport& report,
                                  const EstimatorOptions& options) const {
  EstimateTable table;
  table.estimator = std::string(name());
  // Metric names anchor on the first OK cell — the same anchor the
  // parallel pipeline uses, so serial and fanned-out analysis agree even
  // on partially-failed reports (no OK cell -> an empty named table).
  const ExperimentCell* first_ok = report.first_ok_cell();
  if (first_ok == nullptr) return table;
  const std::vector<std::string>& metrics = first_ok->table.metrics;
  for (std::size_t m = 0; m < metrics.size(); ++m) {
    EstimatorOptions metric_options = options;
    metric_options.seed = metric_seed(options.seed, m);
    for (EstimateRow& row :
         estimate_metric(report, metrics[m], metric_options)) {
      table.add_row(std::move(row));
    }
  }
  return table;
}

std::uint64_t metric_seed(std::uint64_t base,
                          std::size_t metric_index) noexcept {
  return stats::substream_seed(base, metric_index);
}

void register_estimator(std::string name, EstimatorFactory factory) {
  registry().add(std::move(name), std::move(factory));
}

std::unique_ptr<Estimator> make_estimator(std::string_view name) {
  return registry().find(name)();
}

std::vector<std::string> estimator_names() { return registry().names(); }

}  // namespace xp::core
