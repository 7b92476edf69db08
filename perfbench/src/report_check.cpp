#include "report_check.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string_view>

#include "lab/journal.h"

namespace perfbench {

namespace {

using xp::core::EffectEstimate;
using xp::core::ExperimentReport;

/// Word-at-a-time digest: each word is folded in through the splitmix64
/// finalizer, a bijection, so every bit of every value moves the result.
/// Tables run to a hundred MiB a call; a byte-at-a-time hash took longer
/// than some of the calls it checks.
struct Digest {
  std::uint64_t h = 0;
  void u64(std::uint64_t v) {
    std::uint64_t z = (h ^ v) + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    h = z ^ (z >> 31);
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    for (std::size_t i = 0; i < s.size(); i += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, s.data() + i, std::min<std::size_t>(8, s.size() - i));
      u64(word);
    }
  }
};

void mix_estimate(Digest& d, const EffectEstimate& e) {
  d.f64(e.estimate);
  d.f64(e.std_error);
  d.f64(e.ci_low);
  d.f64(e.ci_high);
  d.f64(e.p_value);
  d.u64(e.significant);
  d.f64(e.baseline);
}

bool is_null(const EffectEstimate& e) {
  const EffectEstimate null;
  return e.estimate == null.estimate && e.std_error == null.std_error &&
         e.ci_low == null.ci_low && e.ci_high == null.ci_high &&
         e.p_value == null.p_value && e.significant == null.significant &&
         e.baseline == null.baseline;
}

bool has_aggregate(const xp::core::ObservationTable& table,
                   std::string_view name) {
  return std::find(table.aggregate_names.begin(), table.aggregate_names.end(),
                   name) != table.aggregate_names.end();
}

std::vector<std::string> check_report(const ExperimentReport& report,
                                      const Pass& pass, std::size_t metrics) {
  std::vector<std::string> problems;
  for (const xp::core::ExperimentCell& cell : report.cells) {
    if (!cell.status.ok()) {
      problems.push_back(
          "cell (allocation " + std::to_string(cell.allocation) +
          ", replicate " + std::to_string(cell.replicate) + ") is " +
          xp::core::cell_state_name(cell.status.state) + ": " +
          cell.status.error);
    }
  }
  if (report.estimates.size() != pass.spec.estimators.size()) {
    problems.push_back("expected " +
                       std::to_string(pass.spec.estimators.size()) +
                       " estimate tables, got " +
                       std::to_string(report.estimates.size()));
    return problems;
  }
  for (std::size_t e = 0; e < report.estimates.size(); ++e) {
    const std::size_t expected = pass.rows_per_metric[e] * metrics;
    const std::size_t got = report.estimates[e].rows.size();
    if (got != expected) {
      problems.push_back(pass.spec.estimators[e] + ": expected " +
                         std::to_string(expected) + " rows, got " +
                         std::to_string(got));
    }
  }
  return problems;
}

double report_units(const ExperimentReport& report) {
  double units = 0.0;
  for (const xp::core::ExperimentCell& cell : report.cells) {
    if (!cell.status.ok()) continue;
    const xp::core::ObservationTable& t = cell.table;
    if (has_aggregate(t, "sessions_completed")) {
      units += t.aggregate("sessions_completed");
    } else if (has_aggregate(t, "sessions_replayed")) {
      units += t.aggregate("sessions_replayed");
    } else if (!t.columns.empty()) {
      units += static_cast<double>(t.columns.front().size());
    }
  }
  return units;
}

RowCounts estimate_rows(const ExperimentReport& report) {
  RowCounts counts;
  for (const xp::core::EstimateTable& table : report.estimates) {
    for (const xp::core::EstimateRow& row : table.rows) {
      ++counts.rows;
      if (std::any_of(row.replicates.begin(), row.replicates.end(),
                      [](const EffectEstimate& e) { return !is_null(e); })) {
        ++counts.useful;
      }
    }
  }
  return counts;
}

}  // namespace

std::uint64_t columns_digest(const xp::core::ObservationTable& table) {
  Digest d;
  for (std::size_t c = 0; c < table.columns.size(); ++c) {
    d.str(table.metrics[c]);
    d.u64(table.columns[c].size());
    for (const xp::core::Observation& o : table.columns[c]) {
      d.u64(o.unit);
      d.u64(o.account);
      d.u64(o.treated);
      d.f64(o.outcome);
      d.u64(o.hour_of_day);
      d.u64(o.hour_index);
      d.u64(o.day);
      d.u64(o.group);
      d.f64(o.weight);
    }
  }
  return d.h;
}

namespace {

/// Every cell: coordinates, seed, status, quality report, metric
/// columns, aggregates and series.
std::uint64_t cells_digest(const ExperimentReport& report) {
  Digest d;
  d.str(report.scenario);
  d.u64(report.replicates);
  for (double a : report.allocations) d.f64(a);
  for (const xp::core::ExperimentCell& cell : report.cells) {
    d.f64(cell.allocation);
    d.u64(cell.replicate);
    d.u64(cell.seed);
    d.u64(static_cast<std::uint64_t>(cell.status.state));
    d.u64(cell.status.attempts);
    d.str(cell.status.error);
    const xp::core::DataQualityReport& q = cell.quality;
    d.u64(q.computed);
    d.u64(q.rows);
    d.u64(q.treated_rows);
    d.u64(q.control_rows);
    d.f64(q.treated_weight);
    d.f64(q.control_weight);
    d.u64(q.hours_observed);
    d.u64(q.arm_hour_cells);
    d.u64(q.non_finite_outcomes);
    d.f64(q.srm_chi_square);
    d.f64(q.srm_p_value);
    d.u64(q.srm_flag);
    const xp::core::ObservationTable& t = cell.table;
    d.u64(columns_digest(t));
    for (std::size_t i = 0; i < t.aggregates.size(); ++i) {
      d.str(t.aggregate_names[i]);
      d.f64(t.aggregates[i]);
    }
    for (std::size_t i = 0; i < t.series.size(); ++i) {
      d.str(t.series_names[i]);
      for (double v : t.series[i]) d.f64(v);
    }
  }
  return d.h;
}

/// Every estimate table: row keys, estimands, allocations, and every
/// replicate estimate.
std::uint64_t estimates_digest(const ExperimentReport& report) {
  Digest d;
  for (const xp::core::EstimateTable& table : report.estimates) {
    d.str(table.estimator);
    for (std::size_t i = 0; i < table.rows.size(); ++i) {
      const xp::core::EstimateRow& row = table.rows[i];
      d.str(table.names[i]);
      d.u64(static_cast<std::uint64_t>(row.estimand));
      d.f64(row.allocation);
      for (const EffectEstimate& e : row.replicates) mix_estimate(d, e);
    }
  }
  return d.h;
}

}  // namespace

void CallResult::add_pass(const Workload& workload, std::size_t p,
                          const ExperimentReport& report,
                          const std::string& journal_dir) {
  const std::uint64_t cells = cells_digest(report);
  Digest d;
  d.u64(digest_);
  d.u64(cells);
  d.u64(estimates_digest(report));
  digest_ = d.h;
  cells_ += report.cells.size();
  const xp::core::CompletionManifest manifest = report.manifest();
  failed_cells_ += manifest.cells - manifest.ok;
  units_ += report_units(report);
  const RowCounts rows = estimate_rows(report);
  rows_.rows += rows.rows;
  rows_.useful += rows.useful;
  const Pass& pass = workload.passes[p];
  for (std::string& problem : check_report(report, pass, workload.metrics)) {
    problems_.push_back(pass.spec.scenario + ": " + problem);
  }
  if (!workload.journaled) return;
  const std::uintmax_t bytes =
      std::filesystem::file_size(xp::lab::journal_path(journal_dir));
  if (p == 0) {
    first_cells_ = cells;
    journal_bytes_ = bytes;
  } else if (bytes != journal_bytes_) {
    problems_.push_back("pass " + std::to_string(p) +
                        " recomputed cells instead of replaying them "
                        "(the journal grew)");
  } else if (cells != first_cells_) {
    problems_.push_back("pass " + std::to_string(p) +
                        " replayed cells that differ from pass 0's");
  }
}

std::string hex(std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

}  // namespace perfbench
