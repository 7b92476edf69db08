// The data carried through the experiment pipeline: one cell per
// (allocation, replicate) world, each holding the world's observation
// table, plus — once the analysis stage has run — one EstimateTable per
// requested estimator.
//
// These structs live in core/ (not lab/) so the Estimator interface can
// consume a whole report without the core layer reaching up into lab/;
// lab/experiment.h re-exports them under xp::lab for pipeline callers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/data_quality.h"
#include "core/estimate_table.h"
#include "core/observation_table.h"

namespace xp::core {

/// What happened to one (allocation, replicate) cell of the sweep.
enum class CellState : std::uint8_t {
  kOk,              ///< simulated and passed the quality gate
  kFailed,          ///< threw on every attempt (FailurePolicy::retry)
  kSkipped,         ///< threw once and was skipped (FailurePolicy::skip)
  kQualityHold,     ///< simulated but the table is unusable (no rows /
                    ///< all-non-finite outcomes); estimators null it out
  kBudgetExceeded,  ///< crossed its deterministic work budget
                    ///< (util/budget.h); terminal under every policy —
                    ///< the same cap against the same (config, seed)
                    ///< always trips again, so retries are pointless
};

constexpr const char* cell_state_name(CellState state) noexcept {
  switch (state) {
    case CellState::kOk:
      return "ok";
    case CellState::kFailed:
      return "failed";
    case CellState::kSkipped:
      return "skipped";
    case CellState::kQualityHold:
      return "quality_hold";
    case CellState::kBudgetExceeded:
      return "budget_exceeded";
  }
  return "?";
}

struct CellStatus {
  CellState state = CellState::kOk;
  /// what() of the last failure, or the quality issues on a hold.
  std::string error;
  /// Simulation attempts consumed (1 on a clean first run).
  std::uint32_t attempts = 1;

  /// True when the cell's table is usable by estimators. Failed, skipped,
  /// and quality-held cells all degrade to null estimate rows.
  bool ok() const noexcept { return state == CellState::kOk; }
};

struct ExperimentCell {
  double allocation = 0.0;
  std::size_t replicate = 0;
  std::uint64_t seed = 0;  ///< the derived per-cell seed actually used
  CellStatus status;
  /// Guardrail checks on the cell's table (core/data_quality.h);
  /// computed == false on failed/skipped cells (there is no table).
  DataQualityReport quality;
  ObservationTable table;
};

/// Partial-completion roll-up of a report's cells — the manifest a caller
/// inspects before trusting a sweep that ran under skip/retry.
struct CompletionManifest {
  std::size_t cells = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t skipped = 0;
  std::size_t quality_hold = 0;
  std::size_t budget_exceeded = 0;
  std::size_t srm_flagged = 0;  ///< OK cells whose SRM guardrail tripped
  std::size_t attempts = 0;     ///< simulation attempts across all cells
  bool complete() const noexcept { return ok == cells; }
};

struct ExperimentReport {
  std::string scenario;  ///< registry key the report was produced from
  std::vector<double> allocations;
  std::size_t replicates = 0;
  /// Allocation-major: cells[a * replicates + r].
  std::vector<ExperimentCell> cells;
  /// One table per estimator the spec requested, in spec order.
  std::vector<EstimateTable> estimates;

  /// Checked access: out-of-range indices throw std::out_of_range naming
  /// the scenario and the requested vs available indices.
  const ExperimentCell& cell(std::size_t allocation_index,
                             std::size_t replicate) const;

  /// The first cell (in sweep order) whose status is OK, or nullptr when
  /// every cell failed — the anchor estimators use for metric names and
  /// data-shape detection, so a failed replicate 0 does not change how
  /// the surviving cells are analyzed.
  const ExperimentCell* first_ok_cell() const noexcept;

  /// Roll up the per-cell statuses (see CompletionManifest).
  CompletionManifest manifest() const noexcept;

  /// The table a named estimator produced; throws std::invalid_argument
  /// listing the estimators that did run on a miss.
  const EstimateTable& estimates_for(std::string_view estimator) const;
};

}  // namespace xp::core
