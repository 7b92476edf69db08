#include "core/experiment_data.h"

#include <sstream>
#include <stdexcept>

namespace xp::core {

const ExperimentCell& ExperimentReport::cell(std::size_t allocation_index,
                                             std::size_t replicate) const {
  if (allocation_index >= allocations.size() || replicate >= replicates) {
    std::ostringstream message;
    message << "ExperimentReport::cell"
            << (scenario.empty() ? "" : " (scenario \"" + scenario + "\")")
            << ": requested (allocation " << allocation_index
            << ", replicate " << replicate << ") but the report has "
            << allocations.size() << " allocation(s) x " << replicates
            << " replicate(s)";
    throw std::out_of_range(message.str());
  }
  return cells[allocation_index * replicates + replicate];
}

const ExperimentCell* ExperimentReport::first_ok_cell() const noexcept {
  for (const ExperimentCell& cell : cells) {
    if (cell.status.ok()) return &cell;
  }
  return nullptr;
}

CompletionManifest ExperimentReport::manifest() const noexcept {
  CompletionManifest manifest;
  manifest.cells = cells.size();
  for (const ExperimentCell& cell : cells) {
    manifest.attempts += cell.status.attempts;
    switch (cell.status.state) {
      case CellState::kOk:
        ++manifest.ok;
        if (cell.quality.srm_flag) ++manifest.srm_flagged;
        break;
      case CellState::kFailed:
        ++manifest.failed;
        break;
      case CellState::kSkipped:
        ++manifest.skipped;
        break;
      case CellState::kQualityHold:
        ++manifest.quality_hold;
        break;
      case CellState::kBudgetExceeded:
        ++manifest.budget_exceeded;
        break;
    }
  }
  return manifest;
}

const EstimateTable& ExperimentReport::estimates_for(
    std::string_view estimator) const {
  for (const EstimateTable& table : estimates) {
    if (table.estimator == estimator) return table;
  }
  std::ostringstream message;
  message << "ExperimentReport::estimates_for: no estimates from \""
          << estimator << "\"; the report carries:";
  if (estimates.empty()) message << " (none — spec.estimators was empty?)";
  for (const EstimateTable& table : estimates) {
    message << " \"" << table.estimator << "\"";
  }
  throw std::invalid_argument(message.str());
}

}  // namespace xp::core
