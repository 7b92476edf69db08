// Output checks on a finished report: cell states, estimate row counts,
// a bit-exact digest, and the counts the metrics are built from.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment_data.h"
#include "workloads.h"

namespace perfbench {

struct RowCounts {
  std::size_t rows = 0;
  /// Rows with at least one replicate estimate that is not the null
  /// estimate (a default EffectEstimate).
  std::size_t useful = 0;
};

/// Digest of a table's metric columns only: names and every observation
/// field, doubles by bit pattern.
std::uint64_t columns_digest(const xp::core::ObservationTable& table);

/// The output check and tallies of one call: all of a workload's passes.
class CallResult {
 public:
  /// Check pass `p`'s report and fold it in: every cell must be kOk and
  /// every estimate table must carry pass.rows_per_metric x metrics rows.
  /// On journaled workloads the first pass must journal every cell and
  /// later passes must replay all of them unchanged (the journal file in
  /// `journal_dir` does not grow).
  void add_pass(const Workload& workload, std::size_t p,
                const xp::core::ExperimentReport& report,
                const std::string& journal_dir);
  /// Record a problem found outside add_pass.
  void fail(std::string problem) { problems_.push_back(std::move(problem)); }

  /// Digest of every pass's report, folded in pass order: every cell
  /// (coordinates, seed, status, quality report, columns, aggregates,
  /// series) and every estimate row, doubles by bit pattern.
  std::uint64_t digest() const noexcept { return digest_; }
  std::size_t cells() const noexcept { return cells_; }
  std::size_t failed_cells() const noexcept { return failed_cells_; }
  /// Experimental units completed: sessions simulated, streamed or
  /// replayed (the sessions_completed / sessions_replayed aggregates of OK
  /// cells), or dumbbell flows (rows of an OK cell's first column).
  double units() const noexcept { return units_; }
  const RowCounts& rows() const noexcept { return rows_; }
  const std::vector<std::string>& problems() const noexcept {
    return problems_;
  }

 private:
  std::uint64_t digest_ = 0;
  std::size_t cells_ = 0;
  std::size_t failed_cells_ = 0;
  double units_ = 0.0;
  RowCounts rows_;
  std::vector<std::string> problems_;
  std::uint64_t first_cells_ = 0;
  std::uintmax_t journal_bytes_ = 0;
};

/// "0x" + 16 hex digits.
std::string hex(std::uint64_t value);

}  // namespace perfbench
