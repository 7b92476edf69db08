// The benchmark's workloads: each is one closed call of one or more
// ExperimentSpecs through lab::run_experiment, generated from the
// benchmark seed. NOTES.md says why each workload exists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "lab/experiment.h"

namespace perfbench {

/// One run_experiment call of a workload.
struct Pass {
  xp::lab::ExperimentSpec spec;
  /// Rows each estimator's table must carry per metric column, in the
  /// order of spec.estimators (the output check).
  std::vector<std::size_t> rows_per_metric;
};

struct Workload {
  std::string name;
  /// Run in order; one measured call runs every pass.
  std::vector<Pass> passes;
  /// Passes of one call share one fresh journal directory: the first
  /// writes every cell, the later ones replay them.
  bool journaled = false;
  /// Metric columns every cell table carries.
  std::size_t metrics = 0;
};

/// Names accepted by make_workload, in BENCHMARK.json order.
std::vector<std::string> workload_names();

/// Generate a workload's inputs from the benchmark seed. trace_resume
/// simulates and exports its session log into `workdir` here (input
/// generation, never timed). Throws std::invalid_argument on an unknown
/// name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& workdir);

}  // namespace perfbench
