// The backend seam of the experiment pipeline: one data-generating
// process behind a tiny virtual interface.
//
// The interface lives in core/ (like ObservationTable, its return type)
// so layers *below* lab/ can implement a backend — the trace-replay layer
// (src/trace/) is exactly that: a DataSource fed by recorded session logs
// instead of a simulator. Every source, recorded or simulated, honors
// the registry's SourceOptions::duration_scale (lab/registry.h).
#pragma once

#include <cstdint>
#include <string_view>

#include "core/observation_table.h"

namespace xp::core {

/// One data-generating process. Implementations must be stateless after
/// construction: run() is called concurrently from pipeline threads and
/// its result must be a pure function of (allocation, seed).
class DataSource {
 public:
  virtual ~DataSource() = default;

  /// The registry key this source is published under.
  virtual std::string_view name() const noexcept = 0;

  /// The allocation of the canonical experiment (e.g. 0.95 for the
  /// paired-link capping experiment); pipelines use it when a spec does
  /// not sweep allocations explicitly. Non-generative sources (trace
  /// replay) return the allocation recorded in their log.
  virtual double default_allocation() const noexcept = 0;

  /// Simulate (or replay) one world with fraction `allocation` of units
  /// treated. Sources that cannot re-randomize recorded data document
  /// how they interpret `allocation` (trace replay ignores it).
  virtual ObservationTable run(double allocation,
                               std::uint64_t seed) const = 0;

  /// The fraction of units the design *intends* to treat when run at
  /// `allocation` — the null hypothesis of the sample-ratio-mismatch
  /// guardrail (core/data_quality.h). Defaults to the allocation itself;
  /// sources whose assignment mechanism is indirect (per-link Bernoulli
  /// routing, integer rounding, a recorded log's realized design)
  /// override it so a healthy world is never flagged.
  virtual double intended_treated_fraction(double allocation) const noexcept {
    return allocation;
  }

  /// Hash of any configuration beyond (scenario key, allocation, seed)
  /// that changes this source's output — e.g. a fleet's per-shard deltas.
  /// The journal mixes a nonzero value into its fingerprint so cached
  /// cells are not replayed across config changes. 0 (the default) means
  /// "the registry key fully identifies the config".
  virtual std::uint64_t config_fingerprint() const noexcept { return 0; }
};

}  // namespace xp::core
