// Gradual deployments as measurement instruments (Section 5.1).
//
// A gradual deployment is a sequence of A/B tests at increasing
// allocations p1 < p2 < ... The gradual/contrast estimator
// (core/estimator.h) reads one off an allocation sweep: the within-step
// average treatment effect tau(p) at every allocation, the spillover
// s(p) = mu_C(p) - mu_C(0) of each step's control arm against the
// lowest-allocation control world, and the cross-allocation TTE. Under
// SUTVA all tau(p) are equal and s(p) == 0 — giving a test battery for
// congestion interference. The partial effect rho(p) = mu_T(p) - mu_C(0)
// adds no test of its own: rho(p) - tau(p) = s(p) exactly.
#pragma once

#include <cstddef>
#include <string_view>

#include "core/estimate_table.h"

namespace xp::core {

struct SutvaTests {
  /// Largest |z| for pairwise tau(p_i) == tau(p_j).
  double max_tau_inequality_z = 0.0;
  /// Number of allocations with statistically significant spillover.
  std::size_t significant_spillovers = 0;
  /// Overall verdict at ~2-sigma.
  bool interference_detected = false;
};

/// The SUTVA battery over the headline (replicate 0) "tau@p" and
/// "spillover@p" rows of `metric` in a gradual/contrast table. Null rows
/// (degenerate steps, std_error = 0) are skipped.
SutvaTests sutva_tests(const EstimateTable& table, std::string_view metric);

}  // namespace xp::core
