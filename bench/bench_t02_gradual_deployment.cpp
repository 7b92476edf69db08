// Section 5.1: using a gradual deployment as an event-study instrument.
// Ramp the parallel-connections treatment through increasing allocations,
// estimate tau(p) / rho(p) / s(p) at every step, and run the SUTVA test
// battery. Also the A/A calibration of Section 5.3: false-positive counts
// for day-level switchbacks vs event studies on baseline data (the
// paired_links/baseline week at seed 1917, read off its metric columns).
#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "core/aa_test.h"
#include "core/designs/gradual.h"
#include "lab/experiment.h"

namespace {

/// A headline step estimate, NaN when the step has no Welch contrast (a
/// one-app arm gives a null row; p = 0 has no tau row at all).
double step_estimate(const xp::lab::ExperimentReport& report, std::size_t a,
                     const char* label) {
  const auto* effect =
      xp::bench::step_effect(report, a, "avg throughput", label);
  return effect != nullptr && effect->std_error > 0.0 ? effect->estimate
                                                      : std::nan("");
}

void print_mbps(double bps) {
  if (std::isnan(bps)) {
    std::printf(" %10s", "n/a");
  } else {
    std::printf(" %7.0f Mb", bps / 1e6);
  }
}

}  // namespace

int main() {
  xp::bench::header(
      "Gradual deployment (Section 5.1) — parallel-connections treatment "
      "ramp, 10 Gb/s lab");

  xp::lab::ExperimentSpec spec;
  spec.scenario = "dumbbell/two_connections";
  // p = 0 is the pre-deployment world that anchors mu_C(0).
  spec.allocations = {0.0, 0.1, 0.3, 0.5, 0.7, 0.9};
  spec.replicates = 3;
  spec.estimators = {"gradual/contrast"};
  const auto report = xp::lab::run_experiment(spec);
  const auto& gradual = report.estimates_for("gradual/contrast");

  std::printf("%6s | %10s %10s | %10s %10s %10s\n", "p", "mu_T", "mu_C",
              "tau(p)", "rho(p)", "s(p)");
  std::size_t steps = 0;
  for (std::size_t a = 1; a < report.allocations.size(); ++a) {
    const double tau = step_estimate(report, a, "tau");
    const double spillover = step_estimate(report, a, "spillover");
    std::printf("%6.2f | %7.0f Mb %7.0f Mb |", report.allocations[a],
                xp::bench::arm_mean(report, a, "avg throughput", true) / 1e6,
                xp::bench::arm_mean(report, a, "avg throughput", false) /
                    1e6);
    print_mbps(tau);
    // rho(p) = mu_T(p) - mu_C(0) = tau(p) + s(p) exactly.
    print_mbps(tau + spillover);
    print_mbps(spillover);
    std::printf("\n");
    if (!std::isnan(spillover)) ++steps;
  }
  const auto& tte = gradual.row("avg throughput/tte");
  const auto tte_spread = xp::core::relative_spread(tte);
  std::printf(
      "\ntop-step TTE proxy: %+0.1f%% of baseline (replicates %+0.1f%% .. "
      "%+0.1f%%; true TTE: 0)\n",
      100.0 * tte.effect().relative(), 100.0 * tte_spread.min,
      100.0 * tte_spread.max);
  const auto tests = xp::core::sutva_tests(gradual, "avg throughput");
  std::printf(
      "SUTVA battery: max tau-inequality z = %.1f, significant spillovers "
      "= %zu/%zu -> interference %s\n",
      tests.max_tau_inequality_z, tests.significant_spillovers, steps,
      tests.interference_detected ? "DETECTED" : "not detected");

  // --- A/A design calibration (Section 5.3) ---
  xp::bench::header(
      "A/A calibration — switchback vs event-study false positives on "
      "baseline data");
  const auto baseline = xp::bench::bootstrap_weeks("paired_links/baseline",
                                                   1, {}, 1917);
  const auto& columns = baseline.cell(0, 0).table;
  std::printf("%-22s | %-26s %-26s\n", "metric",
              "switchback FP (of tested)", "event-study FP (of tested)");
  for (auto metric :
       {xp::core::Metric::kThroughput, xp::core::Metric::kMinRtt,
        xp::core::Metric::kBitrate, xp::core::Metric::kPlayDelay,
        xp::core::Metric::kRetransmitFraction}) {
    const std::string name(metric_name(metric));
    const auto& column = columns.column(name);
    const auto sb = xp::core::calibrate_switchback_aa(column, 5);
    const auto es = xp::core::calibrate_event_study_aa(column, 5);
    std::printf("%-22s | %10zu / %-12zu %10zu / %-12zu\n", name.c_str(),
                sb.false_positives, sb.assignments_tested,
                es.false_positives, es.assignments_tested);
  }
  std::printf(
      "\n(paper: zero switchback false positives; event studies false-"
      "positive on the majority of metrics)\n");
  return 0;
}
