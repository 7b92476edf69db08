// Figure 3: ten long-lived connections split between Cubic and BBR. A 10%
// BBR allocation looks like a huge throughput win; all-BBR equals
// all-Cubic (TTE ~ 0). (In shallow 1-BDP buffers deployed BBRv1 crushes
// minority Cubic — our substrate reproduces that published coexistence
// regime; the paper's lab additionally saw minority-Cubic winning.)
#include <cstdio>

#include "bench/bench_util.h"

int main() {
  xp::bench::header(
      "Figure 3 — Cubic vs BBR, 10 connections on a 10 Gb/s bottleneck "
      "(x = fraction using BBR)");

  const auto report = xp::bench::lab_sweep("dumbbell/bbr_vs_cubic");
  const auto mean = [&](std::size_t a, bool treated) {
    return xp::bench::arm_mean(report, a, "avg throughput", treated);
  };

  std::printf("%6s | %14s %14s | %10s\n", "alloc", "tput_bbr",
              "tput_cubic", "agg_Gbps");
  for (std::size_t a = 0; a < report.allocations.size(); ++a) {
    std::printf(
        "%6.2f | %11.1f Mbps %11.1f Mbps | %9.2f\n", report.allocations[a],
        mean(a, true) / 1e6, mean(a, false) / 1e6,
        report.cell(a, 0).table.aggregate("aggregate_throughput_bps") / 1e9);
  }

  // One BBR app at 10% is too few for the tau@0.1 Welch row, so the
  // naive A/B reads off the arm means directly.
  const auto& gradual = report.estimates_for("gradual/contrast");
  std::printf("\nnaive A/B at 10%% BBR: %+.0f%% throughput \"win\" for BBR\n",
              100.0 * (mean(1, true) / mean(1, false) - 1.0));
  std::printf("TTE (all BBR vs all Cubic): %+5.1f%%   (paper: ~0%%)\n",
              100.0 * gradual.row("avg throughput/tte").effect().relative());
  return 0;
}
