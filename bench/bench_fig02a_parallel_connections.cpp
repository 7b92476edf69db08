// Figure 2a: eleven A/B tests where 10 applications use 1 or 2 parallel
// TCP Reno connections over a shared 10 Gb/s bottleneck. Every interior
// allocation shows ~2x throughput for the treatment with similar
// retransmit rates — yet TTE for throughput is zero and TTE for
// retransmissions is large.
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"

int main() {
  xp::bench::header(
      "Figure 2a — applications using 1 vs 2 parallel TCP connections "
      "(10 apps, 10 Gb/s droptail bottleneck)");

  const auto report = xp::bench::lab_sweep("dumbbell/two_connections");
  const auto mean = [&](std::size_t a, const char* metric, bool treated) {
    return xp::bench::arm_mean(report, a, metric, treated);
  };

  std::printf("%6s | %14s %14s %8s | %12s %12s | %10s\n", "alloc",
              "tput_2conn", "tput_1conn", "ratio", "retx_2conn",
              "retx_1conn", "agg_Gbps");
  for (std::size_t a = 0; a < report.allocations.size(); ++a) {
    const double tput_t = mean(a, "avg throughput", true);
    const double tput_c = mean(a, "avg throughput", false);
    std::printf(
        "%6.2f | %11.1f Mbps %11.1f Mbps %7.2fx | %11.4f%% %11.4f%% | "
        "%9.2f\n",
        report.allocations[a], tput_t / 1e6, tput_c / 1e6,
        tput_c > 0.0 ? tput_t / tput_c : 0.0,
        mean(a, "% retransmitted bytes", true) * 100.0,
        mean(a, "% retransmitted bytes", false) * 100.0,
        report.cell(a, 0).table.aggregate("aggregate_throughput_bps") / 1e9);
  }

  // The estimands (paper: TTE tput = 0, TTE retx = +200%; spillover at
  // p=0.9: -25% tput, +175% retx).
  const auto& gradual = report.estimates_for("gradual/contrast");
  std::printf("\nTTE (all 2-conn vs all 1-conn):\n");
  std::printf("  throughput: %+5.1f%%   (paper: ~0%%)\n",
              100.0 * gradual.row("avg throughput/tte").effect().relative());
  std::printf(
      "  retransmit: %+5.1f%%  (paper: ~+200%% of the rate)\n",
      100.0 *
          gradual.row("% retransmitted bytes/tte").effect().relative());
  // One control app is left at p=0.9, too few for the spillover@0.9
  // Welch row, so the spillover reads off the arm means directly.
  const std::size_t p90 = report.allocations.size() - 2;
  std::printf("spillover at p=0.9 (on 1-conn control apps):\n");
  std::printf("  throughput: %+5.1f%%  (paper: ~-25%%)\n",
              100.0 * (mean(p90, "avg throughput", false) /
                           mean(0, "avg throughput", false) -
                       1.0));
  std::printf("  retransmit: %+5.1f%% (paper: ~+175%%)\n",
              100.0 * (mean(p90, "% retransmitted bytes", false) /
                           std::max(1e-9,
                                    mean(0, "% retransmitted bytes", false)) -
                       1.0));
  return 0;
}
