// Figure 2b: A/B tests of TCP pacing at every allocation. In the paper's
// lab, paced Reno obtained ~50% lower throughput at any allocation while
// TTE was ~0 — a treatment that A/B tests reject although deploying it
// everywhere is harmless (and spillover-positive).
//
// NOTE: in this simulator's droptail microphysics the *sign* of the
// pacing ATE is inverted — paced flows dodge the burst-clustered drops
// and win — but the interference structure the figure demonstrates
// (large constant A/B effect at every p, TTE ~ 0, opposite-sign
// spillover) is identical.
#include <cstdio>

#include "bench/bench_util.h"

int main() {
  xp::bench::header(
      "Figure 2b — paced vs unpaced TCP Reno connections "
      "(10 connections, 10 Gb/s droptail bottleneck)");

  const auto report = xp::bench::lab_sweep("dumbbell/pacing");
  const auto mean = [&](std::size_t a, const char* metric, bool treated) {
    return xp::bench::arm_mean(report, a, metric, treated);
  };

  std::printf("%6s | %14s %14s | %12s %12s | %10s\n", "alloc",
              "tput_paced", "tput_unpaced", "retx_paced", "retx_unpaced",
              "agg_Gbps");
  for (std::size_t a = 0; a < report.allocations.size(); ++a) {
    std::printf(
        "%6.2f | %11.1f Mbps %11.1f Mbps | %11.4f%% %11.4f%% | %9.2f\n",
        report.allocations[a], mean(a, "avg throughput", true) / 1e6,
        mean(a, "avg throughput", false) / 1e6,
        mean(a, "% retransmitted bytes", true) * 100.0,
        mean(a, "% retransmitted bytes", false) * 100.0,
        report.cell(a, 0).table.aggregate("aggregate_throughput_bps") / 1e9);
  }

  const auto& gradual = report.estimates_for("gradual/contrast");
  std::printf("\nTTE (all paced vs all unpaced):\n");
  std::printf("  throughput: %+5.1f%%   (paper: ~0%%)\n",
              100.0 * gradual.row("avg throughput/tte").effect().relative());
  std::printf(
      "  retransmit: %+5.1f%%  (paper: large decrease)\n",
      100.0 *
          gradual.row("% retransmitted bytes/tte").effect().relative());
  return 0;
}
