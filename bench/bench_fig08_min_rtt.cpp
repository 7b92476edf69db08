// Figure 8: mean of per-session minimum RTT in each cell, normalized to
// the smallest cell value. Capping empties the standing queue for most of
// the peak: TTE -24%, spillover -27% in the paper, while both naive A/B
// tests report a small *increase*. Same week and registry rows as
// bench_fig05's week 1, so each estimand line matches fig05's min-RTT
// cell to the character.
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"

int main() {
  xp::bench::header("Figure 8 — min RTT cell means (normalized)");
  const auto report =
      xp::bench::bootstrap_weeks("paired_links/experiment", 1);

  double cell_mean[2][2];
  double smallest = 1e18;
  for (int link = 0; link < 2; ++link) {
    for (int arm = 0; arm < 2; ++arm) {
      cell_mean[link][arm] =
          xp::bench::arm_mean(report, 0, "min RTT", arm == 1, link);
      smallest = std::min(smallest, cell_mean[link][arm]);
    }
  }
  std::printf("%-28s %10s %10s\n", "", "control", "treatment");
  for (int link = 0; link < 2; ++link) {
    std::printf("link %d (%3.0f%% treated)        %10.3f %10.3f\n", link + 1,
                link == 0 ? 95.0 : 5.0, cell_mean[link][0] / smallest,
                cell_mean[link][1] / smallest);
  }
  const auto estimand = [&](const char* estimator, const char* label) {
    return xp::bench::relative_effect(report, estimator, "min RTT", label);
  };
  std::printf("\n  naive tau(0.95): %s (paper: +5%%)\n",
              estimand("naive/ab", "tau(link1)").c_str());
  std::printf("  naive tau(0.05): %s (paper: +12%%)\n",
              estimand("naive/ab", "tau(link2)").c_str());
  std::printf("  TTE            : %s (paper: -24%%)\n",
              estimand("paired_link/tte", "tte").c_str());
  std::printf("  spillover      : %s (paper: -27%%)\n",
              estimand("paired_link/spillover", "spillover").c_str());
  return 0;
}
