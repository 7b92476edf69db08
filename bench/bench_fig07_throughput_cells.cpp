// Figure 7: the four (link x arm) cell means of client throughput with
// the estimands drawn between them — the "smoking gun": both naive A/B
// contrasts point one way, the cross-link TTE and spillover the other.
// The week is week 1 of bench_fig05's spec (paired_links/experiment at
// seed 2021), and the estimands are the same registry rows, so each line
// here matches fig05's avg-throughput cell to the character.
#include <cstdio>

#include "bench/bench_util.h"

int main() {
  xp::bench::header("Figure 7 — throughput cell means and estimands");
  const auto report =
      xp::bench::bootstrap_weeks("paired_links/experiment", 1);

  std::printf("cells for avg throughput (Mb/s):\n");
  std::printf("  %-26s %12s %12s\n", "", "control", "treatment");
  for (int link = 0; link < 2; ++link) {
    std::printf("  link %d (%3.0f%% treated)      %12.3f %12.3f\n", link + 1,
                link == 0 ? 95.0 : 5.0,
                xp::bench::arm_mean(report, 0, "avg throughput", false, link) *
                    1e-6,
                xp::bench::arm_mean(report, 0, "avg throughput", true, link) *
                    1e-6);
  }
  const auto estimand = [&](const char* estimator, const char* label) {
    return xp::bench::relative_effect(report, estimator, "avg throughput",
                                      label);
  };
  std::printf("\nestimands (relative to the link-2 control cell):\n");
  std::printf("  naive tau(0.95): %s\n",
              estimand("naive/ab", "tau(link1)").c_str());
  std::printf("  naive tau(0.05): %s\n",
              estimand("naive/ab", "tau(link2)").c_str());
  std::printf("  TTE            : %s  (paper: +12%%)\n",
              estimand("paired_link/tte", "tte").c_str());
  std::printf("  spillover      : %s  (paper: +16%%)\n",
              estimand("paired_link/spillover", "spillover").c_str());
  return 0;
}
