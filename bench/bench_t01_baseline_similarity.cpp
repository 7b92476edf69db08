// Section 4.1's baseline-week link-similarity analysis: compare every
// metric between the two links on all-control data. Most metrics should
// show no significant difference; rebuffers show the pre-existing
// imbalance (the paper found link 1 had ~20% more sessions with
// rebuffers, attributed to content differences).
#include <cstdio>

#include "bench/bench_util.h"
#include "core/aa_test.h"
#include "core/report.h"

int main() {
  xp::bench::header(
      "Baseline week (Section 4.1) — link 1 vs link 2 similarity, "
      "all-control traffic");
  const auto baseline = xp::bench::baseline_week();
  std::printf("%-22s | %-34s %s\n", "metric", "link1 - link2 (relative)",
              "significant?");
  for (const auto metric : xp::core::kAllMetrics) {
    const auto difference =
        xp::core::hourly_fe_analysis(xp::core::aa_link_contrast(
            xp::core::select(baseline.sessions, metric,
                             xp::core::RowFilter{})));
    std::printf("%-22s | %-34s %s\n",
                std::string(metric_name(metric)).c_str(),
                xp::core::format_relative(difference).c_str(),
                difference.significant ? "YES" : "no");
  }
  std::printf(
      "\n(paper: links differed in bytes sent +5%%, stability +2%%, "
      "quality -0.1%%, and rebuffers +20%%; other metrics similar.\n"
      " our substrate injects the rebuffer imbalance via per-link "
      "content-stall rates.)\n");
  return 0;
}
