// Figure 6: hourly client throughput, normalized to the largest hourly
// value — (a) a baseline day with no treatment (links overlap), (b) an
// experiment day (the mostly-capped link stays uncongested longer and
// carries higher throughput through the peak). Both worlds are 3-day
// weeks of the registry scenarios (paired_links/baseline at seed 1917,
// paired_links/experiment at seed 2021, duration_scale 0.6 of the
// canonical 5 days); the series are read off the avg-throughput column.
#include <algorithm>
#include <array>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "util/runner.h"

namespace {

// Mean hourly session throughput per link for one day of a week's
// avg-throughput column.
std::array<std::vector<double>, 2> hourly_throughput(
    const xp::lab::ExperimentReport& report, std::uint32_t day) {
  std::array<std::vector<double>, 2> sums{std::vector<double>(24, 0.0),
                                          std::vector<double>(24, 0.0)};
  std::array<std::vector<double>, 2> counts{std::vector<double>(24, 0.0),
                                            std::vector<double>(24, 0.0)};
  for (const auto& row : report.cell(0, 0).table.column("avg throughput")) {
    if (row.day != day) continue;
    sums[row.group][row.hour_of_day] += row.outcome;
    counts[row.group][row.hour_of_day] += 1.0;
  }
  for (int link = 0; link < 2; ++link) {
    for (int hour = 0; hour < 24; ++hour) {
      if (counts[link][hour] > 0.0) sums[link][hour] /= counts[link][hour];
    }
  }
  return sums;
}

void print_day(const std::array<std::vector<double>, 2>& series,
               const char* label) {
  double top = 0.0;
  for (const auto& link_series : series) {
    for (double v : link_series) top = std::max(top, v);
  }
  std::printf("\n%s (normalized to largest hourly value)\n", label);
  std::printf("%5s | %8s %8s\n", "hour", "link 1", "link 2");
  for (int hour = 0; hour < 24; ++hour) {
    std::printf("%5d | %8.3f %8.3f\n", hour, series[0][hour] / top,
                series[1][hour] / top);
  }
}

}  // namespace

int main() {
  xp::bench::header(
      "Figure 6 — hourly normalized throughput: baseline day vs "
      "experiment day");

  // The two worlds are independent: run them side by side.
  constexpr double kThreeDays = 0.6;
  xp::lab::ExperimentReport baseline, experiment;
  xp::util::global_runner().parallel_for(2, [&](std::size_t i) {
    if (i == 0) {
      baseline = xp::bench::bootstrap_weeks("paired_links/baseline", 1, {},
                                            1917, kThreeDays);
    } else {
      experiment = xp::bench::bootstrap_weeks("paired_links/experiment", 1,
                                              {}, 2021, kThreeDays);
    }
  });

  print_day(hourly_throughput(baseline, 1),
            "(a) baseline day: no capping anywhere — links overlap");
  print_day(hourly_throughput(experiment, 1),
            "(b) experiment day: link 1 95% capped — less congested and "
            "faster through the peak");
  return 0;
}
