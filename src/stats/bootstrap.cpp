#include "stats/bootstrap.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/runner.h"
#include "stats/descriptive.h"

namespace xp::stats {

namespace {

/// Draws n resampling indices in [0, n) and hands each to visit(k, index)
/// in draw order. Indices are drawn a stack-chunk at a time
/// (fill_uniform_int preserves the one-at-a-time draw order exactly), so
/// the generator recurrence runs back to back and the consuming loop is
/// free of it — the interleaved form re-entered the generator between
/// every cache-missing gather.
template <typename Visit>
void draw_indices(std::size_t n, Rng& rng, Visit&& visit) {
  std::uint32_t idx[256];
  for (std::size_t done = 0; done < n;) {
    const std::size_t m = std::min(std::size(idx), n - done);
    rng.fill_uniform_int(n, {idx, m});
    for (std::size_t j = 0; j < m; ++j) visit(done + j, idx[j]);
    done += m;
  }
}

std::vector<double> resample(std::span<const double> sample, Rng& rng) {
  std::vector<double> out(sample.size());
  draw_indices(sample.size(), rng,
               [&](std::size_t k, std::uint32_t i) { out[k] = sample[i]; });
  return out;
}

/// quantile_sorted(sort(resample(sample)), q) for the bracket `at` of q,
/// without building the resample: the same draws are tallied per rank,
/// and the bracketing order statistics are read off the cumulative counts
/// from whichever end of the ranks is nearer.
double resampled_quantile(const RankedSample& sample,
                          const QuantileBracket& at, Rng& rng) {
  const std::size_t n = sample.size();
  std::vector<std::uint32_t> counts(n);
  draw_indices(n, rng, [&](std::size_t, std::uint32_t i) {
    ++counts[sample.rank[i]];
  });
  if (n == 1) return sample.sorted[0];
  // `seen` counts the resample values ranked at or beyond `r` on the side
  // the walk started from; sorted position k lies at the first rank where
  // it exceeds k (counted from that side).
  std::size_t r_lo = 0, r_hi = 0;
  if (at.lo < n / 2) {
    std::size_t r = 0, seen = counts[0];
    while (seen <= at.lo) seen += counts[++r];
    r_lo = r;
    while (seen <= at.hi) seen += counts[++r];
    r_hi = r;
  } else {
    std::size_t r = n - 1, seen = counts[r];
    while (seen <= n - 1 - at.hi) seen += counts[--r];
    r_hi = r;
    while (seen <= n - 1 - at.lo) seen += counts[--r];
    r_lo = r;
  }
  return interpolate(at, sample.sorted[r_lo], sample.sorted[r_hi]);
}

/// Independent substream for replicate `r`: counter-based (mix64 of a base
/// drawn once from the caller's stream), so replicates can run on any
/// thread in any order and the interval is still bit-for-bit reproducible.
Rng replicate_rng(std::uint64_t base, std::size_t r) {
  return Rng{mix64(base ^ (0x9e3779b97f4a7c15ULL + r))};
}

BootstrapInterval summarize_replicates(double point,
                                       std::vector<double>& replicates,
                                       double confidence_level) {
  std::sort(replicates.begin(), replicates.end());
  const double alpha = 1.0 - confidence_level;
  BootstrapInterval interval;
  interval.point = point;
  interval.low = quantile_sorted(replicates, alpha / 2.0);
  interval.high = quantile_sorted(replicates, 1.0 - alpha / 2.0);
  interval.std_error = stddev(replicates);
  if (!replicates.empty()) {
    const auto at_or_below =
        std::upper_bound(replicates.begin(), replicates.end(), 0.0) -
        replicates.begin();
    const auto at_or_above =
        replicates.end() -
        std::lower_bound(replicates.begin(), replicates.end(), 0.0);
    interval.p_value =
        std::min(1.0, 2.0 * static_cast<double>(std::min(at_or_below,
                                                         at_or_above)) /
                          static_cast<double>(replicates.size()));
  }
  return interval;
}

}  // namespace

RankedSample::RankedSample(std::span<const double> sample) {
  // Sorting (value, index) pairs is a stable argsort: ties keep index order.
  std::vector<std::pair<double, std::uint32_t>> order(sample.size());
  for (std::size_t i = 0; i < sample.size(); ++i) {
    order[i] = {sample[i], static_cast<std::uint32_t>(i)};
  }
  std::sort(order.begin(), order.end());
  sorted.resize(order.size());
  rank.resize(order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    sorted[k] = order[k].first;
    rank[order[k].second] = static_cast<std::uint32_t>(k);
  }
}

BootstrapInterval bootstrap_ci(std::span<const double> sample,
                               const Statistic& statistic, Rng& rng,
                               std::size_t replicates,
                               double confidence_level, util::Runner* runner) {
  if (sample.empty()) throw std::invalid_argument("bootstrap_ci: empty sample");
  const std::uint64_t base = rng.next();
  std::vector<double> stats(replicates);
  util::Runner& pool = runner ? *runner : util::global_runner();
  pool.parallel_for(replicates, [&](std::size_t r) {
    Rng rep_rng = replicate_rng(base, r);
    stats[r] = statistic(resample(sample, rep_rng));
  });
  return summarize_replicates(statistic(sample), stats, confidence_level);
}

BootstrapInterval bootstrap_two_sample_ci(std::span<const double> a,
                                          std::span<const double> b,
                                          const TwoSampleStatistic& statistic,
                                          Rng& rng, std::size_t replicates,
                                          double confidence_level,
                                          util::Runner* runner) {
  if (a.empty() || b.empty()) {
    throw std::invalid_argument("bootstrap_two_sample_ci: empty sample");
  }
  const std::uint64_t base = rng.next();
  std::vector<double> stats(replicates);
  util::Runner& pool = runner ? *runner : util::global_runner();
  pool.parallel_for(replicates, [&](std::size_t r) {
    Rng rep_rng = replicate_rng(base, r);
    const std::vector<double> draw_a = resample(a, rep_rng);
    const std::vector<double> draw_b = resample(b, rep_rng);
    stats[r] = statistic(draw_a, draw_b);
  });
  return summarize_replicates(statistic(a, b), stats, confidence_level);
}

BootstrapInterval bootstrap_quantile_difference_ci(
    const RankedSample& a, const RankedSample& b, double q, Rng& rng,
    std::size_t replicates, double confidence_level, util::Runner* runner) {
  if (a.size() == 0 || b.size() == 0) {
    throw std::invalid_argument(
        "bootstrap_quantile_difference_ci: empty sample");
  }
  const std::uint64_t base = rng.next();
  const QuantileBracket at_a = quantile_bracket(a.size(), q);
  const QuantileBracket at_b = quantile_bracket(b.size(), q);
  std::vector<double> stats(replicates);
  util::Runner& pool = runner ? *runner : util::global_runner();
  pool.parallel_for(replicates, [&](std::size_t r) {
    Rng rep_rng = replicate_rng(base, r);
    // Sequenced: group a's draws come first, as in the two-sample form.
    const double qa = resampled_quantile(a, at_a, rep_rng);
    const double qb = resampled_quantile(b, at_b, rep_rng);
    stats[r] = qa - qb;
  });
  const double point =
      quantile_sorted(a.sorted, q) - quantile_sorted(b.sorted, q);
  return summarize_replicates(point, stats, confidence_level);
}

}  // namespace xp::stats
