#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace xp::stats {

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double total = 0.0;
  for (double x : xs) total += x;
  return total / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) noexcept {
  const std::size_t n = xs.size();
  if (n < 2) return 0.0;
  const double m = mean(xs);
  double ss = 0.0;
  for (double x : xs) {
    const double d = x - m;
    ss += d * d;
  }
  return ss / static_cast<double>(n - 1);
}

double stddev(std::span<const double> xs) noexcept {
  return std::sqrt(variance(xs));
}

double standard_error(std::span<const double> xs) noexcept {
  const std::size_t n = xs.size();
  if (n < 2) return 0.0;
  return stddev(xs) / std::sqrt(static_cast<double>(n));
}

double min(std::span<const double> xs) noexcept {
  double result = std::numeric_limits<double>::infinity();
  for (double x : xs) result = std::min(result, x);
  return result;
}

double max(std::span<const double> xs) noexcept {
  double result = -std::numeric_limits<double>::infinity();
  for (double x : xs) result = std::max(result, x);
  return result;
}

QuantileBracket quantile_bracket(std::size_t n, double q) noexcept {
  q = std::clamp(q, 0.0, 1.0);
  const double h = q * static_cast<double>(n - 1);
  QuantileBracket at;
  at.lo = static_cast<std::size_t>(h);
  at.hi = std::min(at.lo + 1, n - 1);
  at.frac = h - static_cast<double>(at.lo);
  return at;
}

double quantile_sorted(std::span<const double> sorted, double q) noexcept {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  const QuantileBracket at = quantile_bracket(sorted.size(), q);
  return interpolate(at, sorted[at.lo], sorted[at.hi]);
}

double quantile(std::span<const double> xs, double q) {
  std::vector<double> copy(xs.begin(), xs.end());
  std::sort(copy.begin(), copy.end());
  return quantile_sorted(copy, q);
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

double weighted_mean(std::span<const double> xs,
                     std::span<const double> weights) noexcept {
  double num = 0.0, den = 0.0;
  const std::size_t n = std::min(xs.size(), weights.size());
  for (std::size_t i = 0; i < n; ++i) {
    num += xs[i] * weights[i];
    den += weights[i];
  }
  return den == 0.0 ? 0.0 : num / den;
}

void Accumulator::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void Accumulator::merge(const Accumulator& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Accumulator::variance() const noexcept {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const noexcept { return std::sqrt(variance()); }

double Accumulator::standard_error() const noexcept {
  return n_ < 2 ? 0.0 : stddev() / std::sqrt(static_cast<double>(n_));
}

double Accumulator::min() const noexcept {
  return n_ == 0 ? std::numeric_limits<double>::infinity() : min_;
}

double Accumulator::max() const noexcept {
  return n_ == 0 ? -std::numeric_limits<double>::infinity() : max_;
}

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  s.mean = mean(xs);
  s.stddev = stddev(xs);
  s.min = sorted.front();
  s.max = sorted.back();
  s.p25 = quantile_sorted(sorted, 0.25);
  s.median = quantile_sorted(sorted, 0.5);
  s.p75 = quantile_sorted(sorted, 0.75);
  s.p99 = quantile_sorted(sorted, 0.99);
  return s;
}

}  // namespace xp::stats
