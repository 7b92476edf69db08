#include "stats/distributions.h"

#include <cmath>
#include <limits>

namespace xp::stats {

namespace {
constexpr double kPi = 3.14159265358979323846;
}

double normal_cdf(double x) noexcept {
  return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

double normal_inv(double p) noexcept {
  if (p <= 0.0) return -std::numeric_limits<double>::infinity();
  if (p >= 1.0) return std::numeric_limits<double>::infinity();

  // Acklam's algorithm.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;

  double x;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }

  // One Halley refinement step.
  const double e = normal_cdf(x) - p;
  const double u = e * std::sqrt(2.0 * kPi) * std::exp(0.5 * x * x);
  x = x - u / (1.0 + 0.5 * x * u);
  return x;
}

#if defined(__GLIBC__)
// glibc's lgamma writes the global `signgam` as a side effect, which is a
// data race when estimator cells run concurrently. The reentrant variant
// takes the sign out-parameter instead; it is hidden under strict -std=c++20
// so declare it ourselves.
extern "C" double lgamma_r(double, int*) noexcept;

double lgamma_fn(double x) noexcept {
  int sign = 0;
  return lgamma_r(x, &sign);
}
#else
double lgamma_fn(double x) noexcept { return std::lgamma(x); }
#endif

namespace {

// Continued fraction for the incomplete beta function (Numerical Recipes
// betacf, modified Lentz method).
double beta_continued_fraction(double a, double b, double x) noexcept {
  constexpr int kMaxIter = 300;
  constexpr double kEps = 3.0e-14;
  constexpr double kFpMin = 1.0e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

}  // namespace

double incomplete_beta(double a, double b, double x) noexcept {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double ln_front = lgamma_fn(a + b) - lgamma_fn(a) - lgamma_fn(b) +
                          a * std::log(x) + b * std::log(1.0 - x);
  const double front = std::exp(ln_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * beta_continued_fraction(a, b, x) / a;
  }
  return 1.0 - front * beta_continued_fraction(b, a, 1.0 - x) / b;
}

double student_t_cdf(double t, double df) noexcept {
  if (df <= 0.0) return normal_cdf(t);
  const double x = df / (df + t * t);
  const double p = 0.5 * incomplete_beta(0.5 * df, 0.5, x);
  return t >= 0.0 ? 1.0 - p : p;
}

double student_t_inv(double p, double df) noexcept {
  if (p <= 0.0) return -std::numeric_limits<double>::infinity();
  if (p >= 1.0) return std::numeric_limits<double>::infinity();
  if (df <= 0.0) return normal_inv(p);

  // Newton iterations from the normal quantile starting point; the t CDF is
  // smooth and monotone, so this converges in a handful of steps.
  double t = normal_inv(p);
  if (df < 3.0) t *= 1.5;  // heavier tails: start further out
  for (int iter = 0; iter < 60; ++iter) {
    const double err = student_t_cdf(t, df) - p;
    // t density with df degrees of freedom.
    const double log_density =
        lgamma_fn(0.5 * (df + 1.0)) - lgamma_fn(0.5 * df) -
        0.5 * std::log(df * kPi) -
        0.5 * (df + 1.0) * std::log1p(t * t / df);
    const double density = std::exp(log_density);
    if (density <= 0.0) break;
    const double step = err / density;
    t -= step;
    if (std::fabs(step) < 1e-12 * (1.0 + std::fabs(t))) break;
  }
  return t;
}

double critical_value(double level, double df) noexcept {
  const double p = 0.5 + 0.5 * level;
  return df <= 0.0 ? normal_inv(p) : student_t_inv(p, df);
}

double two_sided_p_value(double t_stat, double df) noexcept {
  const double abs_t = std::fabs(t_stat);
  const double tail =
      df <= 0.0 ? 1.0 - normal_cdf(abs_t) : 1.0 - student_t_cdf(abs_t, df);
  return 2.0 * tail;
}

}  // namespace xp::stats
