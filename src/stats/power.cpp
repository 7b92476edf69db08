#include "stats/power.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "stats/distributions.h"

namespace xp::stats {

namespace {

/// Throws unless 0 < value < 1. An alpha or power of exactly 0 or 1 has
/// an infinite z-quantile, which would otherwise cast to a bogus size_t.
void require_probability(double value, const char* field) {
  if (!(value > 0.0 && value < 1.0)) {
    throw std::invalid_argument(std::string("power: ") + field +
                                " must be in (0,1)");
  }
}

void require_finite(double value, const char* field) {
  if (!std::isfinite(value)) {
    throw std::invalid_argument(std::string("power: ") + field +
                                " must be finite");
  }
}

}  // namespace

std::size_t required_sample_size(const PowerSpec& spec) {
  require_finite(spec.effect, "effect");
  require_finite(spec.sd, "sd");
  require_probability(spec.alpha, "alpha");
  require_probability(spec.power, "power");
  require_probability(spec.allocation, "allocation");
  if (spec.effect == 0.0) {
    throw std::invalid_argument("power: effect must be nonzero");
  }
  const double z_alpha = normal_inv(1.0 - spec.alpha / 2.0);
  const double z_beta = normal_inv(spec.power);
  // Variance factor for unequal allocation: Var(diff) ~ sd^2 * f / n.
  const double f = 1.0 / spec.allocation + 1.0 / (1.0 - spec.allocation);
  const double n = (z_alpha + z_beta) * (z_alpha + z_beta) * spec.sd *
                   spec.sd * f / (spec.effect * spec.effect);
  return static_cast<std::size_t>(std::ceil(n));
}

std::size_t required_switchback_intervals(double effect, double interval_sd,
                                          double alpha, double power) {
  PowerSpec spec;
  spec.effect = effect;
  spec.sd = interval_sd;
  spec.alpha = alpha;
  spec.power = power;
  spec.allocation = 0.5;  // switchbacks alternate arms across intervals
  return std::max<std::size_t>(2, required_sample_size(spec));
}

}  // namespace xp::stats
