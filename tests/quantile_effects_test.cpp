#include "core/quantile_effects.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "stats/bootstrap.h"
#include "stats/descriptive.h"
#include "stats/rng.h"
#include "util/runner.h"

namespace xp::core {
namespace {

std::vector<Observation> shifted_world(double shift, double tail_shift,
                                       std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<Observation> rows;
  for (int i = 0; i < 3000; ++i) {
    Observation obs;
    obs.unit = i;
    obs.treated = i % 2 == 0;
    double value = rng.lognormal(3.0, 0.5);
    if (obs.treated) {
      value += shift;
      // Additional effect only in the upper tail.
      if (value > 30.0) value += tail_shift;
    }
    obs.outcome = value;
    rows.push_back(obs);
  }
  return rows;
}

// One quantile effect through the live ladder. A one-rung ladder
// bootstraps rung 0 with seed `options.seed + 1`, so passing `seed - 1`
// runs the stream that `options.seed` names.
EffectEstimate quantile_effect(std::span<const Observation> rows, double q,
                               QuantileEffectOptions options = {},
                               util::Runner* runner = nullptr) {
  options.seed -= 1;
  const double qs[] = {q};
  return quantile_effect_ladder(rows, qs, options, runner)[0].effect;
}

TEST(QuantileEffects, RecoversMedianShift) {
  const auto rows = shifted_world(5.0, 0.0, 3);
  const auto effect = quantile_effect(rows, 0.5);
  EXPECT_NEAR(effect.estimate, 5.0, 1.5);
  EXPECT_TRUE(effect.significant);
  EXPECT_LT(effect.p_value, 0.05);
  EXPECT_LE(effect.ci_low, effect.estimate);
  EXPECT_GE(effect.ci_high, effect.estimate);
}

TEST(QuantileEffects, NullEffectUsuallyInsignificant) {
  int significant = 0;
  int large_p = 0;
  for (int rep = 0; rep < 10; ++rep) {
    const auto rows = shifted_world(0.0, 0.0, 100 + rep);
    const auto effect = quantile_effect(rows, 0.5);
    significant += effect.significant;
    large_p += effect.p_value > 0.05;
  }
  EXPECT_LE(significant, 2);
  EXPECT_GE(large_p, 8);
}

TEST(QuantileEffects, TailOnlyEffectInvisibleAtMedian) {
  const auto rows = shifted_world(0.0, 25.0, 17);
  const auto median = quantile_effect(rows, 0.5);
  const auto p99 = quantile_effect(rows, 0.99);
  EXPECT_GT(p99.estimate, 5.0);
  EXPECT_LT(std::abs(median.estimate), std::abs(p99.estimate) / 3.0);
}

TEST(QuantileEffects, LadderIsOrderedByQuantile) {
  const auto rows = shifted_world(2.0, 10.0, 23);
  const std::vector<double> qs{0.5, 0.9, 0.99};
  const auto ladder = quantile_effect_ladder(rows, qs);
  ASSERT_EQ(ladder.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(ladder[i].quantile, qs[i]);
    EXPECT_GT(ladder[i].effect.baseline, 0.0);
  }
}

TEST(QuantileEffects, TinyArmsThrow) {
  std::vector<Observation> rows(12);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].treated = i < 3;  // only 3 treated
    rows[i].outcome = static_cast<double>(i);
  }
  EXPECT_THROW(quantile_effect(rows, 0.5), std::invalid_argument);
}

TEST(QuantileEffects, DeterministicForSeed) {
  const auto rows = shifted_world(1.0, 0.0, 31);
  const auto a = quantile_effect(rows, 0.9);
  const auto b = quantile_effect(rows, 0.9);
  EXPECT_DOUBLE_EQ(a.ci_low, b.ci_low);
  EXPECT_DOUBLE_EQ(a.ci_high, b.ci_high);
}

// The sort-every-resample path the rank-count kernel replaces: the generic
// two-sample bootstrap with a sort-based quantile-difference statistic.
EffectEstimate sorted_reference(std::span<const double> treated,
                                std::span<const double> control, double q,
                                const QuantileEffectOptions& options,
                                util::Runner& runner) {
  stats::Rng rng(options.seed);
  const auto statistic = [q](std::span<const double> a,
                             std::span<const double> b) {
    return stats::quantile(a, q) - stats::quantile(b, q);
  };
  const stats::BootstrapInterval interval = stats::bootstrap_two_sample_ci(
      treated, control, statistic, rng, options.bootstrap_replicates,
      options.confidence_level, &runner);
  EffectEstimate effect;
  effect.estimate = interval.point;
  effect.std_error = interval.std_error;
  effect.ci_low = interval.low;
  effect.ci_high = interval.high;
  effect.significant = interval.low > 0.0 || interval.high < 0.0;
  effect.p_value = interval.p_value;
  effect.baseline = stats::quantile(control, q);
  return effect;
}

void expect_identical(const EffectEstimate& got, const EffectEstimate& want) {
  EXPECT_EQ(got.estimate, want.estimate);
  EXPECT_EQ(got.std_error, want.std_error);
  EXPECT_EQ(got.ci_low, want.ci_low);
  EXPECT_EQ(got.ci_high, want.ci_high);
  EXPECT_EQ(got.significant, want.significant);
  EXPECT_EQ(got.p_value, want.p_value);
  EXPECT_EQ(got.baseline, want.baseline);
}

struct Arms {
  std::string name;
  std::vector<double> treated;
  std::vector<double> control;
};

std::vector<Arms> bit_identity_arms() {
  stats::Rng rng(41);
  std::vector<Arms> arms;
  // Integer outcomes: every resample is mostly ties.
  Arms ties{"heavy_ties", {}, {}};
  for (int i = 0; i < 57; ++i) {
    ties.treated.push_back(static_cast<double>(rng.uniform_int(4)));
  }
  for (int i = 0; i < 90; ++i) {
    ties.control.push_back(static_cast<double>(rng.uniform_int(5)));
  }
  arms.push_back(ties);
  // The smallest arms the estimator accepts, and unequal sizes.
  Arms tiny{"ten_units", {}, {}};
  for (int i = 0; i < 10; ++i) tiny.treated.push_back(rng.lognormal(1.0, 1.0));
  for (int i = 0; i < 13; ++i) tiny.control.push_back(rng.normal(2.0, 1.0));
  arms.push_back(tiny);
  Arms unequal{"unequal_lognormal", {}, {}};
  for (int i = 0; i < 1500; ++i) {
    unequal.treated.push_back(rng.lognormal(3.0, 0.5) + 1.0);
  }
  for (int i = 0; i < 421; ++i) {
    unequal.control.push_back(rng.lognormal(3.0, 0.6));
  }
  arms.push_back(unequal);
  return arms;
}

// The arms as observation rows, interleaved so the row split has work
// to do.
std::vector<Observation> interleaved_rows(const Arms& arms) {
  std::vector<Observation> rows;
  const auto add = [&](double outcome, bool treated) {
    Observation obs;
    obs.treated = treated;
    obs.outcome = outcome;
    rows.push_back(obs);
  };
  for (std::size_t i = 0;
       i < std::max(arms.treated.size(), arms.control.size()); ++i) {
    if (i < arms.treated.size()) add(arms.treated[i], true);
    if (i < arms.control.size()) add(arms.control[i], false);
  }
  return rows;
}

constexpr double kBitIdentityQuantiles[] = {0.0, 0.01, 0.5, 0.9, 0.99, 1.0};

TEST(QuantileEffects, RankCountMatchesSortedBootstrapBitForBit) {
  QuantileEffectOptions options;
  options.bootstrap_replicates = 150;
  options.seed = 1234;
  for (std::size_t threads : {1u, 4u}) {
    util::Runner runner(threads);
    for (const Arms& arms : bit_identity_arms()) {
      const std::vector<Observation> rows = interleaved_rows(arms);
      for (double q : kBitIdentityQuantiles) {
        SCOPED_TRACE(arms.name + " q=" + std::to_string(q) +
                     " threads=" + std::to_string(threads));
        expect_identical(quantile_effect(rows, q, options, &runner),
                         sorted_reference(arms.treated, arms.control, q,
                                          options, runner));
      }
    }
  }
}

TEST(QuantileEffects, LadderMatchesSortedBootstrapBitForBit) {
  QuantileEffectOptions options;
  options.bootstrap_replicates = 150;
  options.seed = 99;
  for (std::size_t threads : {1u, 4u}) {
    util::Runner runner(threads);
    for (const Arms& arms : bit_identity_arms()) {
      const std::vector<Observation> rows = interleaved_rows(arms);
      const auto ladder =
          quantile_effect_ladder(rows, kBitIdentityQuantiles, options, &runner);
      ASSERT_EQ(ladder.size(), std::size(kBitIdentityQuantiles));
      for (std::size_t i = 0; i < ladder.size(); ++i) {
        SCOPED_TRACE(arms.name + " rung " + std::to_string(i) +
                     " threads=" + std::to_string(threads));
        QuantileEffectOptions rung = options;
        rung.seed = options.seed + i + 1;
        expect_identical(ladder[i].effect,
                         sorted_reference(arms.treated, arms.control,
                                          kBitIdentityQuantiles[i], rung,
                                          runner));
        expect_identical(
            quantile_effect(rows, kBitIdentityQuantiles[i], rung, &runner),
            ladder[i].effect);
      }
    }
  }
}

TEST(QuantileEffects, PValueCountsReplicatesOnEachSideOfZero) {
  // Record every replicate of the sort-based reference (one thread, so
  // the recording needs no lock), then apply the percentile-bootstrap
  // p-value formula by hand.
  const auto rows = shifted_world(0.4, 0.0, 57);
  std::vector<double> treated, control;
  for (const Observation& row : rows) {
    (row.treated ? treated : control).push_back(row.outcome);
  }
  QuantileEffectOptions options;
  options.bootstrap_replicates = 300;
  util::Runner runner(1);
  for (double q : {0.5, 0.9}) {
    std::vector<double> replicates;
    const auto statistic = [&](std::span<const double> a,
                               std::span<const double> b) {
      const double value = stats::quantile(a, q) - stats::quantile(b, q);
      replicates.push_back(value);
      return value;
    };
    stats::Rng rng(options.seed);
    stats::bootstrap_two_sample_ci(treated, control, statistic, rng,
                                   options.bootstrap_replicates,
                                   options.confidence_level, &runner);
    replicates.pop_back();  // the point estimate, evaluated last
    ASSERT_EQ(replicates.size(), options.bootstrap_replicates);
    std::size_t at_or_below = 0, at_or_above = 0;
    for (double r : replicates) {
      at_or_below += r <= 0.0;
      at_or_above += r >= 0.0;
    }
    const double expected = std::min(
        1.0, 2.0 * static_cast<double>(std::min(at_or_below, at_or_above)) /
                 static_cast<double>(replicates.size()));
    const auto effect = quantile_effect(rows, q, options, &runner);
    EXPECT_EQ(effect.p_value, expected) << "q=" << q;
    EXPECT_GT(effect.p_value, 0.0);
    EXPECT_LT(effect.p_value, 1.0);
  }
}

TEST(QuantileEffects, NonFiniteOutcomesThrowNamingTheArm) {
  auto rows = shifted_world(1.0, 0.0, 5);
  const double qs[] = {0.5, 0.9};
  const auto expect_arm_error = [&](const char* arm) {
    try {
      quantile_effect_ladder(rows, qs);
      ADD_FAILURE() << "no exception for a non-finite " << arm << " outcome";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(arm), std::string::npos)
          << error.what();
    }
  };
  rows[4].outcome = std::numeric_limits<double>::quiet_NaN();  // treated
  expect_arm_error("treated");
  rows[4].outcome = 1.0;
  rows[7].outcome = -std::numeric_limits<double>::infinity();  // control
  expect_arm_error("control");
}

}  // namespace
}  // namespace xp::core
