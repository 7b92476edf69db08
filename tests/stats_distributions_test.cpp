#include "stats/distributions.h"

#include <gtest/gtest.h>

#include <cmath>

namespace xp::stats {
namespace {

TEST(Normal, CdfKnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.959963985), 0.975, 1e-9);
  EXPECT_NEAR(normal_cdf(-1.959963985), 0.025, 1e-9);
  EXPECT_NEAR(normal_cdf(1.0), 0.8413447461, 1e-9);
}

TEST(Normal, InvIsInverseOfCdf) {
  for (double p : {0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    EXPECT_NEAR(normal_cdf(normal_inv(p)), p, 1e-10) << "p=" << p;
  }
}

TEST(Normal, InvKnownQuantiles) {
  EXPECT_NEAR(normal_inv(0.975), 1.959963985, 1e-8);
  EXPECT_NEAR(normal_inv(0.5), 0.0, 1e-12);
  EXPECT_NEAR(normal_inv(0.8), 0.8416212336, 1e-8);
}

TEST(Normal, InvEdgesAreInfinite) {
  EXPECT_TRUE(std::isinf(normal_inv(0.0)));
  EXPECT_TRUE(std::isinf(normal_inv(1.0)));
}

TEST(IncompleteBeta, KnownValues) {
  // I_x(1,1) = x (uniform CDF).
  EXPECT_NEAR(incomplete_beta(1.0, 1.0, 0.3), 0.3, 1e-10);
  // I_x(2,2) = x^2 (3 - 2x).
  EXPECT_NEAR(incomplete_beta(2.0, 2.0, 0.4), 0.16 * (3 - 0.8), 1e-9);
  EXPECT_DOUBLE_EQ(incomplete_beta(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(incomplete_beta(2.0, 3.0, 1.0), 1.0);
}

TEST(StudentT, CdfAtZeroIsHalf) {
  for (double df : {1.0, 2.0, 5.0, 30.0, 200.0}) {
    EXPECT_NEAR(student_t_cdf(0.0, df), 0.5, 1e-12) << df;
  }
}

TEST(StudentT, KnownCriticalValues) {
  // Classic t-table: P(T <= t) = 0.975.
  EXPECT_NEAR(student_t_inv(0.975, 1.0), 12.7062, 1e-3);
  EXPECT_NEAR(student_t_inv(0.975, 5.0), 2.5706, 1e-3);
  EXPECT_NEAR(student_t_inv(0.975, 10.0), 2.2281, 1e-3);
  EXPECT_NEAR(student_t_inv(0.975, 30.0), 2.0423, 1e-3);
}

TEST(StudentT, ApproachesNormalForLargeDf) {
  EXPECT_NEAR(student_t_inv(0.975, 1e7), normal_inv(0.975), 1e-4);
  EXPECT_NEAR(student_t_cdf(1.3, 1e7), normal_cdf(1.3), 1e-5);
}

TEST(StudentT, InvIsInverseOfCdf) {
  for (double df : {2.0, 7.0, 23.0}) {
    for (double p : {0.05, 0.3, 0.5, 0.8, 0.99}) {
      EXPECT_NEAR(student_t_cdf(student_t_inv(p, df), df), p, 1e-8)
          << "df=" << df << " p=" << p;
    }
  }
}

TEST(StudentT, SymmetricTails) {
  EXPECT_NEAR(student_t_cdf(-2.0, 8.0), 1.0 - student_t_cdf(2.0, 8.0), 1e-12);
}

TEST(CriticalValue, NormalFallbackForNonPositiveDf) {
  EXPECT_NEAR(critical_value(0.95, 0.0), 1.959963985, 1e-8);
  EXPECT_NEAR(critical_value(0.95, -3.0), 1.959963985, 1e-8);
}

TEST(CriticalValue, WiderForSmallDf) {
  EXPECT_GT(critical_value(0.95, 3.0), critical_value(0.95, 30.0));
  EXPECT_GT(critical_value(0.99, 10.0), critical_value(0.95, 10.0));
}

TEST(PValue, TwoSidedProperties) {
  EXPECT_NEAR(two_sided_p_value(0.0, 10.0), 1.0, 1e-12);
  EXPECT_LT(two_sided_p_value(3.0, 10.0), 0.05);
  EXPECT_NEAR(two_sided_p_value(1.96, 0.0), 0.05, 1e-3);
  EXPECT_NEAR(two_sided_p_value(-1.96, 0.0), two_sided_p_value(1.96, 0.0),
              1e-12);
}

}  // namespace
}  // namespace xp::stats
