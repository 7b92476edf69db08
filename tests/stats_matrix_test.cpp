#include "stats/matrix.h"

#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>

namespace xp::stats {
namespace {

// The library carries only what OLS needs; these few lines build and
// compare matrices for the checks below.
Matrix make(std::initializer_list<std::initializer_list<double>> rows) {
  Matrix m(rows.size(), rows.begin()->size());
  std::size_t r = 0;
  for (const auto& row : rows) {
    std::size_t c = 0;
    for (double v : row) m(r, c++) = v;
    ++r;
  }
  return m;
}

Matrix transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) t(c, r) = a(r, c);
  }
  return t;
}

double distance(const Matrix& a, const Matrix& b) {
  double ss = 0.0;
  for (std::size_t i = 0; i < a.flat().size(); ++i) {
    const double d = a.flat()[i] - b.flat()[i];
    ss += d * d;
  }
  return std::sqrt(ss);
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m(1, 2) = 4.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 1.5);
  EXPECT_DOUBLE_EQ(m.row(1)[2], 4.0);
}

TEST(Matrix, MultiplyKnown) {
  const Matrix a = make({{1.0, 2.0}, {3.0, 4.0}});
  const Matrix b = make({{5.0, 6.0}, {7.0, 8.0}});
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MultiplyDimensionMismatchThrows) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  EXPECT_THROW(a * b, std::invalid_argument);
}

TEST(Matrix, GramEqualsAtA) {
  const Matrix a = make({{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}});
  const Matrix g = a.gram();
  const Matrix reference = transpose(a) * a;
  EXPECT_NEAR(distance(g, reference), 0.0, 1e-12);
}

TEST(Matrix, Scale) {
  const Matrix a = make({{1.0, 2.0}});
  EXPECT_DOUBLE_EQ(a.scaled(3.0)(0, 1), 6.0);
}

TEST(Cholesky, FactorizesSpd) {
  const Matrix a = make({{4.0, 2.0}, {2.0, 3.0}});
  const Matrix l = cholesky(a);
  const Matrix reconstructed = l * transpose(l);
  EXPECT_NEAR(distance(reconstructed, a), 0.0, 1e-12);
}

TEST(Cholesky, RejectsIndefinite) {
  const Matrix a = make({{1.0, 2.0}, {2.0, 1.0}});  // eigenvalues 3, -1
  EXPECT_THROW(cholesky(a), std::domain_error);
}

TEST(SolveSpd, RecoversSolution) {
  const Matrix a = make({{4.0, 1.0}, {1.0, 3.0}});
  const std::vector<double> x_true{2.0, -1.0};
  // b = A x.
  const std::vector<double> b{4.0 * 2 + 1.0 * -1, 1.0 * 2 + 3.0 * -1};
  const std::vector<double> x = solve_spd(a, b);
  EXPECT_NEAR(x[0], x_true[0], 1e-12);
  EXPECT_NEAR(x[1], x_true[1], 1e-12);
}

TEST(InverseSpd, TimesOriginalIsIdentity) {
  const Matrix a =
      make({{5.0, 2.0, 1.0}, {2.0, 6.0, 2.0}, {1.0, 2.0, 7.0}});
  const Matrix inv = inverse_spd(a);
  const Matrix eye = make({{1.0, 0.0, 0.0}, {0.0, 1.0, 0.0}, {0.0, 0.0, 1.0}});
  EXPECT_NEAR(distance(a * inv, eye), 0.0, 1e-10);
}

}  // namespace
}  // namespace xp::stats
