#include "dimsel/matrix.hpp"

#include <gtest/gtest.h>

namespace pleroma::dimsel {
namespace {

TEST(Matrix, ConstructAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.at(1, 2), 1.5);
  m.at(0, 1) = 7.0;
  EXPECT_EQ(m.at(0, 1), 7.0);
}

TEST(Matrix, Transpose) {
  Matrix m(2, 3);
  m.at(0, 0) = 1;
  m.at(0, 2) = 3;
  m.at(1, 1) = 5;
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t.at(0, 0), 1);
  EXPECT_EQ(t.at(2, 0), 3);
  EXPECT_EQ(t.at(1, 1), 5);
}

TEST(Matrix, Multiply) {
  Matrix a(2, 2);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 3;
  a.at(1, 1) = 4;
  Matrix b(2, 2);
  b.at(0, 0) = 5;
  b.at(0, 1) = 6;
  b.at(1, 0) = 7;
  b.at(1, 1) = 8;
  const Matrix c = a * b;
  EXPECT_EQ(c.at(0, 0), 19);
  EXPECT_EQ(c.at(0, 1), 22);
  EXPECT_EQ(c.at(1, 0), 43);
  EXPECT_EQ(c.at(1, 1), 50);
}

TEST(Matrix, MultiplyIdentity) {
  Matrix a(2, 2);
  a.at(0, 0) = 2;
  a.at(1, 1) = 3;
  a.at(0, 1) = -1;
  Matrix id(2, 2);
  id.at(0, 0) = id.at(1, 1) = 1;
  EXPECT_EQ(a * id, a);
  EXPECT_EQ(id * a, a);
}

TEST(Matrix, CenteredRowsZeroMean) {
  Matrix m(2, 3);
  m.at(0, 0) = 1;
  m.at(0, 1) = 2;
  m.at(0, 2) = 3;
  const Matrix c = m.centeredRows();
  double sum = 0;
  for (std::size_t col = 0; col < 3; ++col) sum += c.at(0, col);
  EXPECT_NEAR(sum, 0.0, 1e-12);
}

TEST(Matrix, RowCovarianceOfPerfectlyCorrelatedRows) {
  // Row 1 = 2 * row 0: covariance matrix must be rank 1 and symmetric.
  Matrix m(2, 4);
  for (std::size_t c = 0; c < 4; ++c) {
    m.at(0, c) = static_cast<double>(c);
    m.at(1, c) = 2.0 * static_cast<double>(c);
  }
  const Matrix cov = m.centeredRows().rowCovariance();
  EXPECT_EQ(cov, cov.transposed());
  EXPECT_NEAR(cov.at(0, 1) * cov.at(1, 0), cov.at(0, 0) * cov.at(1, 1), 1e-9);
  EXPECT_NEAR(cov.at(1, 1), 4.0 * cov.at(0, 0), 1e-9);
}

TEST(Matrix, RowCovarianceDiagonalIsVariance) {
  Matrix m(1, 5);
  const double vals[] = {2, 4, 4, 4, 6};
  for (std::size_t c = 0; c < 5; ++c) m.at(0, c) = vals[c];
  const Matrix cov = m.centeredRows().rowCovariance();
  // Sample variance of {2,4,4,4,6} = 2.
  EXPECT_NEAR(cov.at(0, 0), 2.0, 1e-12);
}

}  // namespace
}  // namespace pleroma::dimsel
