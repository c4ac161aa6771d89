#include "dimsel/matrix.hpp"

namespace pleroma::dimsel {

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out.at(c, r) = at(r, c);
  }
  return out;
}

Matrix Matrix::operator*(const Matrix& other) const {
  assert(cols_ == other.rows_);
  Matrix out(rows_, other.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double v = at(r, k);
      if (v == 0.0) continue;
      for (std::size_t c = 0; c < other.cols_; ++c) {
        out.at(r, c) += v * other.at(k, c);
      }
    }
  }
  return out;
}

Matrix Matrix::centeredRows() const {
  Matrix out = *this;
  for (std::size_t r = 0; r < rows_; ++r) {
    double mean = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) mean += at(r, c);
    mean /= static_cast<double>(cols_);
    for (std::size_t c = 0; c < cols_; ++c) out.at(r, c) -= mean;
  }
  return out;
}

Matrix Matrix::rowCovariance() const {
  assert(cols_ >= 2);
  Matrix out(rows_, rows_);
  const double norm = 1.0 / static_cast<double>(cols_ - 1);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = i; j < rows_; ++j) {
      double acc = 0.0;
      for (std::size_t c = 0; c < cols_; ++c) acc += at(i, c) * at(j, c);
      out.at(i, j) = acc * norm;
      out.at(j, i) = out.at(i, j);
    }
  }
  return out;
}

}  // namespace pleroma::dimsel
