// A small dense row-major matrix of doubles — just enough linear algebra
// for the spectral dimension-selection of Sec 5 (covariance + eigen).
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

namespace pleroma::dimsel {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  double& at(std::size_t r, std::size_t c) noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double at(std::size_t r, std::size_t c) const noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  Matrix transposed() const;
  Matrix operator*(const Matrix& other) const;

  /// Subtracts from every row its own mean.
  Matrix centeredRows() const;

  /// C = M * M^T scaled by 1/(cols-1): the covariance across rows
  /// (dimensions) treating columns as observations. Requires cols >= 2.
  Matrix rowCovariance() const;

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace pleroma::dimsel
