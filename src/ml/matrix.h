// Minimal dense row-major matrix used by the from-scratch ML baselines.
// Not a general linear-algebra library: the products live in the kernel
// layer (src/ml/kernels), which the MLP and LSTM call on raw buffers.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace aps::ml {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  [[nodiscard]] double& at(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  [[nodiscard]] double* data() { return data_.data(); }
  [[nodiscard]] const double* data() const { return data_.data(); }

  [[nodiscard]] std::vector<double>& raw() { return data_; }
  [[nodiscard]] const std::vector<double>& raw() const { return data_; }

  void fill(double v) { std::fill(data_.begin(), data_.end(), v); }
  /// Reshape to rows x cols, keeping the storage: a reused scratch matrix
  /// stops allocating once it has held its largest shape. Elements that
  /// were there stay in flat order; new ones are zero.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// Xavier/Glorot uniform initialization, deterministic per seed.
  static Matrix xavier(std::size_t rows, std::size_t cols,
                       std::uint64_t seed);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// First-maximum argmax of each row of the row-major (rows x cols) block
/// x, as std::max_element picks it: out is resized to x.size() / cols.
/// How every classifier maps its probability rows to classes.
void argmax_rows(std::span<const double> x, std::size_t cols,
                 std::vector<int>& out);

}  // namespace aps::ml
