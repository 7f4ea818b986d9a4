#include "ml/matrix.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace aps::ml {

Matrix Matrix::xavier(std::size_t rows, std::size_t cols,
                      std::uint64_t seed) {
  Matrix m(rows, cols);
  aps::Rng rng(seed);
  const double limit =
      std::sqrt(6.0 / static_cast<double>(rows + cols));
  for (auto& v : m.raw()) v = rng.uniform(-limit, limit);
  return m;
}

void argmax_rows(std::span<const double> x, std::size_t cols,
                 std::vector<int>& out) {
  out.resize(x.size() / cols);
  for (std::size_t r = 0; r < out.size(); ++r) {
    const double* row = x.data() + r * cols;
    out[r] = static_cast<int>(std::max_element(row, row + cols) - row);
  }
}

}  // namespace aps::ml
