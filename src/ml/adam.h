// Adam optimizer state (Kingma & Ba, paper ref [70]) for one parameter
// matrix. Shared by the MLP and LSTM trainers.
#pragma once

#include <cmath>

#include "ml/kernels/kernels.h"
#include "ml/matrix.h"

namespace aps::ml {

struct AdamConfig {
  double learning_rate = 0.001;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
};

class AdamState {
 public:
  AdamState() = default;
  AdamState(std::size_t rows, std::size_t cols)
      : m_(rows, cols), v_(rows, cols) {}

  /// Apply one Adam update of `param` given `grad`; `t` is the 1-based
  /// global step used for bias correction.
  void update(Matrix& param, const Matrix& grad, const AdamConfig& cfg,
              long t) {
    kernels::AdamStep step;
    step.learning_rate = cfg.learning_rate;
    step.beta1 = cfg.beta1;
    step.beta2 = cfg.beta2;
    step.epsilon = cfg.epsilon;
    step.bc1 = 1.0 - std::pow(cfg.beta1, static_cast<double>(t));
    step.bc2 = 1.0 - std::pow(cfg.beta2, static_cast<double>(t));
    kernels::adam_update(param.data(), m_.data(), v_.data(), grad.data(),
                         param.size(), step);
  }

 private:
  Matrix m_;
  Matrix v_;
};

}  // namespace aps::ml
