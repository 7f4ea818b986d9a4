#include "ml/mlp.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

#include "ml/kernels/kernels.h"

namespace aps::ml {

namespace {

/// Rows per gradient chunk. Fixed (never derived from the thread count) so
/// the chunk partition — and with it every dropout stream and reduction
/// order — is identical no matter how many workers execute it.
constexpr std::size_t kGradChunkRows = 16;

double class_weight(std::span<const double> cw, std::size_t label) {
  return cw.empty() ? 1.0 : cw[label];
}

}  // namespace

Mlp::Mlp(MlpConfig config) : config_(std::move(config)) {}

std::size_t Mlp::parameter_count() const {
  std::size_t total = 0;
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    total += weights_[l].size() + biases_[l].size();
  }
  return total;
}

void Mlp::shape_workspace(InferenceWorkspace& ws, std::size_t rows) const {
  ws.rows = rows;
  ws.act.resize(weights_.size());
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    ws.act[l].resize(rows * weights_[l].rows());
  }
  ws.probs.resize(rows * weights_.back().cols());
}

void Mlp::standardize_row(std::span<double> row) const {
  if (config_.standardize && standardizer_.fitted()) {
    standardizer_.transform_row(row);
  }
}

void Mlp::load_rows(const Matrix& x, std::span<const std::size_t> indices,
                    ChunkWorkspace& ws) const {
  shape_workspace(ws, indices.size());
  const std::size_t width = x.cols();
  for (std::size_t r = 0; r < indices.size(); ++r) {
    double* row = ws.act[0].data() + r * width;
    std::copy_n(x.data() + indices[r] * width, width, row);
    standardize_row(std::span<double>(row, width));
  }
}

void Mlp::forward_chunk(InferenceWorkspace& ws,
                        DropoutStream* dropout) const {
  const std::size_t n = ws.rows;
  const std::size_t hidden_layers = weights_.size() - 1;
  const bool drop = config_.dropout > 0.0 && dropout != nullptr;
  const double inv_keep = 1.0 / (1.0 - config_.dropout);
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    const Matrix& w = weights_[l];
    double* z = l < hidden_layers ? ws.act[l + 1].data() : ws.probs.data();
    const std::size_t size = n * w.cols();
    std::fill_n(z, size, 0.0);
    kernels::gemm_accum(ws.act[l].data(), w.data(), z, n, w.rows(),
                        w.cols());
    kernels::add_bias_rows(z, biases_[l].data(), n, w.cols());
    if (l < hidden_layers) {
      // ReLU + inverted dropout. The dropped/kept choice is a select, so
      // the loop has no data-dependent branch.
      kernels::relu(z, size);
      if (drop) {
        for (std::size_t i = 0; i < size; ++i) {
          const bool dropped = dropout->next() < config_.dropout;
          z[i] = dropped ? 0.0 : z[i] * inv_keep;
        }
      }
    } else {
      kernels::softmax_rows(z, n, w.cols());
    }
  }
}

void Mlp::backward_chunk(ChunkWorkspace& ws, std::span<const int> y,
                         std::span<const std::size_t> indices,
                         std::span<const double> cw) const {
  const std::size_t n = ws.rows;
  const std::size_t classes = weights_.back().cols();

  // dLoss/dLogits of the weighted cross-entropy = probs - onehot
  // (scaled), in place over the probabilities; normalization by the total
  // batch weight happens after reduction.
  for (std::size_t r = 0; r < n; ++r) {
    const auto label = static_cast<std::size_t>(y[indices[r]]);
    const double w = class_weight(cw, label);
    double* row = ws.probs.data() + r * classes;
    ws.weight_sum += w;
    for (std::size_t c = 0; c < classes; ++c) {
      row[c] = w * (row[c] - (c == label ? 1.0 : 0.0));
    }
  }

  // A unit passed backward iff its activation is positive; a dropped unit
  // has activation 0, so the kept units' inverted-dropout scale is the
  // whole mask.
  const double keep_scale =
      config_.dropout > 0.0 ? 1.0 / (1.0 - config_.dropout) : 1.0;
  const double* delta = ws.probs.data();
  for (std::size_t l = weights_.size(); l-- > 0;) {
    const Matrix& w = weights_[l];
    const std::size_t out = w.cols();
    // The chunk gradients start at +0.0, and a sum started at +0.0 never
    // becomes -0.0, so accumulating here equals adding a fresh product.
    kernels::gemm_tn_accum(ws.act[l].data(), delta, ws.grad_w[l].data(), n,
                           w.rows(), out);
    double* gb = ws.grad_b[l].data();
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < out; ++c) gb[c] += delta[r * out + c];
    }
    if (l > 0) {
      double* prev = ws.delta_prev.data();
      kernels::gemm_nt(delta, w.data(), prev, n, out, w.rows());
      const double* act = ws.act[l].data();
      for (std::size_t i = 0; i < n * w.rows(); ++i) {
        prev[i] *= act[i] > 0.0 ? keep_scale : 0.0;
      }
      ws.delta.swap(ws.delta_prev);
      delta = ws.delta.data();
    }
  }
}

void Mlp::load_input(std::span<const double> features, std::size_t rows,
                     InferenceWorkspace& ws) const {
  const std::size_t width = weights_.front().rows();
  assert(features.size() == rows * width);
  ws.rows = rows;
  if (ws.act.empty()) ws.act.emplace_back();
  ws.act[0].assign(features.begin(), features.end());
  for (std::size_t r = 0; r < rows; ++r) {
    standardize_row(std::span<double>(ws.act[0].data() + r * width, width));
  }
}

void Mlp::infer(std::span<const double> features, std::size_t rows,
                InferenceWorkspace& ws) const {
  load_input(features, rows, ws);
  shape_workspace(ws, rows);
  forward_chunk(ws, nullptr);
}

double Mlp::evaluate_loss(const Matrix& x, std::span<const int> y,
                          std::span<const std::size_t> indices,
                          std::span<const double> cw,
                          std::span<ChunkWorkspace> workspaces,
                          aps::ThreadPool* pool) const {
  if (indices.empty()) return 0.0;
  const std::size_t classes = weights_.back().cols();
  const std::size_t chunks =
      (indices.size() + kGradChunkRows - 1) / kGradChunkRows;
  std::vector<double> row_loss(indices.size());
  // Workspace `slot` serves chunks slot, slot + slots, ...; each row's
  // loss term does not depend on which slot computed it.
  const std::size_t slots = std::min(chunks, workspaces.size());
  const auto run_slot = [&](std::size_t slot) {
    ChunkWorkspace& ws = workspaces[slot];
    for (std::size_t chunk = slot; chunk < chunks; chunk += slots) {
      const std::size_t begin = chunk * kGradChunkRows;
      const std::size_t end = std::min(indices.size(), begin + kGradChunkRows);
      load_rows(x, indices.subspan(begin, end - begin), ws);
      forward_chunk(ws, nullptr);
      for (std::size_t r = 0; r < ws.rows; ++r) {
        const auto label = static_cast<std::size_t>(y[indices[begin + r]]);
        const double p = ws.probs[r * classes + label];
        row_loss[begin + r] =
            class_weight(cw, label) * std::log(std::max(p, 1e-12));
      }
    }
  };
  if (pool != nullptr && slots > 1) {
    pool->parallel_for(slots, run_slot);
  } else {
    for (std::size_t slot = 0; slot < slots; ++slot) run_slot(slot);
  }
  double loss = 0.0;
  double weight_sum = 0.0;
  for (std::size_t r = 0; r < indices.size(); ++r) {
    weight_sum += class_weight(cw, static_cast<std::size_t>(y[indices[r]]));
    loss -= row_loss[r];
  }
  return weight_sum > 0.0 ? loss / weight_sum : 0.0;
}

double Mlp::fit(const Dataset& data, aps::ThreadPool* pool) {
  assert(data.size() > 0);
  config_.classes = data.classes;
  dropout_seed_ = derive_seed(config_.seed, 0xD120u);

  if (config_.standardize) standardizer_.fit(data.x);

  // Architecture: input -> hidden... -> classes.
  layer_sizes_.clear();
  layer_sizes_.push_back(data.features());
  for (const std::size_t h : config_.hidden_units) {
    layer_sizes_.push_back(h);
  }
  layer_sizes_.push_back(static_cast<std::size_t>(config_.classes));

  weights_.clear();
  biases_.clear();
  w_adam_.clear();
  b_adam_.clear();
  for (std::size_t l = 0; l + 1 < layer_sizes_.size(); ++l) {
    weights_.push_back(Matrix::xavier(layer_sizes_[l], layer_sizes_[l + 1],
                                      derive_seed(config_.seed, l)));
    biases_.emplace_back(1, layer_sizes_[l + 1]);
    w_adam_.emplace_back(layer_sizes_[l], layer_sizes_[l + 1]);
    b_adam_.emplace_back(std::size_t{1}, layer_sizes_[l + 1]);
  }

  // Deterministic train/validation split for early stopping.
  aps::Rng rng = aps::Rng(config_.seed).split(0xA11CE);
  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::shuffle(order.begin(), order.end(), rng.engine());
  const auto val_count = static_cast<std::size_t>(
      config_.validation_fraction * static_cast<double>(data.size()));
  std::vector<std::size_t> val_idx(order.begin(),
                                   order.begin() + static_cast<long>(val_count));
  std::vector<std::size_t> train_idx(order.begin() + static_cast<long>(val_count),
                                     order.end());
  if (train_idx.empty()) {
    train_idx = order;
    val_idx.clear();
  }
  // Without a validation split, the loss is taken over every row in
  // dataset order.
  if (val_idx.empty()) {
    val_idx.resize(data.size());
    std::iota(val_idx.begin(), val_idx.end(), std::size_t{0});
  }

  std::vector<double> cw;
  if (config_.use_class_weights) cw = class_weights(data);

  double best_val = std::numeric_limits<double>::infinity();
  std::vector<Matrix> best_weights;
  std::vector<Matrix> best_biases;
  int patience_left = config_.early_stopping_patience;
  long step = 0;
  epoch_losses_.clear();

  // One workspace per chunk of a full minibatch, reused by every step and
  // validation pass of this call. They are sized here, on the thread that
  // calls fit: sized inside the chunk tasks, the buffers would land in
  // every worker's malloc arena and stay resident there after fit returns.
  std::vector<ChunkWorkspace> workspaces(
      (config_.batch_size + kGradChunkRows - 1) / kGradChunkRows);
  std::vector<Matrix> grad_w;
  std::vector<Matrix> grad_b;
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    grad_w.emplace_back(weights_[l].rows(), weights_[l].cols());
    grad_b.emplace_back(std::size_t{1}, biases_[l].cols());
  }
  std::size_t widest_hidden = 0;
  for (const std::size_t h : config_.hidden_units) {
    widest_hidden = std::max(widest_hidden, h);
  }
  for (auto& ws : workspaces) {
    shape_workspace(ws, kGradChunkRows);
    ws.delta.resize(kGradChunkRows * widest_hidden);
    ws.delta_prev.resize(kGradChunkRows * widest_hidden);
    ws.grad_w = grad_w;
    ws.grad_b = grad_b;
  }
  const auto zero = [](std::vector<Matrix>& grads) {
    for (Matrix& g : grads) std::fill(g.raw().begin(), g.raw().end(), 0.0);
  };

  for (int epoch = 0; epoch < config_.max_epochs; ++epoch) {
    std::shuffle(train_idx.begin(), train_idx.end(), rng.engine());
    for (std::size_t start = 0; start < train_idx.size();
         start += config_.batch_size) {
      const std::size_t end =
          std::min(train_idx.size(), start + config_.batch_size);
      ++step;

      // Chunk-parallel gradients: each fixed-size chunk accumulates its
      // own; reduction in chunk order keeps the update thread-count
      // invariant.
      const std::size_t chunks =
          (end - start + kGradChunkRows - 1) / kGradChunkRows;
      const auto run_chunk = [&](std::size_t chunk) {
        ChunkWorkspace& ws = workspaces[chunk];
        zero(ws.grad_w);
        zero(ws.grad_b);
        ws.weight_sum = 0.0;
        const std::size_t begin = start + chunk * kGradChunkRows;
        const auto rows = std::span<const std::size_t>(train_idx).subspan(
            begin, std::min(end, begin + kGradChunkRows) - begin);
        // Per-(step, chunk) dropout stream: independent of both the
        // shuffle RNG and the executing thread.
        DropoutStream dropout{derive_seed(
            derive_seed(dropout_seed_, static_cast<std::uint64_t>(step)),
            chunk)};
        load_rows(data.x, rows, ws);
        forward_chunk(ws, &dropout);
        backward_chunk(ws, data.y, rows, cw);
      };
      if (pool != nullptr && chunks > 1) {
        pool->parallel_for(chunks, run_chunk);
      } else {
        for (std::size_t chunk = 0; chunk < chunks; ++chunk) run_chunk(chunk);
      }

      // Deterministic reduction: chunk order, then normalize by the batch
      // weight and apply one Adam step.
      zero(grad_w);
      zero(grad_b);
      double weight_sum = 0.0;
      for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
        const ChunkWorkspace& ws = workspaces[chunk];
        weight_sum += ws.weight_sum;
        for (std::size_t l = 0; l < weights_.size(); ++l) {
          auto& gw = grad_w[l].raw();
          auto& gb = grad_b[l].raw();
          for (std::size_t i = 0; i < gw.size(); ++i) {
            gw[i] += ws.grad_w[l].raw()[i];
          }
          for (std::size_t i = 0; i < gb.size(); ++i) {
            gb[i] += ws.grad_b[l].raw()[i];
          }
        }
      }
      const double norm = weight_sum > 0.0 ? weight_sum : 1.0;
      for (std::size_t l = 0; l < weights_.size(); ++l) {
        for (auto& v : grad_w[l].raw()) v /= norm;
        for (auto& v : grad_b[l].raw()) v /= norm;
        w_adam_[l].update(weights_[l], grad_w[l], config_.adam, step);
        b_adam_[l].update(biases_[l], grad_b[l], config_.adam, step);
      }
    }
    const double val_loss =
        evaluate_loss(data.x, data.y, val_idx, cw, workspaces, pool);
    epoch_losses_.push_back(val_loss);
    if (val_loss < best_val - 1e-5) {
      best_val = val_loss;
      best_weights = weights_;
      best_biases = biases_;
      patience_left = config_.early_stopping_patience;
    } else if (--patience_left <= 0) {
      break;
    }
  }
  if (!best_weights.empty()) {
    weights_ = std::move(best_weights);
    biases_ = std::move(best_biases);
  }
  f32_slot_.reset();  // weights changed; the float32 mirror is stale
  return best_val;
}

std::vector<double> Mlp::predict_proba(
    std::span<const double> features) const {
  assert(trained());
  InferenceWorkspace ws;
  infer(features, 1, ws);
  return std::move(ws.probs);
}

int Mlp::predict(std::span<const double> features) const {
  const auto probs = predict_proba(features);
  return static_cast<int>(
      std::max_element(probs.begin(), probs.end()) - probs.begin());
}

void Mlp::predict_batch(const Matrix& features, std::vector<int>& out,
                        InferenceWorkspace& ws) const {
  assert(trained());
  infer(features.raw(), features.rows(), ws);
  argmax_rows(ws.probs, weights_.back().cols(), out);
}

std::vector<int> Mlp::predict_batch(const Matrix& features) const {
  InferenceWorkspace ws;
  std::vector<int> out;
  predict_batch(features, out, ws);
  return out;
}

std::shared_ptr<const Mlp::F32Weights> Mlp::f32_weights() const {
  return f32_slot_.get([this] {
    auto cache = std::make_shared<F32Weights>();
    cache->w.reserve(weights_.size());
    cache->b.reserve(weights_.size());
    for (std::size_t l = 0; l < weights_.size(); ++l) {
      std::vector<float> w(weights_[l].raw().size());
      for (std::size_t i = 0; i < w.size(); ++i) {
        w[i] = static_cast<float>(weights_[l].raw()[i]);
      }
      std::vector<float> b(biases_[l].raw().size());
      for (std::size_t i = 0; i < b.size(); ++i) {
        b[i] = static_cast<float>(biases_[l].raw()[i]);
      }
      cache->w.push_back(std::move(w));
      cache->b.push_back(std::move(b));
      cache->out_dims.push_back(weights_[l].cols());
    }
    return cache;
  });
}

void Mlp::warm_f32_cache() const { (void)f32_weights(); }

void Mlp::infer_f32(std::span<const double> features, std::size_t rows,
                    InferenceWorkspace& ws) const {
  load_input(features, rows, ws);
  const auto wts = f32_weights();
  const std::size_t hidden_layers = wts->w.size() - 1;
  ws.act32.assign(ws.act[0].begin(), ws.act[0].end());
  std::size_t width = weights_.front().rows();
  for (std::size_t l = 0; l < wts->w.size(); ++l) {
    const std::size_t out_dim = wts->out_dims[l];
    ws.z32.resize(rows * out_dim);
    kernels::fill_bias_rows_f32(ws.z32.data(), wts->b[l].data(), rows,
                                out_dim);
    kernels::gemm_accum_f32(ws.act32.data(), wts->w[l].data(), ws.z32.data(),
                            rows, width, out_dim);
    if (l < hidden_layers) kernels::relu_f32(ws.z32.data(), ws.z32.size());
    ws.act32.swap(ws.z32);
    width = out_dim;
  }
  // The float64 path's softmax, in double over the float32 logits.
  ws.probs.assign(ws.act32.begin(), ws.act32.end());
  kernels::softmax_rows(ws.probs.data(), rows, width);
}

void Mlp::predict_batch_f32(const Matrix& features, std::vector<int>& out,
                            InferenceWorkspace& ws) const {
  assert(trained());
  infer_f32(features.raw(), features.rows(), ws);
  argmax_rows(ws.probs, weights_.back().cols(), out);
}

std::vector<double> Mlp::predict_proba_f32(
    std::span<const double> features) const {
  assert(trained());
  InferenceWorkspace ws;
  infer_f32(features, 1, ws);
  return std::move(ws.probs);
}

}  // namespace aps::ml
