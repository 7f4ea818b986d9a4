#include "ml/lstm.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

#include "ml/kernels/kernels.h"

namespace aps::ml {

Lstm::Lstm(LstmConfig config) : config_(std::move(config)) {}

std::size_t Lstm::parameter_count() const {
  std::size_t total = head_w.size() + head_b.size();
  for (const auto& layer : layers_) {
    total += layer.w.size() + layer.u.size() + layer.b.size();
  }
  return total;
}

void Lstm::init_layers(std::size_t input_features) {
  layers_.clear();
  std::size_t in = input_features;
  std::size_t tag = 0;
  for (const std::size_t h : config_.hidden_units) {
    Layer layer;
    layer.hidden = h;
    layer.w = Matrix::xavier(in, 4 * h, derive_seed(config_.seed, tag++));
    layer.u = Matrix::xavier(h, 4 * h, derive_seed(config_.seed, tag++));
    layer.b = Matrix(1, 4 * h);
    // Forget-gate bias init to 1 (standard stabilization).
    for (std::size_t j = h; j < 2 * h; ++j) layer.b.at(0, j) = 1.0;
    layer.w_adam = AdamState(in, 4 * h);
    layer.u_adam = AdamState(h, 4 * h);
    layer.b_adam = AdamState(1, 4 * h);
    layers_.push_back(std::move(layer));
    in = h;
  }
  const auto classes = static_cast<std::size_t>(config_.classes);
  head_w = Matrix::xavier(in, classes, derive_seed(config_.seed, tag++));
  head_b = Matrix(1, classes);
  head_w_adam_ = AdamState(in, classes);
  head_b_adam_ = AdamState(1, classes);
}

namespace {

/// Samples per gradient/loss chunk. Fixed (never derived from the thread
/// count) so the chunk partition and reduction order are identical no
/// matter how many workers execute them.
constexpr std::size_t kLstmChunkSamples = 8;

}  // namespace

Lstm::StackGradients Lstm::zero_gradients() const {
  StackGradients grads;
  grads.layers.reserve(layers_.size());
  for (const auto& layer : layers_) {
    grads.layers.push_back(Gradients{Matrix(layer.w.rows(), layer.w.cols()),
                                     Matrix(layer.u.rows(), layer.u.cols()),
                                     Matrix(1, layer.b.cols())});
  }
  grads.head_w = Matrix(head_w.rows(), head_w.cols());
  grads.head_b = Matrix(1, head_b.cols());
  return grads;
}

Matrix& Lstm::StackGradients::matrix(std::size_t k) {
  if (k < 3 * layers.size()) {
    Gradients& layer = layers[k / 3];
    return k % 3 == 0 ? layer.w : k % 3 == 1 ? layer.u : layer.b;
  }
  return k == 3 * layers.size() ? head_w : head_b;
}

void Lstm::shape_workspace(ChunkWorkspace& ws, std::size_t lanes,
                           std::size_t steps, std::size_t features) const {
  ws.lanes = lanes;
  ws.steps = steps;
  const std::size_t rows = lanes * steps;
  // Buffers reused by every layer get the widest layer's size.
  std::size_t widest = features;
  ws.layers.resize(layers_.size());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const std::size_t h_size = layers_[l].hidden;
    LayerCache& lc = ws.layers[l];
    for (auto* v : {&lc.i, &lc.f, &lc.g, &lc.o, &lc.c, &lc.h, &lc.tanh_c}) {
      v->resize(rows * h_size);
    }
    widest = std::max(widest, h_size);
  }
  ws.x.resize(rows * features);
  ws.label.resize(lanes);
  ws.weight.resize(lanes);
  ws.z.resize(lanes * 4 * widest);
  ws.probs.resize(lanes * head_b.cols());
  ws.dh_out.resize(rows * widest);
  ws.dx.resize(rows * widest);
  ws.dh_next.resize(lanes * widest);
  ws.dc_next.resize(lanes * widest);
  ws.dz_rows.resize(rows * 4 * widest);
  ws.in_rows.resize(rows * widest);
  ws.h_rows.resize(rows * widest);
}

void Lstm::load_chunk(const SequenceDataset& data,
                      std::span<const std::size_t> indices,
                      std::span<const double> cw, ChunkWorkspace& ws) const {
  const std::size_t lanes = indices.size();
  const std::size_t steps = data.steps();
  const std::size_t width = data.features();
  shape_workspace(ws, lanes, steps, width);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const Matrix& window = data.sequences[indices[lane]];
    assert(window.rows() == steps && window.cols() == width);
    for (std::size_t t = 0; t < steps; ++t) {
      double* row = ws.x.data() + (t * lanes + lane) * width;
      std::copy_n(window.data() + t * width, width, row);
      standardize_row(std::span<double>(row, width));
    }
    const auto label = static_cast<std::size_t>(data.labels[indices[lane]]);
    ws.label[lane] = label;
    ws.weight[lane] = cw.empty() ? 1.0 : cw[label];
  }
}

// Batched like the inference pass (forward_layers): per step, one bias
// fill and two B-row GEMMs, then the same gate sequence, caching every
// activation for BPTT.
void Lstm::forward_chunk(ChunkWorkspace& ws) const {
  const std::size_t lanes = ws.lanes;
  const std::size_t steps = ws.steps;
  const double* in = ws.x.data();
  std::size_t width = ws.x.size() / (steps * lanes);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const auto& layer = layers_[l];
    const std::size_t h_size = layer.hidden;
    LayerCache& lc = ws.layers[l];
    for (std::size_t t = 0; t < steps; ++t) {
      double* z = ws.z.data();
      kernels::fill_bias_rows(z, layer.b.data(), lanes, 4 * h_size);
      kernels::gemm_accum(in + t * lanes * width, layer.w.data(), z, lanes,
                          width, 4 * h_size);
      // At t == 0 the hidden state is all zeros, which the GEMM's zero
      // skip would pass over anyway.
      if (t > 0) {
        kernels::gemm_accum(lc.h.data() + (t - 1) * lanes * h_size,
                            layer.u.data(), z, lanes, h_size, 4 * h_size);
      }
      const std::size_t step = t * lanes * h_size;
      kernels::lstm_gates_cached(
          z, t > 0 ? lc.c.data() + step - lanes * h_size : nullptr,
          {lc.i.data() + step, lc.f.data() + step, lc.g.data() + step,
           lc.o.data() + step, lc.c.data() + step, lc.tanh_c.data() + step,
           lc.h.data() + step},
          lanes, h_size);
    }
    in = lc.h.data();
    width = h_size;
  }

  // Dense head on each lane's final hidden state: one B-row GEMM.
  const std::size_t classes = head_b.cols();
  kernels::fill_bias_rows(ws.probs.data(), head_b.data(), lanes, classes);
  kernels::gemm_accum(in + (steps - 1) * lanes * width, head_w.data(),
                      ws.probs.data(), lanes, width, classes);
  kernels::softmax_rows(ws.probs.data(), lanes, classes);
}

void Lstm::backward_chunk(ChunkWorkspace& ws) const {
  const std::size_t lanes = ws.lanes;
  const std::size_t steps = ws.steps;
  const std::size_t rows = lanes * steps;
  const std::size_t classes = head_b.cols();
  StackGradients& grads = ws.grads;
  // Row of (lane, t) in the stacked BPTT operands.
  const auto grad_row = [steps](std::size_t lane, std::size_t t) {
    return lane * steps + (steps - 1 - t);
  };

  // dLoss/dlogits, in place over the probabilities.
  double* dlogits = ws.probs.data();
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    for (std::size_t cidx = 0; cidx < classes; ++cidx) {
      double& v = dlogits[lane * classes + cidx];
      v = ws.weight[lane] * (v - (cidx == ws.label[lane] ? 1.0 : 0.0));
    }
  }

  const std::size_t top = layers_.back().hidden;
  const double* last_h =
      ws.layers.back().h.data() + (steps - 1) * lanes * top;
  // The per-window head gradient had no zero skip; the skip only drops
  // +-0 terms, which leave a sum that started at +0 unchanged.
  kernels::gemm_tn_accum(last_h, dlogits, grads.head_w.data(), lanes, top,
                         classes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    for (std::size_t cidx = 0; cidx < classes; ++cidx) {
      grads.head_b.at(0, cidx) += dlogits[lane * classes + cidx];
    }
  }

  // Gradient of the loss wrt the top layer's hidden output at each step:
  // only the last step receives signal from the head.
  std::fill_n(ws.dh_out.data(), steps * lanes * top, 0.0);
  kernels::gemm_nt(dlogits, head_w.data(),
                   ws.dh_out.data() + (steps - 1) * lanes * top, lanes,
                   classes, top);

  // BPTT layer by layer, top to bottom.
  for (std::size_t l = layers_.size(); l-- > 0;) {
    const auto& layer = layers_[l];
    const LayerCache& lc = ws.layers[l];
    const std::size_t h_size = layer.hidden;
    const std::size_t gates = 4 * h_size;
    const std::size_t in_size = layer.w.rows();
    const double* inputs = l == 0 ? ws.x.data() : ws.layers[l - 1].h.data();

    std::fill_n(ws.dh_next.data(), lanes * h_size, 0.0);
    std::fill_n(ws.dc_next.data(), lanes * h_size, 0.0);

    for (std::size_t t = steps; t-- > 0;) {
      double* dz = ws.z.data();
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        const std::size_t base = (t * lanes + lane) * h_size;
        double* dzr = dz + lane * gates;
        double* dh_next = ws.dh_next.data() + lane * h_size;
        double* dc_next = ws.dc_next.data() + lane * h_size;
        for (std::size_t j = 0; j < h_size; ++j) {
          const std::size_t at = base + j;
          const double dh = ws.dh_out[at] + dh_next[j];
          const double tanh_c = lc.tanh_c[at];
          const double go = lc.o[at];
          const double dc = dh * go * (1.0 - tanh_c * tanh_c) + dc_next[j];
          const double gi = lc.i[at];
          const double gf = lc.f[at];
          const double gg = lc.g[at];
          const double c_prev = t > 0 ? lc.c[at - lanes * h_size] : 0.0;
          // Gate pre-activation gradients.
          dzr[j] = dc * gg * gi * (1.0 - gi);                    // input gate
          dzr[h_size + j] = dc * c_prev * gf * (1.0 - gf);       // forget
          dzr[2 * h_size + j] = dc * gi * (1.0 - gg * gg);       // candidate
          dzr[3 * h_size + j] = dh * tanh_c * go * (1.0 - go);   // output
          dc_next[j] = dc * gf;
        }
        std::copy_n(dzr, gates,
                    ws.dz_rows.data() + grad_row(lane, t) * gates);
      }
      // Propagate to the previous step's hidden state and this step's
      // input: fresh ascending-k dot products, no zero skip.
      kernels::gemm_nt(dz, layer.u.data(), ws.dh_next.data(), lanes, gates,
                       h_size);
      if (l > 0) {  // the bottom layer's input gradient is not needed
        kernels::gemm_nt(dz, layer.w.data(),
                         ws.dx.data() + t * lanes * in_size, lanes, gates,
                         in_size);
      }
    }

    // Parameter gradients: one fused-transpose GEMM per matrix over the
    // stacked rows, whose ascending-row order with the zero skip is the
    // per-window accumulation. h_{-1} is a zero row, skipped like the
    // t > 0 guard of a per-window pass.
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      for (std::size_t t = 0; t < steps; ++t) {
        const std::size_t row = grad_row(lane, t);
        std::copy_n(inputs + (t * lanes + lane) * in_size, in_size,
                    ws.in_rows.data() + row * in_size);
        double* h_prev = ws.h_rows.data() + row * h_size;
        if (t == 0) {
          std::fill_n(h_prev, h_size, 0.0);
        } else {
          std::copy_n(lc.h.data() + ((t - 1) * lanes + lane) * h_size, h_size,
                      h_prev);
        }
      }
    }
    auto& lg = grads.layers[l];
    kernels::gemm_tn_accum(ws.in_rows.data(), ws.dz_rows.data(), lg.w.data(),
                           rows, in_size, gates);
    kernels::gemm_tn_accum(ws.h_rows.data(), ws.dz_rows.data(), lg.u.data(),
                           rows, h_size, gates);
    for (std::size_t row = 0; row < rows; ++row) {
      const double* dzr = ws.dz_rows.data() + row * gates;
      for (std::size_t jj = 0; jj < gates; ++jj) lg.b.raw()[jj] += dzr[jj];
    }
    if (l > 0) ws.dh_out.swap(ws.dx);  // output gradient of the layer below
  }
}

double Lstm::evaluate_loss(const SequenceDataset& data,
                           std::span<const std::size_t> indices,
                           std::span<const double> cw,
                           std::span<ChunkWorkspace> workspaces,
                           aps::ThreadPool* pool) const {
  if (indices.empty()) return 0.0;
  const std::size_t chunks =
      (indices.size() + kLstmChunkSamples - 1) / kLstmChunkSamples;
  std::vector<double> loss_sum(chunks, 0.0);
  std::vector<double> weight_sum(chunks, 0.0);
  // Workspace `slot` serves chunks slot, slot + slots, ...; the per-chunk
  // sums do not depend on which slot computed them.
  const std::size_t slots = std::min(chunks, workspaces.size());
  const auto run_slot = [&](std::size_t slot) {
    ChunkWorkspace& ws = workspaces[slot];
    for (std::size_t chunk = slot; chunk < chunks; chunk += slots) {
      const std::size_t begin = chunk * kLstmChunkSamples;
      const std::size_t end =
          std::min(indices.size(), begin + kLstmChunkSamples);
      load_chunk(data, indices.subspan(begin, end - begin), cw, ws);
      forward_chunk(ws);
      const std::size_t classes = head_b.cols();
      for (std::size_t lane = 0; lane < ws.lanes; ++lane) {
        const double p = ws.probs[lane * classes + ws.label[lane]];
        weight_sum[chunk] += ws.weight[lane];
        loss_sum[chunk] -= ws.weight[lane] * std::log(std::max(p, 1e-12));
      }
    }
  };
  if (pool != nullptr && slots > 1) {
    pool->parallel_for(slots, run_slot);
  } else {
    for (std::size_t slot = 0; slot < slots; ++slot) run_slot(slot);
  }
  double loss = 0.0;
  double weights = 0.0;
  for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
    loss += loss_sum[chunk];
    weights += weight_sum[chunk];
  }
  return weights > 0.0 ? loss / weights : 0.0;
}

double Lstm::fit(const SequenceDataset& data, aps::ThreadPool* pool) {
  assert(data.size() > 0);
  config_.classes = data.classes;

  // Over all rows of all windows, in place.
  if (config_.standardize) standardizer_.fit(data.sequences);

  init_layers(data.features());

  // Class weights for imbalance.
  std::vector<double> cw;
  if (config_.use_class_weights) cw = class_weights(data.labels, data.classes);

  aps::Rng rng = aps::Rng(config_.seed).split(0xB0B);
  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::shuffle(order.begin(), order.end(), rng.engine());
  const auto val_count = static_cast<std::size_t>(
      config_.validation_fraction * static_cast<double>(data.size()));
  const std::vector<std::size_t> val_idx(
      order.begin(), order.begin() + static_cast<long>(val_count));
  std::vector<std::size_t> train_idx(
      order.begin() + static_cast<long>(val_count), order.end());
  if (train_idx.empty()) {
    train_idx = order;
  }

  double best_val = std::numeric_limits<double>::infinity();
  std::vector<Layer> best_layers;
  Matrix best_head_w, best_head_b;
  int patience_left = config_.early_stopping_patience;
  long step = 0;
  epoch_losses_.clear();

  // One workspace per chunk of a full minibatch, reused by every step and
  // validation pass of this call. They are sized here, on the thread that
  // calls fit: sized inside the chunk tasks, the buffers would land in
  // every worker's malloc arena and stay resident there after fit returns.
  std::vector<ChunkWorkspace> workspaces(
      (config_.batch_size + kLstmChunkSamples - 1) / kLstmChunkSamples);
  for (auto& ws : workspaces) {
    ws.grads = zero_gradients();
    shape_workspace(ws, kLstmChunkSamples, data.steps(), data.features());
  }
  StackGradients total = zero_gradients();
  const auto zero = [](StackGradients& grads) {
    for (std::size_t k = 0; k < grads.matrix_count(); ++k) {
      auto& m = grads.matrix(k).raw();
      std::fill(m.begin(), m.end(), 0.0);
    }
  };

  for (int epoch = 0; epoch < config_.max_epochs; ++epoch) {
    std::shuffle(train_idx.begin(), train_idx.end(), rng.engine());
    for (std::size_t start = 0; start < train_idx.size();
         start += config_.batch_size) {
      const std::size_t end =
          std::min(train_idx.size(), start + config_.batch_size);

      // Chunk-parallel BPTT: each fixed-size chunk accumulates its own
      // gradients; reduction in chunk order keeps the update thread-count
      // invariant.
      const std::size_t batch_n = end - start;
      const std::size_t chunks =
          (batch_n + kLstmChunkSamples - 1) / kLstmChunkSamples;
      const auto run_chunk = [&](std::size_t chunk) {
        ChunkWorkspace& ws = workspaces[chunk];
        zero(ws.grads);
        const std::size_t chunk_begin = start + chunk * kLstmChunkSamples;
        const std::size_t chunk_end =
            std::min(end, chunk_begin + kLstmChunkSamples);
        load_chunk(data,
                   std::span<const std::size_t>(train_idx).subspan(
                       chunk_begin, chunk_end - chunk_begin),
                   cw, ws);
        forward_chunk(ws);
        backward_chunk(ws);
      };
      if (pool != nullptr && chunks > 1) {
        pool->parallel_for(chunks, run_chunk);
      } else {
        for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
          run_chunk(chunk);
        }
      }

      zero(total);
      for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
        StackGradients& part = workspaces[chunk].grads;
        for (std::size_t k = 0; k < total.matrix_count(); ++k) {
          auto& acc = total.matrix(k).raw();
          const auto& add = part.matrix(k).raw();
          for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += add[i];
        }
      }
      const double inv_batch = 1.0 / static_cast<double>(batch_n);
      for (std::size_t k = 0; k < total.matrix_count(); ++k) {
        for (auto& v : total.matrix(k).raw()) v *= inv_batch;
      }

      ++step;
      for (std::size_t l = 0; l < layers_.size(); ++l) {
        layers_[l].w_adam.update(layers_[l].w, total.layers[l].w,
                                 config_.adam, step);
        layers_[l].u_adam.update(layers_[l].u, total.layers[l].u,
                                 config_.adam, step);
        layers_[l].b_adam.update(layers_[l].b, total.layers[l].b,
                                 config_.adam, step);
      }
      head_w_adam_.update(head_w, total.head_w, config_.adam, step);
      head_b_adam_.update(head_b, total.head_b, config_.adam, step);
    }

    const double val_loss =
        evaluate_loss(data, val_idx.empty() ? train_idx : val_idx, cw,
                      workspaces, pool);
    epoch_losses_.push_back(val_loss);
    if (val_loss < best_val - 1e-5) {
      best_val = val_loss;
      best_layers = layers_;
      best_head_w = head_w;
      best_head_b = head_b;
      patience_left = config_.early_stopping_patience;
    } else if (--patience_left <= 0) {
      break;
    }
  }
  if (!best_layers.empty()) {
    layers_ = std::move(best_layers);
    head_w = std::move(best_head_w);
    head_b = std::move(best_head_b);
  }
  f32_slot_.reset();  // weights changed; the float32 mirror is stale
  return best_val;
}

void Lstm::load_window(const Matrix& window, std::size_t lane,
                       std::size_t n, double* x) const {
  const std::size_t width = window.cols();
  for (std::size_t t = 0; t < window.rows(); ++t) {
    double* row = x + (t * n + lane) * width;
    std::copy_n(window.data() + t * width, width, row);
    standardize_row(std::span<double>(row, width));
  }
}

std::vector<double> Lstm::predict_proba(const Matrix& window) const {
  assert(trained());
  InferenceWorkspace ws;
  ws.f64.x.resize(window.size());
  load_window(window, 0, 1, ws.f64.x.data());
  std::vector<int> out;
  predict_batch_standardized(ws.f64.x, 1, window.rows(), out, ws);
  return std::move(ws.probs);
}

int Lstm::predict(const Matrix& window) const {
  const auto probs = predict_proba(window);
  return static_cast<int>(
      std::max_element(probs.begin(), probs.end()) - probs.begin());
}

void Lstm::standardize_row(std::span<double> row) const {
  if (!config_.standardize || !standardizer_.fitted()) return;
  standardizer_.transform_row(row);
}

namespace {

// The per-precision kernels behind forward_layers.
void fill_bias_rows(double* z, const double* b, std::size_t rows,
                    std::size_t cols) {
  kernels::fill_bias_rows(z, b, rows, cols);
}
void fill_bias_rows(float* z, const float* b, std::size_t rows,
                    std::size_t cols) {
  kernels::fill_bias_rows_f32(z, b, rows, cols);
}
void gemm_accum(const double* a, const double* b, double* c, std::size_t m,
                std::size_t k, std::size_t n) {
  kernels::gemm_accum(a, b, c, m, k, n);
}
void gemm_accum(const float* a, const float* b, float* c, std::size_t m,
                std::size_t k, std::size_t n) {
  kernels::gemm_accum_f32(a, b, c, m, k, n);
}
void lstm_gates(const double* z, double* c, double* h, double* out,
                std::size_t lanes, std::size_t hidden) {
  kernels::lstm_gates(z, c, h, out, lanes, hidden);
}
void lstm_gates(const float* z, float* c, float* h, float* out,
                std::size_t lanes, std::size_t hidden) {
  kernels::lstm_gates_f32(z, c, h, out, lanes, hidden);
}

/// The one inference pass, at either precision: the recurrent stack over
/// a lane-major batch x[(t * n + lane) * width + j], every lane's
/// hidden/cell state advancing together, then the dense head on each
/// lane's final hidden state and the softmax (in double, over logits of
/// element type T). For a fixed step t each layer input is an
/// (n x width) row-major matrix, so a step is one bias fill, ONE batched
/// GEMM per gate matrix (its weights streamed once per step instead of
/// once per lane) and a fused gate pass. A GEMM row's operation sequence
/// does not depend on the other rows, so each lane's probabilities are
/// bit-identical to a pass over that window alone. Leaves n x classes
/// probabilities in `probs`.
template <typename T, typename LayerT>
void forward_layers(const T* in, std::size_t width, std::size_t n,
                    std::size_t steps, const std::vector<LayerT>& layers,
                    const T* head_w, const T* head_b, std::size_t classes,
                    Lstm::InferenceWorkspace::Buffers<T>& ws,
                    std::vector<double>& probs) {
  std::size_t slot = 0;
  for (const auto& layer : layers) {
    const std::size_t h_size = layer.hidden;
    std::vector<T>& out = ws.out[slot];
    slot ^= 1;
    out.resize(steps * n * h_size);
    ws.h.resize(n * h_size);
    ws.c.assign(n * h_size, T{0});
    ws.z.resize(n * 4 * h_size);
    for (std::size_t t = 0; t < steps; ++t) {
      fill_bias_rows(ws.z.data(), layer.b.data(), n, 4 * h_size);
      gemm_accum(in + t * n * width, layer.w.data(), ws.z.data(), n, width,
                 4 * h_size);
      // At t == 0 the hidden state is all zeros, which the float64 GEMM's
      // zero skip would pass over anyway.
      if (t > 0) {
        gemm_accum(ws.h.data(), layer.u.data(), ws.z.data(), n, h_size,
                   4 * h_size);
      }
      lstm_gates(ws.z.data(), ws.c.data(), ws.h.data(),
                 out.data() + t * n * h_size, n, h_size);
    }
    in = out.data();
    width = h_size;
  }

  // Dense head: one n-row GEMM over the top layer's last step.
  ws.z.resize(n * classes);
  fill_bias_rows(ws.z.data(), head_b, n, classes);
  gemm_accum(in + (steps - 1) * n * width, head_w, ws.z.data(), n, width,
             classes);
  probs.assign(ws.z.begin(), ws.z.end());
  kernels::softmax_rows(probs.data(), n, classes);
}

}  // namespace

void Lstm::predict_batch_standardized(std::span<const double> x,
                                      std::size_t n, std::size_t steps,
                                      std::vector<int>& out,
                                      InferenceWorkspace& ws) const {
  assert(trained());
  out.clear();
  if (n == 0) return;
  const std::size_t classes = head_b.cols();
  forward_layers(x.data(), x.size() / (n * steps), n, steps, layers_,
                 head_w.data(), head_b.data(), classes, ws.f64, ws.probs);
  argmax_rows(ws.probs, classes, out);
}

void Lstm::predict_batch_standardized(std::span<const double> x,
                                      std::size_t n, std::size_t steps,
                                      std::vector<int>& out) const {
  InferenceWorkspace ws;
  predict_batch_standardized(x, n, steps, out, ws);
}

std::shared_ptr<const Lstm::F32Weights> Lstm::f32_weights() const {
  return f32_slot_.get([this] {
    auto cache = std::make_shared<F32Weights>();
    cache->layers.reserve(layers_.size());
    for (const auto& layer : layers_) {
      F32Weights::Layer fl;
      fl.hidden = layer.hidden;
      fl.w.resize(layer.w.raw().size());
      for (std::size_t i = 0; i < fl.w.size(); ++i) {
        fl.w[i] = static_cast<float>(layer.w.raw()[i]);
      }
      fl.u.resize(layer.u.raw().size());
      for (std::size_t i = 0; i < fl.u.size(); ++i) {
        fl.u[i] = static_cast<float>(layer.u.raw()[i]);
      }
      fl.b.resize(layer.b.raw().size());
      for (std::size_t i = 0; i < fl.b.size(); ++i) {
        fl.b[i] = static_cast<float>(layer.b.raw()[i]);
      }
      cache->layers.push_back(std::move(fl));
    }
    cache->head_w.resize(head_w.raw().size());
    for (std::size_t i = 0; i < cache->head_w.size(); ++i) {
      cache->head_w[i] = static_cast<float>(head_w.raw()[i]);
    }
    cache->head_b.resize(head_b.raw().size());
    for (std::size_t i = 0; i < cache->head_b.size(); ++i) {
      cache->head_b[i] = static_cast<float>(head_b.raw()[i]);
    }
    return cache;
  });
}

void Lstm::warm_f32_cache() const { (void)f32_weights(); }

void Lstm::predict_batch_standardized_f32(std::span<const float> x,
                                          std::size_t n, std::size_t steps,
                                          std::vector<int>& out,
                                          InferenceWorkspace& ws) const {
  assert(trained());
  out.clear();
  if (n == 0) return;
  const auto wts = f32_weights();
  const std::size_t classes = head_b.cols();
  forward_layers(x.data(), x.size() / (n * steps), n, steps, wts->layers,
                 wts->head_w.data(), wts->head_b.data(), classes, ws.f32,
                 ws.probs);
  argmax_rows(ws.probs, classes, out);
}

std::vector<double> Lstm::predict_proba_f32(const Matrix& window) const {
  assert(trained());
  InferenceWorkspace ws;
  ws.f64.x.resize(window.size());
  load_window(window, 0, 1, ws.f64.x.data());
  ws.f32.x.assign(ws.f64.x.begin(), ws.f64.x.end());
  std::vector<int> out;
  predict_batch_standardized_f32(ws.f32.x, 1, window.rows(), out, ws);
  return std::move(ws.probs);
}

std::vector<int> Lstm::predict_batch(std::span<const Matrix> windows) const {
  assert(trained());
  const std::size_t n = windows.size();
  if (n == 0) return {};
  const std::size_t steps = windows.front().rows();
  InferenceWorkspace ws;
  ws.f64.x.resize(n * windows.front().size());
  for (std::size_t i = 0; i < n; ++i) {
    assert(windows[i].rows() == steps &&
           windows[i].cols() == windows.front().cols());
    load_window(windows[i], i, n, ws.f64.x.data());
  }
  std::vector<int> out;
  predict_batch_standardized(ws.f64.x, n, steps, out, ws);
  return out;
}

}  // namespace aps::ml
