// Multi-layer perceptron classifier, the "MLP" baseline monitor of paper
// §V-C4: fully connected hidden layers (default 256 and 128 units) with
// ReLU activations and a softmax output, trained with Adam on sparse
// categorical cross-entropy, with inverted dropout and early stopping on a
// held-out validation split.
//
// Training is data-parallel: each minibatch is cut into fixed-size row
// chunks whose gradients are computed concurrently (per-chunk dropout
// streams) and reduced in chunk order, so the trained weights are
// bit-identical for every thread count, including none. Each chunk runs in
// a workspace that fit() sizes once, so a training step allocates nothing;
// validation runs the same chunks through the pool. Rows are standardized
// as a chunk gathers them, so a fit holds no copy of the dataset.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include <memory>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "ml/adam.h"
#include "ml/dataset.h"
#include "ml/f32_cache.h"
#include "ml/matrix.h"

namespace aps::io {
struct ModelSerde;  // binary save/load (src/io/artifact_io.cpp)
}

namespace aps::ml {

struct MlpConfig {
  std::vector<std::size_t> hidden_units = {256, 128};
  int classes = 2;
  AdamConfig adam;                ///< learning rate 0.001 per the paper
  int max_epochs = 40;
  std::size_t batch_size = 64;
  double dropout = 0.2;
  double validation_fraction = 0.15;
  int early_stopping_patience = 4;
  bool use_class_weights = true;
  bool standardize = true;
  std::uint64_t seed = 42;
};

class Mlp {
 public:
  explicit Mlp(MlpConfig config = {});

  /// Train on the dataset; returns the best validation loss reached.
  /// With a pool, minibatch gradients are computed chunk-parallel across
  /// its workers; the result is bit-identical to the sequential path.
  /// Each chunk standardizes its rows as it loads them from `data`, the
  /// same transform infer() applies; no standardized copy of the dataset
  /// is made.
  double fit(const Dataset& data, aps::ThreadPool* pool = nullptr);

  /// Buffers of one inference pass, owned by the caller and reused across
  /// calls. They only grow, so once a workspace has served its largest
  /// batch, the passes below allocate nothing.
  struct InferenceWorkspace {
    std::size_t rows = 0;
    /// act[0]: standardized input rows; act[l]: output of hidden layer l
    /// (float64 pass). rows x layer width each.
    std::vector<std::vector<double>> act;
    std::vector<double> probs;  ///< rows x classes, left by every pass
    std::vector<float> act32, z32;  ///< float32 layer input and output
  };

  /// Per-class probabilities for one raw feature row: the batched pass
  /// over a batch of one.
  [[nodiscard]] std::vector<double> predict_proba(
      std::span<const double> features) const;
  [[nodiscard]] int predict(std::span<const double> features) const;
  /// Predicted class per row of `features` from one shared forward pass
  /// on `ws`; `out` is resized to the row count. Every layer of the
  /// network is row-independent, so out[r] is bit-identical to
  /// predict(row r).
  void predict_batch(const Matrix& features, std::vector<int>& out,
                     InferenceWorkspace& ws) const;
  /// The same with a workspace of its own, for one-off callers.
  [[nodiscard]] std::vector<int> predict_batch(const Matrix& features) const;
  /// predict_batch through the float32 kernel path (serving-lane inference
  /// precision). Weights are cast once per model generation and cached;
  /// probabilities are softmaxed in double over the float32 logits.
  /// Tolerance-pinned against the float64 path (<= 1e-4 on probabilities,
  /// no decision flips on the golden cohort) — not bit-identical to it.
  void predict_batch_f32(const Matrix& features, std::vector<int>& out,
                         InferenceWorkspace& ws) const;
  /// Float32-path per-class probabilities for one raw feature row: the
  /// float32 pass over a batch of one.
  [[nodiscard]] std::vector<double> predict_proba_f32(
      std::span<const double> features) const;
  /// Build the float32 weight mirror now. Bundle loading calls this once
  /// per generation so serving lanes never pay the cast.
  void warm_f32_cache() const;

  [[nodiscard]] bool trained() const { return !weights_.empty(); }
  [[nodiscard]] const MlpConfig& config() const { return config_; }
  /// Validation loss after each completed epoch of the last fit() call
  /// (training loss when the validation split is empty). The training
  /// determinism suite pins this trajectory against recorded golden
  /// values, so any numerical change to the minibatch path is caught.
  [[nodiscard]] const std::vector<double>& epoch_losses() const {
    return epoch_losses_;
  }
  /// Number of scalar parameters (for the overhead bench narrative).
  [[nodiscard]] std::size_t parameter_count() const;

 private:
  friend struct aps::io::ModelSerde;

  /// Buffers for one chunk's forward and backward pass: the inference
  /// buffers plus the training-only ones. fit() owns one per chunk of a
  /// full minibatch and reuses it for every step and validation pass.
  struct ChunkWorkspace : InferenceWorkspace {
    /// Rows x widest hidden layer backward buffers, and this chunk's
    /// unnormalized gradients (sized by fit()).
    std::vector<double> delta, delta_prev;
    std::vector<Matrix> grad_w, grad_b;
    double weight_sum = 0.0;  ///< class weight of the chunk's rows
  };

  /// Counter-based dropout stream: cell k of a chunk draws
  /// splitmix64(seed + k), so masks are a pure function of
  /// (step, chunk, cell) — independent of threads and of the shuffle RNG.
  struct DropoutStream {
    std::uint64_t seed = 0;
    std::uint64_t counter = 0;

    [[nodiscard]] double next() {
      return static_cast<double>(splitmix64(seed + counter++) >> 11) *
             0x1.0p-53;
    }
  };

  /// Float32 mirror of weights_/biases_, flat row-major per layer.
  struct F32Weights {
    std::vector<std::vector<float>> w;  ///< (in x out) each
    std::vector<std::vector<float>> b;  ///< out each
    std::vector<std::size_t> out_dims;
  };

  /// Size ws's forward buffers for `rows` rows. Capacity only grows, so a
  /// workspace shaped for a full chunk never reallocates.
  void shape_workspace(InferenceWorkspace& ws, std::size_t rows) const;
  /// Apply the fitted standardizer to one raw feature row (no-op when
  /// standardization is off).
  void standardize_row(std::span<double> row) const;
  /// Gather the indexed raw rows of x into ws.act[0], standardizing each.
  void load_rows(const Matrix& x, std::span<const std::size_t> indices,
                 ChunkWorkspace& ws) const;
  /// Forward pass over ws.act[0], keeping every hidden activation for
  /// backward_chunk; leaves the class probabilities in ws.probs. With a
  /// dropout stream, hidden units are dropped (inverted dropout).
  void forward_chunk(InferenceWorkspace& ws, DropoutStream* dropout) const;
  /// Gradient of the chunk's weighted cross-entropy, accumulated
  /// unnormalized into ws.grad_w/grad_b (its total class weight into
  /// ws.weight_sum). Row r's label is y[indices[r]]. Pure w.r.t. the
  /// network, so chunks run concurrently.
  void backward_chunk(ChunkWorkspace& ws, std::span<const int> y,
                      std::span<const std::size_t> indices,
                      std::span<const double> cw) const;
  /// Copy raw feature rows into ws.act[0], standardizing each.
  void load_input(std::span<const double> features, std::size_t rows,
                  InferenceWorkspace& ws) const;
  /// The float64 inference pass: load_input, then forward_chunk without
  /// dropout. Every layer is row-independent, so row r of ws.probs is
  /// bit-identical to a one-row pass over row r.
  void infer(std::span<const double> features, std::size_t rows,
             InferenceWorkspace& ws) const;
  [[nodiscard]] std::shared_ptr<const F32Weights> f32_weights() const;
  /// The float32 inference pass: load_input, then every layer through the
  /// float32 kernels (bias fill, then GEMM); fills ws.probs row-major
  /// (rows x classes), softmax computed in double.
  void infer_f32(std::span<const double> features, std::size_t rows,
                 InferenceWorkspace& ws) const;
  /// Class-weighted mean cross-entropy over the indexed raw rows of x, in
  /// fixed chunks spread over the workspaces; per-row losses are summed
  /// in row order, so the result does not depend on the pool.
  [[nodiscard]] double evaluate_loss(const Matrix& x, std::span<const int> y,
                                     std::span<const std::size_t> indices,
                                     std::span<const double> cw,
                                     std::span<ChunkWorkspace> workspaces,
                                     aps::ThreadPool* pool) const;

  MlpConfig config_;
  std::uint64_t dropout_seed_ = 0;  ///< derived from config seed in fit()
  std::vector<double> epoch_losses_;  ///< per-epoch val loss of last fit()
  std::vector<std::size_t> layer_sizes_;
  std::vector<Matrix> weights_;
  std::vector<Matrix> biases_;  ///< 1 x out each
  std::vector<AdamState> w_adam_;
  std::vector<AdamState> b_adam_;
  Standardizer standardizer_;
  F32Slot<F32Weights> f32_slot_;  ///< lazy float32 mirror of the weights
};

}  // namespace aps::ml
