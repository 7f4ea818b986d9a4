// Stacked LSTM classifier over sliding windows of system state, the "LSTM"
// baseline monitor of paper §V-C4: two stacked LSTM layers (default 128 and
// 64 units) over a 6-step (30-minute) input window, followed by a dense
// softmax head; trained with Adam on sparse categorical cross-entropy with
// early stopping. Backpropagation-through-time runs over the full window.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

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

struct LstmConfig {
  std::vector<std::size_t> hidden_units = {128, 64};
  int classes = 2;
  AdamConfig adam;
  int max_epochs = 20;
  std::size_t batch_size = 32;
  double validation_fraction = 0.15;
  int early_stopping_patience = 3;
  bool use_class_weights = true;
  bool standardize = true;
  std::uint64_t seed = 7;
};

class Lstm {
 public:
  explicit Lstm(LstmConfig config = {});

  /// Train; returns best validation loss. Each minibatch is cut into
  /// fixed 8-window chunks, and each chunk runs one batched BPTT pass on
  /// the kernel layer. With a pool the chunks run in parallel and are
  /// reduced in chunk order, so the trained weights are bit-identical for
  /// every thread count, and to backpropagating one window at a time.
  /// The standardizer is fitted over the windows' rows in place, and each
  /// chunk standardizes its windows as it loads them: no stacked or
  /// standardized copy of the dataset is made.
  double fit(const SequenceDataset& data, aps::ThreadPool* pool = nullptr);

  /// Probability per class for one (steps x features) window: the batched
  /// pass below over a batch of one.
  [[nodiscard]] std::vector<double> predict_proba(const Matrix& window) const;
  [[nodiscard]] int predict(const Matrix& window) const;
  /// Predicted class per window: the windows are standardized into one
  /// lane-major buffer and run through the batched pass together. Every
  /// lane's arithmetic is independent of the others, so out[i] is
  /// bit-identical to predict(windows[i]).
  [[nodiscard]] std::vector<int> predict_batch(
      std::span<const Matrix> windows) const;
  /// Buffers of one batched inference pass, owned by the caller and
  /// reused across calls. They only grow, so once a workspace has served
  /// its largest batch, the passes below allocate nothing.
  struct InferenceWorkspace {
    template <typename T>
    struct Buffers {
      std::vector<T> x;       ///< the caller's input, steps x n x features,
                              ///< lane-major (see predict_batch_standardized)
      std::vector<T> out[2];  ///< layer outputs, steps x n x hidden; layers
                              ///< alternate between the two
      std::vector<T> h, c;    ///< n x hidden recurrent state
      std::vector<T> z;       ///< n x 4H gate pre-activations, then the
                              ///< n x classes logits
    };
    Buffers<double> f64;
    Buffers<float> f32;
    std::vector<double> probs;  ///< n x classes, left by every pass
  };

  /// The batched pass for callers that keep their own standardized,
  /// lane-major flat window buffer x[(t * n + lane) * features + j] (the
  /// streaming monitor batch gathers its lanes' windows into ws.f64.x).
  /// Every window's hidden/cell state steps together, so each step is
  /// one GEMM per gate matrix for all lanes. `out` is resized to n and
  /// overwritten with each lane's first-maximum class; ws holds every
  /// intermediate and the probabilities (ws.probs).
  void predict_batch_standardized(std::span<const double> x, std::size_t n,
                                  std::size_t steps, std::vector<int>& out,
                                  InferenceWorkspace& ws) const;
  /// The same with a workspace of its own, for one-off callers.
  void predict_batch_standardized(std::span<const double> x, std::size_t n,
                                  std::size_t steps,
                                  std::vector<int>& out) const;
  /// Float32 counterpart of predict_batch_standardized for serving lanes:
  /// same lane-major layout (already standardized, cast by the caller),
  /// run through the float32 kernels with polynomial gate activations.
  /// Weights are cast once per model generation and cached. Tolerance-
  /// pinned against the float64 path (<= 1e-4 on probabilities, no
  /// decision flips on the golden cohort) — not bit-identical to it.
  void predict_batch_standardized_f32(std::span<const float> x, std::size_t n,
                                      std::size_t steps, std::vector<int>& out,
                                      InferenceWorkspace& ws) const;
  /// Float32-path per-class probabilities for one raw window: the float32
  /// pass over a batch of one.
  [[nodiscard]] std::vector<double> predict_proba_f32(
      const Matrix& window) const;
  /// Build the float32 weight mirror now. Bundle loading calls this once
  /// per generation so serving lanes never pay the cast.
  void warm_f32_cache() const;
  /// Apply the fitted feature standardizer to one raw feature row.
  void standardize_row(std::span<double> row) const;

  [[nodiscard]] bool trained() const { return !layers_.empty(); }
  [[nodiscard]] std::size_t parameter_count() const;
  [[nodiscard]] const LstmConfig& config() const { return config_; }
  /// Validation loss after each completed epoch of the last fit() call
  /// (training loss when the validation split is empty). Pinned against
  /// recorded golden trajectories by the training determinism suite.
  [[nodiscard]] const std::vector<double>& epoch_losses() const {
    return epoch_losses_;
  }

 private:
  friend struct aps::io::ModelSerde;

  struct Layer {
    Matrix w;  ///< input -> gates (in x 4H), gate order [i f g o]
    Matrix u;  ///< hidden -> gates (H x 4H)
    Matrix b;  ///< 1 x 4H
    AdamState w_adam, u_adam, b_adam;
    std::size_t hidden = 0;
  };

  struct Gradients {
    Matrix w, u, b;
  };

  /// Gradient accumulators for every layer plus the dense head.
  struct StackGradients {
    std::vector<Gradients> layers;
    Matrix head_w, head_b;
    /// The accumulators in a fixed order, w/u/b per layer then the head,
    /// indexed so callers walk them without building a list.
    [[nodiscard]] std::size_t matrix_count() const {
      return 3 * layers.size() + 2;
    }
    [[nodiscard]] Matrix& matrix(std::size_t k);
  };

  /// Forward activations of one layer over a chunk of B windows, lane-major:
  /// (t, lane, j) lives at [(t * B + lane) * hidden + j], so each step's
  /// B rows form one contiguous (B x hidden) matrix.
  struct LayerCache {
    std::vector<double> i, f, g, o, c, h, tanh_c;  ///< steps x B x hidden
  };

  /// Buffers for one chunk's forward and BPTT pass, sized by
  /// shape_workspace. fit() owns one per chunk slot and reuses it for
  /// every minibatch and validation pass.
  struct ChunkWorkspace {
    std::size_t lanes = 0;
    std::size_t steps = 0;
    std::vector<double> x;  ///< standardized inputs, steps x B x features
    std::vector<std::size_t> label;  ///< per lane
    std::vector<double> weight;      ///< per-lane class weight
    std::vector<LayerCache> layers;
    std::vector<double> z;      ///< B x 4H: gate pre-activations, then dz
    std::vector<double> probs;  ///< B x classes: softmax, then dlogits
    std::vector<double> dh_out, dx;  ///< steps x B x (output / input) width
    std::vector<double> dh_next, dc_next;  ///< B x hidden
    /// BPTT operands stacked in gradient order, one row per (lane
    /// ascending, t descending): dz, the layer input, and h_{t-1}.
    std::vector<double> dz_rows, in_rows, h_rows;
    StackGradients grads;
  };

  /// Float32 mirror of the stack, flat row-major per matrix.
  struct F32Weights {
    struct Layer {
      std::vector<float> w;  ///< in x 4H
      std::vector<float> u;  ///< H x 4H
      std::vector<float> b;  ///< 4H
      std::size_t hidden = 0;
    };
    std::vector<Layer> layers;
    std::vector<float> head_w;  ///< in x classes
    std::vector<float> head_b;  ///< classes
  };

  void init_layers(std::size_t input_features);
  [[nodiscard]] StackGradients zero_gradients() const;
  /// Size every buffer of ws for a chunk of `lanes` windows. Buffers only
  /// grow, so a workspace shaped for a full chunk never reallocates.
  void shape_workspace(ChunkWorkspace& ws, std::size_t lanes,
                       std::size_t steps, std::size_t features) const;
  /// Gather the indexed windows (standardized) with their labels and class
  /// weights into ws, lane-major.
  void load_chunk(const SequenceDataset& data,
                  std::span<const std::size_t> indices,
                  std::span<const double> cw, ChunkWorkspace& ws) const;
  /// Forward pass over the loaded chunk, caching every gate for BPTT;
  /// leaves each lane's class probabilities in ws.probs. Row `lane` runs
  /// the inference pass's op sequence on that window alone.
  void forward_chunk(ChunkWorkspace& ws) const;
  /// BPTT over the chunk after forward_chunk, accumulating into ws.grads
  /// in the per-window order (window ascending, t descending), so the sums
  /// match backpropagating each window alone.
  void backward_chunk(ChunkWorkspace& ws) const;

  /// Class-weighted mean cross-entropy over `indices`, in fixed chunks
  /// spread over the workspaces.
  [[nodiscard]] double evaluate_loss(const SequenceDataset& data,
                                     std::span<const std::size_t> indices,
                                     std::span<const double> cw,
                                     std::span<ChunkWorkspace> workspaces,
                                     aps::ThreadPool* pool) const;
  /// Copy `window` into lane `lane` of the n-lane buffer x, standardizing
  /// each row.
  void load_window(const Matrix& window, std::size_t lane, std::size_t n,
                   double* x) const;
  [[nodiscard]] std::shared_ptr<const F32Weights> f32_weights() const;

  LstmConfig config_;
  std::vector<double> epoch_losses_;  ///< per-epoch val loss of last fit()
  std::vector<Layer> layers_;
  Matrix head_w;  ///< last hidden -> classes
  Matrix head_b;
  AdamState head_w_adam_, head_b_adam_;
  Standardizer standardizer_;
  F32Slot<F32Weights> f32_slot_;  ///< lazy float32 mirror of the weights
};

}  // namespace aps::ml
