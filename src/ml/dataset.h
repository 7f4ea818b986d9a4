// Tabular / sequence dataset containers, feature standardization, and the
// deterministic streaming subsampler feeding the ML baseline monitors.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstddef>
#include <span>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "ml/matrix.h"

namespace aps::io {
struct ModelSerde;  // binary save/load (src/io/artifact_io.cpp)
}

namespace aps::ml {

/// Classification dataset: features x[i] (row) with integer label y[i].
struct Dataset {
  Matrix x;              ///< n x d
  std::vector<int> y;    ///< n labels in [0, classes)
  int classes = 2;

  [[nodiscard]] std::size_t size() const { return y.size(); }
  [[nodiscard]] std::size_t features() const { return x.cols(); }

  /// Select a row subset (copy).
  [[nodiscard]] Dataset subset(std::span<const std::size_t> indices) const;

  /// Fraction of samples with label 1 (binary convenience).
  [[nodiscard]] double positive_fraction() const;
};

/// Window dataset: each sample is a (steps x features) matrix plus a label.
struct SequenceDataset {
  std::vector<Matrix> sequences;
  std::vector<int> labels;
  int classes = 2;

  [[nodiscard]] std::size_t size() const { return labels.size(); }
  [[nodiscard]] std::size_t steps() const {
    return sequences.empty() ? 0 : sequences.front().rows();
  }
  [[nodiscard]] std::size_t features() const {
    return sequences.empty() ? 0 : sequences.front().cols();
  }
};

/// Per-column z-score standardizer (fit on train, apply everywhere).
class Standardizer {
 public:
  void fit(const Matrix& x);
  /// Fit over the rows of `blocks` stacked in order, without building the
  /// stacked matrix: the same sums in the same order as fit() on it, so
  /// the result is bit-identical. Every block has the first one's columns.
  void fit(std::span<const Matrix> blocks);
  [[nodiscard]] Matrix transform(const Matrix& x) const;
  void transform_row(std::span<double> row) const;
  [[nodiscard]] bool fitted() const { return !mean_.empty(); }

  [[nodiscard]] const std::vector<double>& mean() const { return mean_; }
  [[nodiscard]] const std::vector<double>& std() const { return std_; }

 private:
  friend struct aps::io::ModelSerde;

  std::vector<double> mean_;
  std::vector<double> std_;
};

/// Deterministic stratified class weights: inverse class frequency,
/// normalized to mean 1. Used to counter the heavy class imbalance of
/// hazard data.
[[nodiscard]] std::vector<double> class_weights(std::span<const int> labels,
                                                int classes);
[[nodiscard]] std::vector<double> class_weights(const Dataset& data);

// ---- Streaming reservoir subsampling ----------------------------------------

/// Deterministic bottom-k reservoir over (run, step)-addressed samples:
/// every candidate receives a 64-bit priority key derived from
/// (seed, run, step), and the k smallest keys win. Selection is a pure
/// function of the candidate *set* — invariant to insertion order, shard
/// layout, and thread count — and merging per-shard reservoirs equals one
/// global reservoir, which is what makes training sets reproducible under
/// any parallel campaign execution. capacity == 0 keeps every sample.
template <typename Payload>
class ReservoirSampler {
 public:
  struct Entry {
    std::uint64_t key = 0;
    std::uint64_t run = 0;
    std::uint64_t step = 0;
    Payload payload;
  };

  ReservoirSampler(std::size_t capacity, std::uint64_t seed)
      : capacity_(capacity), seed_(seed) {}

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Priority of sample (run, step); ties broken by (run, step) so the
  /// ordering is total and collision-proof.
  [[nodiscard]] std::uint64_t key_of(std::uint64_t run,
                                     std::uint64_t step) const {
    return derive_seed(derive_seed(seed_, run), step);
  }

  void add(std::uint64_t run, std::uint64_t step, Payload payload) {
    Entry entry{key_of(run, step), run, step, std::move(payload)};
    if (capacity_ == 0 || entries_.size() < capacity_) {
      entries_.push_back(std::move(entry));
      if (capacity_ != 0) {
        std::push_heap(entries_.begin(), entries_.end(), before);
      }
      return;
    }
    if (!before(entry, entries_.front())) return;  // not among the k smallest
    std::pop_heap(entries_.begin(), entries_.end(), before);
    entries_.back() = std::move(entry);
    std::push_heap(entries_.begin(), entries_.end(), before);
  }

  /// Fold `other` in; the result equals a single reservoir fed both
  /// candidate streams in any order.
  void merge(ReservoirSampler&& other) {
    for (Entry& entry : other.entries_) {
      add(entry.run, entry.step, std::move(entry.payload));
    }
    other.entries_.clear();
  }

  /// Surviving samples in (run, step) order — a stable, layout-independent
  /// presentation for downstream training.
  [[nodiscard]] std::vector<Entry> take_sorted() {
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) {
                return std::tie(a.run, a.step) < std::tie(b.run, b.step);
              });
    return std::move(entries_);
  }

 private:
  /// Strict ordering by (key, run, step); max-heap over it keeps the
  /// largest removable element at the front.
  static bool before(const Entry& a, const Entry& b) {
    return std::tie(a.key, a.run, a.step) < std::tie(b.key, b.run, b.step);
  }

  std::size_t capacity_;
  std::uint64_t seed_;
  std::vector<Entry> entries_;  ///< max-heap when at capacity
};

/// Streaming builder for the tabular (DT / MLP) training set: feed feature
/// rows as campaign runs finish, merge per-shard builders, build once.
class DatasetBuilder {
 public:
  struct Sample {
    std::vector<double> row;
    int label = 0;
  };

  DatasetBuilder(std::size_t features, int classes, std::size_t max_samples,
                 std::uint64_t seed);

  void add(std::uint64_t run, std::uint64_t step, std::span<const double> row,
           int label);
  void merge(DatasetBuilder&& other);
  [[nodiscard]] std::size_t size() const { return reservoir_.size(); }
  /// Consumes the builder.
  [[nodiscard]] Dataset build();

 private:
  std::size_t features_;
  int classes_;
  ReservoirSampler<Sample> reservoir_;
};

/// Streaming builder for the LSTM window training set.
class SequenceDatasetBuilder {
 public:
  struct Sample {
    Matrix window;
    int label = 0;
  };

  SequenceDatasetBuilder(int classes, std::size_t max_samples,
                         std::uint64_t seed);

  void add(std::uint64_t run, std::uint64_t step, Matrix window, int label);
  void merge(SequenceDatasetBuilder&& other);
  [[nodiscard]] std::size_t size() const { return reservoir_.size(); }
  /// Consumes the builder.
  [[nodiscard]] SequenceDataset build();

 private:
  int classes_;
  ReservoirSampler<Sample> reservoir_;
};

}  // namespace aps::ml
