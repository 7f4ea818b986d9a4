// CART decision-tree classifier (Gini impurity, axis-aligned splits), the
// "DT" baseline monitor of paper §V-C4. Supports class weighting for the
// imbalanced hazard data and depth/leaf-size regularization.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "ml/dataset.h"

namespace aps::io {
struct ModelSerde;  // binary save/load (src/io/artifact_io.cpp)
}

namespace aps::ml {

struct DecisionTreeConfig {
  int max_depth = 8;
  std::size_t min_samples_split = 10;
  std::size_t min_samples_leaf = 5;
  bool use_class_weights = true;
};

class DecisionTree {
 public:
  explicit DecisionTree(DecisionTreeConfig config = {});

  void fit(const Dataset& data);

  [[nodiscard]] int predict(std::span<const double> features) const;
  /// Per-class probability estimate at the reached leaf.
  [[nodiscard]] std::vector<double> predict_proba(
      std::span<const double> features) const;
  /// Predicted class per row of `features`; out[r] is bit-identical to
  /// predict(row r) — the tree walk is row-independent, batching keeps the
  /// node array hot across rows.
  [[nodiscard]] std::vector<int> predict_batch(const Matrix& features) const;
  /// predict_batch into a caller-owned vector, resized to the row count.
  void predict_batch(const Matrix& features, std::vector<int>& out) const;

  [[nodiscard]] bool trained() const { return !nodes_.empty(); }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] int depth() const { return depth_; }

 private:
  friend struct aps::io::ModelSerde;

  struct Node {
    bool is_leaf = true;
    std::size_t feature = 0;
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    std::vector<double> class_probs;
  };

  struct BuildScratch;

  /// The leaf a feature row reaches.
  [[nodiscard]] const Node& leaf(std::span<const double> features) const;

  /// Grow the subtree over `indices`, which it reorders in place: on a
  /// split, the left child's rows come first, each side in its original
  /// order.
  int build(const Dataset& data, std::span<std::size_t> indices,
            std::span<const double> weights, int depth,
            BuildScratch& scratch);

  DecisionTreeConfig config_;
  std::vector<Node> nodes_;
  int classes_ = 2;
  int depth_ = 0;
};

}  // namespace aps::ml
