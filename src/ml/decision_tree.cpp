#include "ml/decision_tree.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace aps::ml {

namespace {

/// Weighted Gini impurity of class mass vector.
double gini(std::span<const double> class_mass, double total) {
  if (total <= 0.0) return 0.0;
  double sum_sq = 0.0;
  for (const double m : class_mass) {
    const double p = m / total;
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

}  // namespace

/// Buffers that fit() sizes once and every node reuses: a node needs them
/// only before it recurses.
struct DecisionTree::BuildScratch {
  std::vector<double> mass, left_mass, right_mass;  ///< classes each
  /// The node's indices, sorted per feature in turn; then the right side
  /// of its partition.
  std::vector<std::size_t> sorted;
};

DecisionTree::DecisionTree(DecisionTreeConfig config) : config_(config) {}

void DecisionTree::fit(const Dataset& data) {
  nodes_.clear();
  depth_ = 0;
  classes_ = data.classes;
  if (data.size() == 0) return;

  std::vector<double> sample_weights(data.size(), 1.0);
  if (config_.use_class_weights) {
    const auto cw = class_weights(data);
    for (std::size_t i = 0; i < data.size(); ++i) {
      sample_weights[i] = cw[static_cast<std::size_t>(data.y[i])];
    }
  }
  std::vector<std::size_t> indices(data.size());
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  const auto classes = static_cast<std::size_t>(classes_);
  BuildScratch scratch{std::vector<double>(classes),
                       std::vector<double>(classes),
                       std::vector<double>(classes),
                       std::vector<std::size_t>(data.size())};
  build(data, indices, sample_weights, 0, scratch);
}

int DecisionTree::build(const Dataset& data, std::span<std::size_t> indices,
                        std::span<const double> weights, int depth,
                        BuildScratch& scratch) {
  depth_ = std::max(depth_, depth);
  const auto node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();

  // Class mass at this node.
  std::vector<double>& mass = scratch.mass;
  std::fill(mass.begin(), mass.end(), 0.0);
  double total = 0.0;
  for (const std::size_t i : indices) {
    mass[static_cast<std::size_t>(data.y[i])] += weights[i];
    total += weights[i];
  }
  {
    auto& node = nodes_[static_cast<std::size_t>(node_index)];
    node.class_probs.resize(mass.size());
    for (std::size_t c = 0; c < mass.size(); ++c) {
      node.class_probs[c] = total > 0.0 ? mass[c] / total : 0.0;
    }
  }

  const double parent_impurity = gini(mass, total);
  const bool can_split = depth < config_.max_depth &&
                         indices.size() >= config_.min_samples_split &&
                         parent_impurity > 1e-12;
  if (!can_split) return node_index;

  // Exhaustive best-split search: sort per feature, scan thresholds.
  double best_gain = 1e-9;
  std::size_t best_feature = 0;
  double best_threshold = 0.0;

  // Each feature's sort starts from the previous feature's order, as it
  // always has: std::sort is unstable, and the order of ties feeds the
  // left_mass sums.
  const std::span<std::size_t> sorted(scratch.sorted.data(), indices.size());
  std::copy(indices.begin(), indices.end(), sorted.begin());
  std::vector<double>& left_mass = scratch.left_mass;
  std::vector<double>& right_mass = scratch.right_mass;
  for (std::size_t f = 0; f < data.features(); ++f) {
    std::sort(sorted.begin(), sorted.end(),
              [&](std::size_t a, std::size_t b) {
                return data.x.at(a, f) < data.x.at(b, f);
              });
    std::fill(left_mass.begin(), left_mass.end(), 0.0);
    double left_total = 0.0;
    for (std::size_t pos = 0; pos + 1 < sorted.size(); ++pos) {
      const std::size_t i = sorted[pos];
      left_mass[static_cast<std::size_t>(data.y[i])] += weights[i];
      left_total += weights[i];
      const double v = data.x.at(i, f);
      const double v_next = data.x.at(sorted[pos + 1], f);
      if (v_next <= v + 1e-12) continue;  // no threshold between ties
      if (pos + 1 < config_.min_samples_leaf ||
          sorted.size() - pos - 1 < config_.min_samples_leaf) {
        continue;
      }
      for (std::size_t c = 0; c < mass.size(); ++c) {
        right_mass[c] = mass[c] - left_mass[c];
      }
      const double right_total = total - left_total;
      const double child_impurity =
          (left_total * gini(left_mass, left_total) +
           right_total * gini(right_mass, right_total)) /
          total;
      const double gain = parent_impurity - child_impurity;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = f;
        best_threshold = 0.5 * (v + v_next);
      }
    }
  }

  if (best_gain <= 1e-9) return node_index;

  // Stable partition in place: left rows move forward (never past the
  // row being read), right rows wait in the sort buffer.
  std::size_t left_n = 0;
  std::size_t right_n = 0;
  for (const std::size_t i : indices) {
    if (data.x.at(i, best_feature) <= best_threshold) {
      indices[left_n++] = i;
    } else {
      sorted[right_n++] = i;
    }
  }
  std::copy_n(sorted.begin(), right_n, indices.begin() + left_n);
  if (left_n == 0 || right_n == 0) return node_index;

  const int left =
      build(data, indices.first(left_n), weights, depth + 1, scratch);
  const int right =
      build(data, indices.subspan(left_n), weights, depth + 1, scratch);
  auto& node = nodes_[static_cast<std::size_t>(node_index)];
  node.is_leaf = false;
  node.feature = best_feature;
  node.threshold = best_threshold;
  node.left = left;
  node.right = right;
  return node_index;
}

const DecisionTree::Node& DecisionTree::leaf(
    std::span<const double> features) const {
  assert(trained());
  std::size_t node = 0;
  while (!nodes_[node].is_leaf) {
    const auto& n = nodes_[node];
    node = static_cast<std::size_t>(
        features[n.feature] <= n.threshold ? n.left : n.right);
  }
  return nodes_[node];
}

std::vector<double> DecisionTree::predict_proba(
    std::span<const double> features) const {
  return leaf(features).class_probs;
}

int DecisionTree::predict(std::span<const double> features) const {
  const auto& probs = leaf(features).class_probs;
  return static_cast<int>(
      std::max_element(probs.begin(), probs.end()) - probs.begin());
}

std::vector<int> DecisionTree::predict_batch(const Matrix& features) const {
  std::vector<int> out;
  predict_batch(features, out);
  return out;
}

void DecisionTree::predict_batch(const Matrix& features,
                                 std::vector<int>& out) const {
  assert(trained());
  out.resize(features.rows());
  for (std::size_t r = 0; r < features.rows(); ++r) {
    const std::span<const double> row(features.data() + r * features.cols(),
                                      features.cols());
    out[r] = predict(row);
  }
}

}  // namespace aps::ml
