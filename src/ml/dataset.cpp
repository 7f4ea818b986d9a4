#include "ml/dataset.h"

#include <algorithm>
#include <cmath>

namespace aps::ml {

Dataset Dataset::subset(std::span<const std::size_t> indices) const {
  Dataset out;
  out.classes = classes;
  out.x = Matrix(indices.size(), x.cols());
  out.y.reserve(indices.size());
  for (std::size_t r = 0; r < indices.size(); ++r) {
    const std::size_t src = indices[r];
    for (std::size_t c = 0; c < x.cols(); ++c) {
      out.x.at(r, c) = x.at(src, c);
    }
    out.y.push_back(y[src]);
  }
  return out;
}

double Dataset::positive_fraction() const {
  if (y.empty()) return 0.0;
  std::size_t pos = 0;
  for (const int label : y) {
    if (label == 1) ++pos;
  }
  return static_cast<double>(pos) / static_cast<double>(y.size());
}

void Standardizer::fit(const Matrix& x) {
  fit(std::span<const Matrix>(&x, 1));
}

void Standardizer::fit(std::span<const Matrix> blocks) {
  const std::size_t d = blocks.empty() ? 0 : blocks.front().cols();
  std::size_t n = 0;
  for (const Matrix& block : blocks) n += block.rows();
  mean_.assign(d, 0.0);
  std_.assign(d, 1.0);
  if (n == 0) return;
  for (std::size_t c = 0; c < d; ++c) {
    double m = 0.0;
    for (const Matrix& block : blocks) {
      for (std::size_t r = 0; r < block.rows(); ++r) m += block.at(r, c);
    }
    m /= static_cast<double>(n);
    double v = 0.0;
    for (const Matrix& block : blocks) {
      for (std::size_t r = 0; r < block.rows(); ++r) {
        const double delta = block.at(r, c) - m;
        v += delta * delta;
      }
    }
    v /= static_cast<double>(n);
    mean_[c] = m;
    std_[c] = v > 1e-12 ? std::sqrt(v) : 1.0;
  }
}

Matrix Standardizer::transform(const Matrix& x) const {
  Matrix out = x;
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) {
      out.at(r, c) = (out.at(r, c) - mean_[c]) / std_[c];
    }
  }
  return out;
}

void Standardizer::transform_row(std::span<double> row) const {
  for (std::size_t c = 0; c < row.size() && c < mean_.size(); ++c) {
    row[c] = (row[c] - mean_[c]) / std_[c];
  }
}

DatasetBuilder::DatasetBuilder(std::size_t features, int classes,
                               std::size_t max_samples, std::uint64_t seed)
    : features_(features), classes_(classes), reservoir_(max_samples, seed) {}

void DatasetBuilder::add(std::uint64_t run, std::uint64_t step,
                         std::span<const double> row, int label) {
  Sample sample;
  sample.row.assign(row.begin(), row.end());
  sample.label = label;
  reservoir_.add(run, step, std::move(sample));
}

void DatasetBuilder::merge(DatasetBuilder&& other) {
  reservoir_.merge(std::move(other.reservoir_));
}

Dataset DatasetBuilder::build() {
  const auto entries = reservoir_.take_sorted();
  Dataset data;
  data.classes = classes_;
  data.x = Matrix(entries.size(), features_);
  data.y.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& sample = entries[i].payload;
    for (std::size_t c = 0; c < features_ && c < sample.row.size(); ++c) {
      data.x.at(i, c) = sample.row[c];
    }
    data.y.push_back(sample.label);
  }
  return data;
}

SequenceDatasetBuilder::SequenceDatasetBuilder(int classes,
                                               std::size_t max_samples,
                                               std::uint64_t seed)
    : classes_(classes), reservoir_(max_samples, seed) {}

void SequenceDatasetBuilder::add(std::uint64_t run, std::uint64_t step,
                                 Matrix window, int label) {
  reservoir_.add(run, step, Sample{std::move(window), label});
}

void SequenceDatasetBuilder::merge(SequenceDatasetBuilder&& other) {
  reservoir_.merge(std::move(other.reservoir_));
}

SequenceDataset SequenceDatasetBuilder::build() {
  auto entries = reservoir_.take_sorted();
  SequenceDataset data;
  data.classes = classes_;
  data.sequences.reserve(entries.size());
  data.labels.reserve(entries.size());
  for (auto& entry : entries) {
    data.sequences.push_back(std::move(entry.payload.window));
    data.labels.push_back(entry.payload.label);
  }
  return data;
}

std::vector<double> class_weights(std::span<const int> labels, int classes) {
  std::vector<double> counts(static_cast<std::size_t>(classes), 0.0);
  for (const int label : labels) {
    counts[static_cast<std::size_t>(label)] += 1.0;
  }
  std::vector<double> weights(counts.size(), 1.0);
  const auto n = static_cast<double>(labels.size());
  const auto k = static_cast<double>(classes);
  for (std::size_t c = 0; c < counts.size(); ++c) {
    weights[c] = counts[c] > 0.0 ? n / (k * counts[c]) : 0.0;
  }
  return weights;
}

std::vector<double> class_weights(const Dataset& data) {
  return class_weights(data.y, data.classes);
}

}  // namespace aps::ml
