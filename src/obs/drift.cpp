#include "obs/drift.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace aps::obs {

double FeatureSummary::stddev() const { return std::sqrt(variance()); }

TrainingStats training_stats_from_samples(std::size_t cols,
                                          std::span<const double> row_major) {
  TrainingStats stats;
  if (cols == 0) return stats;
  stats.features.resize(cols);
  const std::size_t rows = row_major.size() / cols;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      stats.features[c].add(row_major[r * cols + c]);
    }
  }
  return stats;
}

DriftDetector::DriftDetector(std::shared_ptr<const TrainingStats> reference,
                             DriftConfig config)
    : reference_(std::move(reference)), config_(config) {
  live_.resize(reference_ != nullptr ? reference_->features.size() : 0);
}

bool DriftDetector::merge(std::span<const FeatureSummary> batch) {
  if (reference_ == nullptr || live_.empty()) return false;
  const std::size_t n = std::min(batch.size(), live_.size());
  for (std::size_t f = 0; f < n; ++f) live_[f].merge(batch[f]);
  score_ = 0.0;
  for (std::size_t f = 0; f < live_.size(); ++f) {
    const FeatureSummary& train = reference_->features[f];
    const FeatureSummary& live = live_[f];
    if (train.count == 0 || live.count == 0) continue;
    // A degenerate (constant) training feature still yields a usable
    // scale: fall back to a unit proportional to its magnitude.
    const double sigma = std::max(
        train.stddev(), 1e-6 * std::max(1.0, std::abs(train.mean())));
    const double mean_shift = std::abs(live.mean() - train.mean()) / sigma;
    const double scale_shift = std::abs(live.stddev() - train.stddev()) /
                               sigma;
    const double range_escape =
        std::max({live.max - train.max, train.min - live.min, 0.0}) / sigma;
    score_ = std::max({score_, mean_shift, scale_shift, range_escape});
  }
  const bool was_alerting = alerting_;
  if (samples() >= config_.min_samples) {
    if (!alerting_ && score_ > config_.threshold) {
      alerting_ = true;
    } else if (alerting_ &&
               score_ < config_.threshold * config_.clear_factor) {
      alerting_ = false;
    }
  }
  return alerting_ && !was_alerting;
}

}  // namespace aps::obs
