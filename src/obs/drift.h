// DOOD-style streaming input-distribution drift detection: per-feature
// running mean/variance/range of the live observation stream compared
// against training-time statistics carried in the ArtifactBundle. The
// deployed monitors were fit on a fixed fault grid; when the serving
// distribution leaves it, their accuracy claims silently expire — the
// detector surfaces that as a per-shard drift-score gauge and a
// drift_alerts_total counter instead of letting it pass unnoticed.
//
// Scoring: for each feature, live and training summaries are reduced to
//   mean shift   |mean_live - mean_train| / std_train
//   scale shift  |std_live - std_train|   / std_train
//   range escape max(live_max - train_max, train_min - live_min) / std_train
// and the detector's score is the max over features of the max of the
// three — i.e. "how many training standard deviations has the stream
// moved". Alerting has a minimum-sample gate and hysteresis so a handful
// of outliers cannot flap the alert.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

namespace aps::obs {

/// Mergeable moment/range summary of one feature. Plain (non-atomic):
/// hot paths accumulate a local batch and merge it into the detector once
/// per shard stretch. Moments are Welford's running mean and
/// sum of squared deviations, merged with Chan et al.'s pairwise update,
/// so the variance of a feature far from zero does not cancel away the
/// way sum_sq/n - mean^2 does. The running mean is kept relative to the
/// first sample (`shift`), so its rounding scales with the spread rather
/// than the magnitude: without it, 1e9 + N(0, 1) read a merged variance
/// 3e-8 off the one-pass value; with it the two agree to 1e-12.
struct FeatureSummary {
  std::uint64_t count = 0;
  double shift = 0.0;  ///< first sample added; mu is relative to it
  double mu = 0.0;     ///< running mean of (x - shift)
  double m2 = 0.0;     ///< sum of squared deviations from the mean
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void add(double x) {
    if (count == 0) shift = x;
    ++count;
    const double y = x - shift;
    const double delta = y - mu;
    mu += delta / static_cast<double>(count);
    m2 += delta * (y - mu);
    if (x < min) min = x;
    if (x > max) max = x;
  }
  void merge(const FeatureSummary& other) {
    if (other.count == 0) return;
    if (count == 0) {
      *this = other;
      return;
    }
    const auto n_a = static_cast<double>(count);
    const auto n_b = static_cast<double>(other.count);
    const double n = n_a + n_b;
    const double delta = (other.shift - shift) + other.mu - mu;
    mu += delta * (n_b / n);
    m2 += other.m2 + delta * delta * (n_a * n_b / n);
    count += other.count;
    if (other.min < min) min = other.min;
    if (other.max > max) max = other.max;
  }
  [[nodiscard]] double mean() const { return shift + mu; }
  /// Population variance (m2 / count).
  [[nodiscard]] double variance() const {
    return count > 0 ? m2 / static_cast<double>(count) : 0.0;
  }
  [[nodiscard]] double stddev() const;
};

/// Training-time feature statistics persisted with a bundle (optional,
/// versioned trailing section — see io::save_bundle).
struct TrainingStats {
  std::vector<FeatureSummary> features;
  [[nodiscard]] bool empty() const { return features.empty(); }
};

/// Column-wise TrainingStats of a row-major sample matrix (the ML
/// training dataset's feature matrix).
[[nodiscard]] TrainingStats training_stats_from_samples(
    std::size_t cols, std::span<const double> row_major);

struct DriftConfig {
  /// Live observations required before the detector may alert.
  std::uint64_t min_samples = 256;
  /// Alert when the score (training-sigma units) crosses this.
  double threshold = 0.5;
  /// Hysteresis: clear only below threshold * clear_factor.
  double clear_factor = 0.8;
  /// Sample every stride-th lane of a tick (1 = every observation);
  /// bounds the hot-path cost on large shards.
  std::size_t stride = 16;
  /// Sample every Nth feed tick (1 = every tick). Temporal counterpart of
  /// `stride`: on unsampled ticks the serving engine skips drift feature
  /// extraction, tracer spans, and per-stretch latency clocks entirely,
  /// which is what keeps the telemetry A/B overhead inside its <2% budget
  /// now that the identity fast path serves a 1k-lane rule tick in ~10us
  /// (a sampled tick costs ~14us, dominated by feature extraction, so the
  /// cadence must keep it rare). Drift is a minutes-scale signal: even at
  /// 256 the detector still folds tens of thousands of samples per second
  /// at serving rates and arms (min_samples) within ~1k ticks.
  std::uint32_t sample_every_ticks = 256;
};

/// Streaming detector for one shard. Not thread-safe: its one owner, the
/// shard's serving engine, merges local FeatureSummary batches and reads
/// the score on its own thread; scrapes read the score through the
/// registry gauge the engine refreshes.
class DriftDetector {
 public:
  DriftDetector(std::shared_ptr<const TrainingStats> reference,
                DriftConfig config);

  /// Merge a locally accumulated batch (batch[f] summarizes feature f).
  /// Returns true when this merge transitioned the detector into the
  /// alerting state (the caller bumps drift_alerts_total exactly then).
  bool merge(std::span<const FeatureSummary> batch);

  [[nodiscard]] double score() const { return score_; }
  [[nodiscard]] bool alerting() const { return alerting_; }
  [[nodiscard]] std::uint64_t samples() const {
    return live_.empty() ? 0 : live_[0].count;
  }
  [[nodiscard]] const DriftConfig& config() const { return config_; }

 private:
  std::shared_ptr<const TrainingStats> reference_;
  DriftConfig config_;
  std::vector<FeatureSummary> live_;
  double score_ = 0.0;
  bool alerting_ = false;
};

}  // namespace aps::obs
