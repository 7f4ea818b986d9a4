#include "monitor/ml_monitor.h"

#include <cassert>

namespace aps::monitor {

void ml_features_into(const Observation& obs, std::span<double> out) {
  out[0] = obs.bg;
  out[1] = obs.bg_rate;
  out[2] = obs.iob;
  out[3] = obs.iob_rate;
  out[4] = obs.commanded_rate;
  out[5] = static_cast<double>(static_cast<int>(obs.action));
}

std::vector<double> ml_features(const Observation& obs) {
  std::vector<double> features(kMlFeatureCount);
  ml_features_into(obs, features);
  return features;
}

Decision decision_from_class(int predicted_class, int classes,
                             const Observation& obs) {
  Decision d;
  if (predicted_class == 0) return d;
  d.alarm = true;
  if (classes >= 3) {
    d.predicted = predicted_class == 1
                      ? aps::HazardType::kH1TooMuchInsulin
                      : aps::HazardType::kH2TooLittleInsulin;
  } else {
    // Binary model: recover the hazard side from the glucose context.
    d.predicted = obs.bg < 120.0 ? aps::HazardType::kH1TooMuchInsulin
                                 : aps::HazardType::kH2TooLittleInsulin;
  }
  return d;
}

namespace {

/// One gather -> predict -> decision cycle, shared by the DT and MLP
/// batches (and the serving path): fills `scratch.rows` with each lane's
/// features, runs one model call via `predict` (a callable mapping the
/// feature matrix to predicted classes in its second argument, so callers
/// choose the precision path), maps classes to decisions.
template <typename Predict>
void predict_step(Predict&& predict, int classes, FeatureScratch& scratch,
                  std::span<const Observation> obs, std::span<Decision> out) {
  scratch.rows.resize(obs.size(), kMlFeatureCount);
  for (std::size_t r = 0; r < obs.size(); ++r) {
    ml_features_into(
        obs[r],
        std::span<double>(scratch.rows.data() + r * kMlFeatureCount,
                          kMlFeatureCount));
  }
  predict(scratch.rows, scratch.classes);
  for (std::size_t r = 0; r < obs.size(); ++r) {
    out[r] = decision_from_class(scratch.classes[r], classes, obs[r]);
  }
}

/// The MLP's predict_step callable at the batch's precision.
auto mlp_predict(const aps::ml::Mlp& model, Precision precision) {
  return [&model, precision](const aps::ml::Matrix& features,
                             std::vector<int>& out) {
    out = precision == Precision::kF32 ? model.predict_batch_f32(features)
                                       : model.predict_batch(features);
  };
}

}  // namespace

DtMonitor::DtMonitor(std::shared_ptr<const aps::ml::DecisionTree> model,
                     int classes)
    : model_(std::move(model)), classes_(classes) {
  assert(model_ != nullptr && model_->trained());
}

Decision DtMonitor::observe(const Observation& obs) {
  const auto features = ml_features(obs);
  return decision_from_class(model_->predict(features), classes_, obs);
}

std::unique_ptr<Monitor> DtMonitor::clone() const {
  return std::make_unique<DtMonitor>(*this);
}

std::unique_ptr<MonitorBatch> DtMonitor::make_batch() const {
  return std::make_unique<DtMonitorBatch>();
}

MlpMonitor::MlpMonitor(std::shared_ptr<const aps::ml::Mlp> model, int classes)
    : model_(std::move(model)), classes_(classes) {
  assert(model_ != nullptr && model_->trained());
}

Decision MlpMonitor::observe(const Observation& obs) {
  const auto features = ml_features(obs);
  return decision_from_class(model_->predict(features), classes_, obs);
}

std::unique_ptr<Monitor> MlpMonitor::clone() const {
  return std::make_unique<MlpMonitor>(*this);
}

std::unique_ptr<MonitorBatch> MlpMonitor::make_batch() const {
  return std::make_unique<MlpMonitorBatch>();
}

LstmMonitor::LstmMonitor(std::shared_ptr<const aps::ml::Lstm> model,
                         int classes)
    : model_(std::move(model)), classes_(classes), window_(kLstmWindow) {
  assert(model_ != nullptr && model_->trained());
}

void LstmMonitor::reset() { window_.clear(); }

Decision LstmMonitor::observe(const Observation& obs) {
  window_.push(ml_features(obs));
  if (!window_.full()) return {};  // not enough history yet
  aps::ml::Matrix input(window_.size(), kMlFeatureCount);
  for (std::size_t t = 0; t < window_.size(); ++t) {
    const auto& row = window_[t];
    for (std::size_t c = 0; c < row.size(); ++c) {
      input.at(t, c) = row[c];
    }
  }
  return decision_from_class(model_->predict(input), classes_, obs);
}

std::unique_ptr<Monitor> LstmMonitor::clone() const {
  return std::make_unique<LstmMonitor>(*this);
}

std::unique_ptr<MonitorBatch> LstmMonitor::make_batch() const {
  return std::make_unique<LstmMonitorBatch>();
}

// ---- Lockstep batches -------------------------------------------------------

namespace {

/// Shared add_lane logic: adopt the first lane's model/classes, then only
/// accept lanes backed by the very same model instance and label space.
template <typename MonitorT, typename ModelPtr>
bool adopt_or_match(const Monitor& prototype, ModelPtr& model, int& classes,
                    std::size_t lane_count) {
  const auto* typed = dynamic_cast<const MonitorT*>(&prototype);
  if (typed == nullptr) return false;
  if (lane_count == 0) {
    model = typed->model();
    classes = typed->classes();
    return true;
  }
  return typed->model() == model && typed->classes() == classes;
}


}  // namespace

bool DtMonitorBatch::add_lane(const Monitor& prototype) {
  if (!adopt_or_match<DtMonitor>(prototype, model_, classes_, lanes_)) {
    return false;
  }
  ++lanes_;
  return true;
}

void DtMonitorBatch::remove_lane(std::size_t lane) {
  (void)lane;  // lanes are stateless and interchangeable
  --lanes_;
}

std::unique_ptr<Monitor> DtMonitorBatch::extract_lane(std::size_t) const {
  return std::make_unique<DtMonitor>(model_, classes_);
}

void DtMonitorBatch::observe_step(std::span<const Observation> obs,
                                  std::span<Decision> out) {
  const auto predict = [this](const aps::ml::Matrix& features,
                              std::vector<int>& classes) {
    model_->predict_batch(features, classes);
  };
  predict_step(predict, classes_, scratch_, obs, out);
}

void DtMonitorBatch::observe_lanes(std::span<const std::size_t>,
                                   std::span<const Observation> obs,
                                   std::span<Decision> out) {
  // Lanes carry no state, so the subset step is just a prediction over the
  // given rows.
  observe_step(obs, out);
}

bool MlpMonitorBatch::add_lane(const Monitor& prototype) {
  if (!adopt_or_match<MlpMonitor>(prototype, model_, classes_, lanes_)) {
    return false;
  }
  ++lanes_;
  return true;
}

void MlpMonitorBatch::remove_lane(std::size_t lane) {
  (void)lane;  // lanes are stateless and interchangeable
  --lanes_;
}

std::unique_ptr<Monitor> MlpMonitorBatch::extract_lane(std::size_t) const {
  return std::make_unique<MlpMonitor>(model_, classes_);
}

void MlpMonitorBatch::observe_step(std::span<const Observation> obs,
                                   std::span<Decision> out) {
  predict_step(mlp_predict(*model_, precision_), classes_, scratch_, obs,
               out);
}

void MlpMonitorBatch::observe_lanes(std::span<const std::size_t>,
                                    std::span<const Observation> obs,
                                    std::span<Decision> out) {
  observe_step(obs, out);
}

bool LstmMonitorBatch::add_lane(const Monitor& prototype) {
  if (!adopt_or_match<LstmMonitor>(prototype, model_, classes_,
                                   windows_.size())) {
    return false;
  }
  // Adopt the prototype's streaming state: raw rows verbatim, standardized
  // copies for the inference buffer (the same per-row transform the scalar
  // monitor applies at predict time, so decisions stay bit-identical).
  const auto& proto = static_cast<const LstmMonitor&>(prototype);
  windows_.emplace_back(kLstmWindow);
  raw_windows_.emplace_back(kLstmWindow);
  for (std::size_t t = 0; t < proto.window().size(); ++t) {
    std::vector<double> row = proto.window()[t];
    raw_windows_.back().push(row);
    model_->standardize_row(row);
    windows_.back().push(std::move(row));
  }
  return true;
}

void LstmMonitorBatch::reset_lane(std::size_t lane) {
  windows_[lane].clear();
  raw_windows_[lane].clear();
}

void LstmMonitorBatch::remove_lane(std::size_t lane) {
  windows_[lane] = std::move(windows_.back());
  windows_.pop_back();
  raw_windows_[lane] = std::move(raw_windows_.back());
  raw_windows_.pop_back();
}

std::unique_ptr<Monitor> LstmMonitorBatch::extract_lane(
    std::size_t lane) const {
  auto monitor = std::make_unique<LstmMonitor>(model_, classes_);
  monitor->set_window(raw_windows_[lane]);
  return monitor;
}

void LstmMonitorBatch::observe_step(std::span<const Observation> obs,
                                    std::span<Decision> out) {
  if (identity_.size() != windows_.size()) {
    identity_.resize(windows_.size());
    for (std::size_t l = 0; l < identity_.size(); ++l) identity_[l] = l;
  }
  observe_lanes(identity_, obs, out);
}

void LstmMonitorBatch::push_features(std::size_t lane,
                                     const Observation& obs) {
  std::vector<double>& raw = raw_windows_[lane].push_slot();
  raw.resize(kMlFeatureCount);
  ml_features_into(obs, raw);
  std::vector<double>& row = windows_[lane].push_slot();
  row = raw;
  model_->standardize_row(row);
}

void LstmMonitorBatch::ingest_lanes(std::span<const std::size_t> lanes,
                                    std::span<const Observation> obs) {
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    push_features(lanes[i], obs[i]);
  }
}

void LstmMonitorBatch::observe_lanes(std::span<const std::size_t> lanes,
                                     std::span<const Observation> obs,
                                     std::span<Decision> out) {
  // Push this cycle's features (standardized once, on entry — the scalar
  // monitor re-standardizes the whole window every cycle, which is the
  // same per-row transform applied later), then run every full window
  // through one SoA forward pass; lanes still filling their window stay
  // silent.
  scratch_.ready.clear();
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const std::size_t lane = lanes[i];
    push_features(lane, obs[i]);
    if (windows_[lane].full()) {
      scratch_.ready.push_back(i);
    } else {
      out[i] = {};
    }
  }
  if (scratch_.ready.empty()) return;

  // Lane-major flat batch: flat[(t * n + i) * features + j]. kF32 lanes
  // gather straight into the float32 buffer (standardization stays f64 in
  // the ring rows; only the inference-time cast differs).
  const std::size_t n = scratch_.ready.size();
  const std::size_t steps = kLstmWindow;
  if (precision_ == Precision::kF32) {
    scratch_.flat32.resize(steps * n * kMlFeatureCount);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& window = windows_[lanes[scratch_.ready[i]]];
      for (std::size_t t = 0; t < steps; ++t) {
        const auto& row = window[t];
        float* dst =
            scratch_.flat32.data() + (t * n + i) * kMlFeatureCount;
        for (std::size_t j = 0; j < row.size(); ++j) {
          dst[j] = static_cast<float>(row[j]);
        }
      }
    }
    model_->predict_batch_standardized_f32(scratch_.flat32, n, steps,
                                           scratch_.classes, scratch_.model);
  } else {
    scratch_.flat.resize(steps * n * kMlFeatureCount);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& window = windows_[lanes[scratch_.ready[i]]];
      for (std::size_t t = 0; t < steps; ++t) {
        const auto& row = window[t];
        std::copy(row.begin(), row.end(),
                  scratch_.flat.begin() +
                      static_cast<long>((t * n + i) * kMlFeatureCount));
      }
    }
    model_->predict_batch_standardized(scratch_.flat, n, steps,
                                       scratch_.classes, scratch_.model);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t pos = scratch_.ready[i];
    out[pos] = decision_from_class(scratch_.classes[i], classes_, obs[pos]);
  }
}

}  // namespace aps::monitor
