#include "monitor/ml_monitor.h"

#include <algorithm>
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

void DtMonitorBatch::observe_lanes(std::span<const std::size_t>,
                                   std::span<const Observation> obs,
                                   std::span<Decision> out) {
  // Lanes carry no state, so a step is just a prediction over the given
  // rows.
  const auto predict = [this](const aps::ml::Matrix& features,
                              std::vector<int>& classes) {
    model_->predict_batch(features, classes);
  };
  predict_step(predict, classes_, scratch_, obs, out);
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

void MlpMonitorBatch::observe_lanes(std::span<const std::size_t>,
                                    std::span<const Observation> obs,
                                    std::span<Decision> out) {
  const auto predict = [this](const aps::ml::Matrix& features,
                              std::vector<int>& classes) {
    if (precision_ == Precision::kF32) {
      model_->predict_batch_f32(features, classes, workspace_);
    } else {
      model_->predict_batch(features, classes, workspace_);
    }
  };
  predict_step(predict, classes_, scratch_, obs, out);
}

bool LstmMonitorBatch::add_lane(const Monitor& prototype) {
  if (!adopt_or_match<LstmMonitor>(prototype, model_, classes_,
                                   windows_.size())) {
    return false;
  }
  // Adopt the prototype's streaming state: its raw rows, verbatim.
  windows_.push_back(static_cast<const LstmMonitor&>(prototype).window());
  return true;
}

void LstmMonitorBatch::reset_lane(std::size_t lane) { windows_[lane].clear(); }

void LstmMonitorBatch::remove_lane(std::size_t lane) {
  windows_[lane] = std::move(windows_.back());
  windows_.pop_back();
}

std::unique_ptr<Monitor> LstmMonitorBatch::extract_lane(
    std::size_t lane) const {
  auto monitor = std::make_unique<LstmMonitor>(model_, classes_);
  monitor->set_window(windows_[lane]);
  return monitor;
}

void LstmMonitorBatch::push_features(std::size_t lane,
                                     const Observation& obs) {
  std::vector<double>& row = windows_[lane].push_slot();
  row.resize(kMlFeatureCount);
  ml_features_into(obs, row);
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
  // Push this cycle's features, then run every full window through one
  // SoA forward pass; lanes still filling their window stay silent.
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

  // Lane-major flat batch x[(t * n + i) * features + j], each row
  // standardized as it is gathered: the per-row transform the scalar
  // monitor applies to its whole window, so the buffer is bit-identical
  // to the one predict() builds. kF32 lanes cast the gathered buffer.
  const std::size_t n = scratch_.ready.size();
  const std::size_t steps = kLstmWindow;
  auto& ws = scratch_.model;
  ws.f64.x.resize(steps * n * kMlFeatureCount);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& window = windows_[lanes[scratch_.ready[i]]];
    for (std::size_t t = 0; t < steps; ++t) {
      const std::span<double> dst(
          ws.f64.x.data() + (t * n + i) * kMlFeatureCount, kMlFeatureCount);
      std::copy(window[t].begin(), window[t].end(), dst.begin());
      model_->standardize_row(dst);
    }
  }
  if (precision_ == Precision::kF32) {
    ws.f32.x.assign(ws.f64.x.begin(), ws.f64.x.end());
    model_->predict_batch_standardized_f32(ws.f32.x, n, steps,
                                           scratch_.classes, ws);
  } else {
    model_->predict_batch_standardized(ws.f64.x, n, steps, scratch_.classes,
                                       ws);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t pos = scratch_.ready[i];
    out[pos] = decision_from_class(scratch_.classes[i], classes_, obs[pos]);
  }
}

}  // namespace aps::monitor
