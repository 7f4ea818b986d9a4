// Shared synthetic fixtures for the serialization and serving tests:
// tiny trained models, hand-built training artifacts, and deterministic
// observation streams — all fast enough to train inside a unit test.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/monitor_factory.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "ml/lstm.h"
#include "ml/mlp.h"
#include "monitor/caw.h"
#include "monitor/ml_monitor.h"
#include "monitor/monitor.h"
#include "serve/engine.h"

namespace aps::testutil {

inline aps::monitor::Observation synth_observation(aps::Rng& rng,
                                                   double time_min) {
  aps::monitor::Observation obs;
  obs.time_min = time_min;
  obs.bg = rng.uniform(40.0, 320.0);
  obs.bg_rate = rng.uniform(-8.0, 8.0);
  obs.iob = rng.uniform(0.0, 10.0);
  obs.iob_rate = rng.uniform(-0.5, 0.5);
  obs.commanded_rate = rng.uniform(0.0, 3.0);
  obs.previous_rate = rng.uniform(0.0, 3.0);
  obs.action = static_cast<aps::ControlAction>(rng.uniform_int(0, 3));
  obs.basal_rate = 1.0;
  obs.isf = 40.0;
  return obs;
}

inline std::vector<aps::monitor::Observation> synth_stream(
    std::size_t steps, std::uint64_t seed) {
  aps::Rng rng(seed);
  std::vector<aps::monitor::Observation> stream;
  stream.reserve(steps);
  for (std::size_t k = 0; k < steps; ++k) {
    stream.push_back(synth_observation(rng, 5.0 * static_cast<double>(k)));
  }
  return stream;
}

/// Hazard-shaped labels over random features so the tiny models have
/// something learnable.
inline int synth_label(const std::vector<double>& features) {
  const double bg = features[0];
  const double iob = features[2];
  return (bg < 80.0 && iob > 4.0) || bg > 260.0 ? 1 : 0;
}

inline aps::ml::Dataset synth_dataset(std::size_t n, std::uint64_t seed) {
  aps::ml::Dataset data;
  data.classes = 2;
  data.x = aps::ml::Matrix(n, aps::monitor::kMlFeatureCount);
  data.y.resize(n);
  aps::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const auto obs = synth_observation(rng, 5.0 * static_cast<double>(i));
    const auto features = aps::monitor::ml_features(obs);
    for (std::size_t c = 0; c < features.size(); ++c) {
      data.x.at(i, c) = features[c];
    }
    data.y[i] = synth_label(features);
  }
  return data;
}

inline aps::ml::SequenceDataset synth_sequences(std::size_t n,
                                                std::uint64_t seed) {
  aps::ml::SequenceDataset data;
  data.classes = 2;
  aps::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    aps::ml::Matrix window(aps::monitor::kLstmWindow,
                           aps::monitor::kMlFeatureCount);
    std::vector<double> last;
    for (std::size_t t = 0; t < aps::monitor::kLstmWindow; ++t) {
      const auto obs = synth_observation(rng, 5.0 * static_cast<double>(t));
      last = aps::monitor::ml_features(obs);
      for (std::size_t c = 0; c < last.size(); ++c) {
        window.at(t, c) = last[c];
      }
    }
    data.sequences.push_back(std::move(window));
    data.labels.push_back(synth_label(last));
  }
  return data;
}

/// Training artifacts for a small cohort with per-patient variation, built
/// directly (no campaign) so tests stay fast.
inline aps::core::TrainingArtifacts synth_artifacts(int patients) {
  aps::core::TrainingArtifacts artifacts;
  artifacts.target_bg = 120.0;
  for (int p = 0; p < patients; ++p) {
    aps::core::PatientProfile profile;
    profile.basal_rate = 0.8 + 0.07 * p;
    profile.isf = 38.0 + 2.0 * p;
    profile.steady_state_iob = 1.1 + 0.12 * p;
    artifacts.profiles.push_back(profile);

    auto thresholds =
        aps::monitor::default_thresholds(profile.steady_state_iob);
    for (auto& [param, value] : thresholds) {
      value += 0.01 * p;  // per-patient variation the round-trip must keep
    }
    artifacts.patient_thresholds.push_back(thresholds);

    aps::monitor::GuidelineConfig guideline;
    guideline.lambda10 = 82.0 + p;
    guideline.lambda90 = 190.0 + 2.0 * p;
    artifacts.guideline_configs.push_back(guideline);
  }
  artifacts.population_thresholds = aps::monitor::default_thresholds(1.4);
  return artifacts;
}

/// Rule-monitor-only bundle (no ML models) for a small cohort.
inline aps::core::ArtifactBundle rule_bundle(int patients = 4) {
  aps::core::ArtifactBundle bundle;
  bundle.artifacts = synth_artifacts(patients);
  return bundle;
}

/// One tiny but fully populated bundle (rule artifacts for a 4-patient
/// cohort plus DT/MLP/LSTM), trained once per process.
inline const aps::core::ArtifactBundle& tiny_bundle() {
  static const aps::core::ArtifactBundle bundle = [] {
    aps::core::ArtifactBundle b;
    b.artifacts = synth_artifacts(4);
    aps::ml::DecisionTreeConfig dt_config;
    dt_config.max_depth = 4;
    aps::ml::DecisionTree tree(dt_config);
    tree.fit(synth_dataset(300, 11));
    b.dt = std::make_shared<const aps::ml::DecisionTree>(std::move(tree));
    aps::ml::MlpConfig mlp_config;
    mlp_config.hidden_units = {8, 4};
    mlp_config.max_epochs = 3;
    aps::ml::Mlp mlp(mlp_config);
    mlp.fit(synth_dataset(300, 13));
    b.mlp = std::make_shared<const aps::ml::Mlp>(std::move(mlp));
    aps::ml::LstmConfig lstm_config;
    lstm_config.hidden_units = {4};
    lstm_config.max_epochs = 1;
    lstm_config.batch_size = 16;
    aps::ml::Lstm lstm(lstm_config);
    lstm.fit(synth_sequences(80, 17));
    b.lstm = std::make_shared<const aps::ml::Lstm>(std::move(lstm));
    return b;
  }();
  return bundle;
}

inline bool decisions_equal(const aps::monitor::Decision& a,
                            const aps::monitor::Decision& b) {
  return a.alarm == b.alarm && a.predicted == b.predicted &&
         a.rule_id == b.rule_id;
}

/// Feed an AoS batch through MonitorEngine's SoA feed: decisions[i]
/// answers inputs[i].
inline std::vector<aps::monitor::Decision> feed(
    aps::serve::MonitorEngine& engine,
    std::span<const aps::serve::SessionInput> inputs,
    aps::serve::FeedMode mode = aps::serve::FeedMode::kNormal) {
  std::vector<aps::serve::SessionId> sessions;
  std::vector<aps::monitor::Observation> obs;
  for (const auto& input : inputs) {
    sessions.push_back(input.session);
    obs.push_back(input.obs);
  }
  std::vector<aps::monitor::Decision> decisions(inputs.size());
  engine.feed(sessions, obs, decisions, mode);
  return decisions;
}

/// Feed the same stream to both monitors; true iff the Decision streams
/// are identical step for step.
inline bool same_decision_stream(
    aps::monitor::Monitor& a, aps::monitor::Monitor& b,
    const std::vector<aps::monitor::Observation>& stream) {
  a.reset();
  b.reset();
  for (const auto& obs : stream) {
    if (!decisions_equal(a.observe(obs), b.observe(obs))) return false;
  }
  return true;
}

}  // namespace aps::testutil
