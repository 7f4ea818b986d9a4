#include "io/artifact_io.h"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace aps::io {

namespace {

void write_matrix(BinaryWriter& out, const aps::ml::Matrix& m) {
  out.u64(m.rows());
  out.u64(m.cols());
  out.vec_f64(m.raw());
}

aps::ml::Matrix read_matrix(BinaryReader& in) {
  const std::uint64_t rows = in.u64();
  const std::uint64_t cols = in.u64();
  // Cap the dimensions before multiplying so a hostile header cannot
  // overflow rows*cols into a small value that passes the size check.
  if (rows > (1u << 26) || cols > (1u << 26)) {
    throw IoError("corrupt artifact: implausible matrix dimensions in '" +
                  in.path() + "'");
  }
  if (rows * cols * sizeof(double) > in.remaining() + sizeof(std::uint64_t)) {
    throw IoError("corrupt artifact: matrix larger than file in '" +
                  in.path() + "'");
  }
  std::vector<double> data = in.vec_f64();
  if (data.size() != rows * cols) {
    throw IoError("corrupt artifact: matrix payload size mismatch in '" +
                  in.path() + "'");
  }
  aps::ml::Matrix m(rows, cols);
  m.raw() = std::move(data);
  return m;
}

void write_size_vec(BinaryWriter& out, const std::vector<std::size_t>& v) {
  out.u64(v.size());
  for (const std::size_t s : v) out.u64(s);
}

std::vector<std::size_t> read_size_vec(BinaryReader& in) {
  const std::uint64_t n =
      in.count(1u << 20, "size-vector length", sizeof(std::uint64_t));
  std::vector<std::size_t> v(n);
  for (auto& s : v) s = in.u64();
  return v;
}

void write_adam(BinaryWriter& out, const aps::ml::AdamConfig& adam) {
  out.f64(adam.learning_rate);
  out.f64(adam.beta1);
  out.f64(adam.beta2);
  out.f64(adam.epsilon);
}

aps::ml::AdamConfig read_adam(BinaryReader& in) {
  aps::ml::AdamConfig adam;
  adam.learning_rate = in.f64();
  adam.beta1 = in.f64();
  adam.beta2 = in.f64();
  adam.epsilon = in.f64();
  return adam;
}

void write_guideline_config(BinaryWriter& out,
                            const aps::monitor::GuidelineConfig& config) {
  out.f64(config.bg_low);
  out.f64(config.bg_high);
  out.f64(config.delta_low);
  out.f64(config.delta_high);
  out.f64(config.lambda10);
  out.f64(config.lambda90);
  out.i32(config.alpha_steps);
}

aps::monitor::GuidelineConfig read_guideline_config(BinaryReader& in) {
  aps::monitor::GuidelineConfig config;
  config.bg_low = in.f64();
  config.bg_high = in.f64();
  config.delta_low = in.f64();
  config.delta_high = in.f64();
  config.lambda10 = in.f64();
  config.lambda90 = in.f64();
  config.alpha_steps = in.i32();
  return config;
}

// Optional trailing bundle section carrying training-time feature
// statistics (obs::TrainingStats). Written ONLY when the bundle has
// stats, so stat-less bundles stay byte-identical to the pre-section
// format and old files (nothing after the LSTM block) still load.
constexpr std::uint32_t kTrainingStatsMarker = 0x53544154u;  // "STAT"
// Version 2 stores Welford moments (mean, sum of squared deviations);
// version 1 stored raw sums and still loads.
constexpr std::uint32_t kTrainingStatsVersion = 2;

void write_training_stats(BinaryWriter& out,
                          const aps::obs::TrainingStats& stats) {
  out.u32(kTrainingStatsMarker);
  out.u32(kTrainingStatsVersion);
  out.u64(stats.features.size());
  for (const auto& feature : stats.features) {
    out.u64(feature.count);
    out.f64(feature.mean());
    out.f64(feature.m2);
    out.f64(feature.min);
    out.f64(feature.max);
  }
}

aps::obs::TrainingStats read_training_stats(BinaryReader& in) {
  if (in.u32() != kTrainingStatsMarker) {
    throw IoError("corrupt artifact: unknown trailing section in '" +
                  in.path() + "'");
  }
  const std::uint32_t version = in.u32();
  if (version != 1 && version != kTrainingStatsVersion) {
    throw IoError(
        "corrupt artifact: unsupported training-stats version in '" +
        in.path() + "'");
  }
  // Each feature summary is a u64 count plus four f64 moments/extremes.
  const std::uint64_t features =
      in.count(1u << 12, "training-stat feature", 40);
  aps::obs::TrainingStats stats;
  stats.features.resize(features);
  for (auto& feature : stats.features) {
    feature.count = in.u64();
    feature.shift = in.f64();  // the mean; mu stays 0 relative to it
    feature.m2 = in.f64();
    if (version == 1 && feature.count > 0) {
      // Raw sum and sum of squares: recover the moments.
      const double sum = feature.shift;
      const double sum_sq = feature.m2;
      feature.shift = sum / static_cast<double>(feature.count);
      feature.m2 = std::max(0.0, sum_sq - sum * feature.shift);
    }
    feature.min = in.f64();
    feature.max = in.f64();
  }
  return stats;
}

}  // namespace

// Friend of DecisionTree / Mlp / Lstm / Standardizer: the single place
// allowed to touch trained-model internals for persistence.
struct ModelSerde {
  // -- Standardizer --
  static void write(BinaryWriter& out, const aps::ml::Standardizer& s) {
    out.vec_f64(s.mean_);
    out.vec_f64(s.std_);
  }
  static void read(BinaryReader& in, aps::ml::Standardizer& s) {
    s.mean_ = in.vec_f64();
    s.std_ = in.vec_f64();
    if (s.mean_.size() != s.std_.size()) {
      throw IoError("corrupt artifact: standardizer size mismatch in '" +
                    in.path() + "'");
    }
  }

  // -- DecisionTree --
  static void write(BinaryWriter& out, const aps::ml::DecisionTree& tree) {
    out.i32(tree.config_.max_depth);
    out.u64(tree.config_.min_samples_split);
    out.u64(tree.config_.min_samples_leaf);
    out.u8(tree.config_.use_class_weights ? 1 : 0);
    out.i32(tree.classes_);
    out.i32(tree.depth_);
    out.u64(tree.nodes_.size());
    for (const auto& node : tree.nodes_) {
      out.u8(node.is_leaf ? 1 : 0);
      out.u64(node.feature);
      out.f64(node.threshold);
      out.i32(node.left);
      out.i32(node.right);
      out.vec_f64(node.class_probs);
    }
  }
  static aps::ml::DecisionTree read_tree(BinaryReader& in) {
    aps::ml::DecisionTreeConfig config;
    config.max_depth = in.i32();
    config.min_samples_split = in.u64();
    config.min_samples_leaf = in.u64();
    config.use_class_weights = in.u8() != 0;
    aps::ml::DecisionTree tree(config);
    tree.classes_ = in.i32();
    tree.depth_ = in.i32();
    // Minimum serialized node: flag + feature + threshold + children +
    // empty class-prob vector = 1 + 8 + 8 + 4 + 4 + 8 bytes.
    const std::uint64_t node_count = in.count(1u << 26, "tree node", 33);
    tree.nodes_.resize(node_count);
    for (auto& node : tree.nodes_) {
      node.is_leaf = in.u8() != 0;
      node.feature = in.u64();
      node.threshold = in.f64();
      node.left = in.i32();
      node.right = in.i32();
      node.class_probs = in.vec_f64();
      // A corrupt child index would walk predict() out of bounds.
      const auto nodes = static_cast<std::int64_t>(node_count);
      if (node.left < -1 || node.left >= nodes || node.right < -1 ||
          node.right >= nodes || node.feature > (1u << 16)) {
        throw IoError("corrupt artifact: tree node out of range in '" +
                      in.path() + "'");
      }
    }
    return tree;
  }

  // -- Mlp --
  static void write(BinaryWriter& out, const aps::ml::Mlp& mlp) {
    const auto& config = mlp.config_;
    write_size_vec(out, config.hidden_units);
    out.i32(config.classes);
    write_adam(out, config.adam);
    out.i32(config.max_epochs);
    out.u64(config.batch_size);
    out.f64(config.dropout);
    out.f64(config.validation_fraction);
    out.i32(config.early_stopping_patience);
    out.u8(config.use_class_weights ? 1 : 0);
    out.u8(config.standardize ? 1 : 0);
    out.u64(config.seed);

    write_size_vec(out, mlp.layer_sizes_);
    out.u64(mlp.weights_.size());
    for (std::size_t l = 0; l < mlp.weights_.size(); ++l) {
      write_matrix(out, mlp.weights_[l]);
      write_matrix(out, mlp.biases_[l]);
    }
    write(out, mlp.standardizer_);
  }
  static aps::ml::Mlp read_mlp(BinaryReader& in) {
    aps::ml::MlpConfig config;
    config.hidden_units = read_size_vec(in);
    config.classes = in.i32();
    config.adam = read_adam(in);
    config.max_epochs = in.i32();
    config.batch_size = in.u64();
    config.dropout = in.f64();
    config.validation_fraction = in.f64();
    config.early_stopping_patience = in.i32();
    config.use_class_weights = in.u8() != 0;
    config.standardize = in.u8() != 0;
    config.seed = in.u64();

    aps::ml::Mlp mlp(config);
    mlp.layer_sizes_ = read_size_vec(in);
    // Minimum serialized layer: weight + bias matrix headers and lengths.
    const std::uint64_t layers = in.count(1u << 10, "MLP layer", 48);
    for (std::uint64_t l = 0; l < layers; ++l) {
      mlp.weights_.push_back(read_matrix(in));
      mlp.biases_.push_back(read_matrix(in));
      const auto& w = mlp.weights_.back();
      const auto& b = mlp.biases_.back();
      const bool chains =
          l == 0 || mlp.weights_[l - 1].cols() == w.rows();
      if (!chains || b.rows() != 1 || b.cols() != w.cols()) {
        throw IoError("corrupt artifact: MLP layer shape mismatch in '" +
                      in.path() + "'");
      }
    }
    if (!mlp.weights_.empty() &&
        mlp.layer_sizes_.size() != mlp.weights_.size() + 1) {
      throw IoError("corrupt artifact: MLP layer count mismatch in '" +
                    in.path() + "'");
    }
    read(in, mlp.standardizer_);
    return mlp;
  }

  // -- Lstm --
  static void write(BinaryWriter& out, const aps::ml::Lstm& lstm) {
    const auto& config = lstm.config_;
    write_size_vec(out, config.hidden_units);
    out.i32(config.classes);
    write_adam(out, config.adam);
    out.i32(config.max_epochs);
    out.u64(config.batch_size);
    out.f64(config.validation_fraction);
    out.i32(config.early_stopping_patience);
    out.u8(config.use_class_weights ? 1 : 0);
    out.u8(config.standardize ? 1 : 0);
    out.u64(config.seed);

    out.u64(lstm.layers_.size());
    for (const auto& layer : lstm.layers_) {
      out.u64(layer.hidden);
      write_matrix(out, layer.w);
      write_matrix(out, layer.u);
      write_matrix(out, layer.b);
    }
    write_matrix(out, lstm.head_w);
    write_matrix(out, lstm.head_b);
    write(out, lstm.standardizer_);
  }
  static aps::ml::Lstm read_lstm(BinaryReader& in) {
    aps::ml::LstmConfig config;
    config.hidden_units = read_size_vec(in);
    config.classes = in.i32();
    config.adam = read_adam(in);
    config.max_epochs = in.i32();
    config.batch_size = in.u64();
    config.validation_fraction = in.f64();
    config.early_stopping_patience = in.i32();
    config.use_class_weights = in.u8() != 0;
    config.standardize = in.u8() != 0;
    config.seed = in.u64();

    aps::ml::Lstm lstm(config);
    // Minimum serialized layer: hidden size + three matrix headers/lengths.
    const std::uint64_t layers = in.count(1u << 10, "LSTM layer", 80);
    for (std::uint64_t l = 0; l < layers; ++l) {
      aps::ml::Lstm::Layer layer;
      layer.hidden = in.u64();
      layer.w = read_matrix(in);
      layer.u = read_matrix(in);
      layer.b = read_matrix(in);
      const std::size_t gates = 4 * layer.hidden;
      if (layer.w.cols() != gates || layer.u.rows() != layer.hidden ||
          layer.u.cols() != gates || layer.b.rows() != 1 ||
          layer.b.cols() != gates) {
        throw IoError("corrupt artifact: LSTM layer shape mismatch in '" +
                      in.path() + "'");
      }
      lstm.layers_.push_back(std::move(layer));
    }
    lstm.head_w = read_matrix(in);
    lstm.head_b = read_matrix(in);
    read(in, lstm.standardizer_);
    return lstm;
  }
};

// ---- Stream-level encoders -------------------------------------------------

void write_decision_tree(BinaryWriter& out,
                         const aps::ml::DecisionTree& tree) {
  ModelSerde::write(out, tree);
}

aps::ml::DecisionTree read_decision_tree(BinaryReader& in) {
  return ModelSerde::read_tree(in);
}

void write_mlp(BinaryWriter& out, const aps::ml::Mlp& mlp) {
  ModelSerde::write(out, mlp);
}

aps::ml::Mlp read_mlp(BinaryReader& in) { return ModelSerde::read_mlp(in); }

void write_lstm(BinaryWriter& out, const aps::ml::Lstm& lstm) {
  ModelSerde::write(out, lstm);
}

aps::ml::Lstm read_lstm(BinaryReader& in) {
  return ModelSerde::read_lstm(in);
}

void write_training_artifacts(
    BinaryWriter& out, const aps::core::TrainingArtifacts& artifacts) {
  out.u64(artifacts.profiles.size());
  for (const auto& profile : artifacts.profiles) {
    out.f64(profile.basal_rate);
    out.f64(profile.isf);
    out.f64(profile.steady_state_iob);
  }
  out.u64(artifacts.patient_thresholds.size());
  for (const auto& thresholds : artifacts.patient_thresholds) {
    out.map_f64(thresholds);
  }
  out.map_f64(artifacts.population_thresholds);
  out.u64(artifacts.guideline_configs.size());
  for (const auto& config : artifacts.guideline_configs) {
    write_guideline_config(out, config);
  }
  out.f64(artifacts.target_bg);
}

aps::core::TrainingArtifacts read_training_artifacts(BinaryReader& in) {
  aps::core::TrainingArtifacts artifacts;
  // Each profile is three raw doubles.
  const std::uint64_t profiles = in.count(1u << 24, "profile", 24);
  artifacts.profiles.resize(profiles);
  for (auto& profile : artifacts.profiles) {
    profile.basal_rate = in.f64();
    profile.isf = in.f64();
    profile.steady_state_iob = in.f64();
  }
  // Each threshold set is at least an empty map (8-byte count).
  const std::uint64_t thresholds = in.count(1u << 24, "threshold-set", 8);
  artifacts.patient_thresholds.reserve(thresholds);
  for (std::uint64_t i = 0; i < thresholds; ++i) {
    artifacts.patient_thresholds.push_back(in.map_f64());
  }
  artifacts.population_thresholds = in.map_f64();
  // Each guideline config is six doubles plus an i32.
  const std::uint64_t guidelines = in.count(1u << 24, "guideline", 52);
  artifacts.guideline_configs.reserve(guidelines);
  for (std::uint64_t i = 0; i < guidelines; ++i) {
    artifacts.guideline_configs.push_back(read_guideline_config(in));
  }
  artifacts.target_bg = in.f64();
  return artifacts;
}

// ---- File-level save/load --------------------------------------------------

namespace {

template <typename WriteFn>
void save_with_header(const std::string& path, ArtifactKind kind,
                      WriteFn&& write_fn) {
  BinaryWriter out(path);
  write_header(out, kind);
  write_fn(out);
  out.finish();
}

}  // namespace

void save_decision_tree(const aps::ml::DecisionTree& tree,
                        const std::string& path) {
  save_with_header(path, ArtifactKind::kDecisionTree,
                   [&](BinaryWriter& out) { write_decision_tree(out, tree); });
}

aps::ml::DecisionTree load_decision_tree(const std::string& path) {
  BinaryReader in(path);
  read_header(in, ArtifactKind::kDecisionTree);
  return read_decision_tree(in);
}

void save_mlp(const aps::ml::Mlp& mlp, const std::string& path) {
  save_with_header(path, ArtifactKind::kMlp,
                   [&](BinaryWriter& out) { write_mlp(out, mlp); });
}

aps::ml::Mlp load_mlp(const std::string& path) {
  BinaryReader in(path);
  read_header(in, ArtifactKind::kMlp);
  return read_mlp(in);
}

void save_lstm(const aps::ml::Lstm& lstm, const std::string& path) {
  save_with_header(path, ArtifactKind::kLstm,
                   [&](BinaryWriter& out) { write_lstm(out, lstm); });
}

aps::ml::Lstm load_lstm(const std::string& path) {
  BinaryReader in(path);
  read_header(in, ArtifactKind::kLstm);
  return read_lstm(in);
}

void save_training_artifacts(const aps::core::TrainingArtifacts& artifacts,
                             const std::string& path) {
  save_with_header(path, ArtifactKind::kTrainingArtifacts,
                   [&](BinaryWriter& out) {
                     write_training_artifacts(out, artifacts);
                   });
}

aps::core::TrainingArtifacts load_training_artifacts(
    const std::string& path) {
  BinaryReader in(path);
  read_header(in, ArtifactKind::kTrainingArtifacts);
  return read_training_artifacts(in);
}

void save_bundle(const aps::core::ArtifactBundle& bundle,
                 const std::string& path) {
  save_with_header(path, ArtifactKind::kBundle, [&](BinaryWriter& out) {
    out.i32(bundle.ml_classes);
    out.i32(bundle.lstm_classes);
    write_training_artifacts(out, bundle.artifacts);
    out.u8(bundle.dt != nullptr ? 1 : 0);
    if (bundle.dt != nullptr) write_decision_tree(out, *bundle.dt);
    out.u8(bundle.mlp != nullptr ? 1 : 0);
    if (bundle.mlp != nullptr) write_mlp(out, *bundle.mlp);
    out.u8(bundle.lstm != nullptr ? 1 : 0);
    if (bundle.lstm != nullptr) write_lstm(out, *bundle.lstm);
    if (bundle.training_stats != nullptr &&
        !bundle.training_stats->features.empty()) {
      write_training_stats(out, *bundle.training_stats);
    }
  });
}

aps::core::ArtifactBundle load_bundle(const std::string& path) {
  BinaryReader in(path);
  read_header(in, ArtifactKind::kBundle);
  aps::core::ArtifactBundle bundle;
  bundle.ml_classes = in.i32();
  bundle.lstm_classes = in.i32();
  bundle.artifacts = read_training_artifacts(in);
  if (in.u8() != 0) {
    bundle.dt = std::make_shared<const aps::ml::DecisionTree>(
        read_decision_tree(in));
  }
  if (in.u8() != 0) {
    bundle.mlp = std::make_shared<const aps::ml::Mlp>(read_mlp(in));
    // Cast the float32 weight mirror once per model generation, at load
    // time, so float32 serving lanes never pay it on a tick.
    bundle.mlp->warm_f32_cache();
  }
  if (in.u8() != 0) {
    bundle.lstm = std::make_shared<const aps::ml::Lstm>(read_lstm(in));
    bundle.lstm->warm_f32_cache();
  }
  // Trailing training-stats section: absent in legacy/stat-less bundles
  // (the models consumed the file exactly), present otherwise. Bytes
  // after the section — or a section with the wrong marker — are corrupt.
  if (in.remaining() > 0) {
    bundle.training_stats = std::make_shared<const aps::obs::TrainingStats>(
        read_training_stats(in));
    if (in.remaining() > 0) {
      throw IoError("corrupt artifact: trailing bytes after training "
                    "stats in '" + in.path() + "'");
    }
  }
  return bundle;
}

}  // namespace aps::io
