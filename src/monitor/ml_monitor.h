// ML-based baseline monitors (paper §V-C4): wrappers that turn a trained
// DecisionTree / Mlp / Lstm classifier into a Monitor. The feature vector
// is the current system state plus the issued control action (Eq. 7); the
// LSTM consumes a sliding window of the last k feature vectors (Eq. 8).
//
// Binary classifiers predict safe/unsafe only; the hazard *type* needed by
// the mitigation policy is recovered heuristically from the BG side
// (paper §VI-1 discusses this limitation). Multi-class models (classes=3:
// none/H1/H2) are supported for the retraining ablation.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/ring_buffer.h"
#include "ml/decision_tree.h"
#include "ml/lstm.h"
#include "ml/mlp.h"
#include "monitor/monitor.h"

namespace aps::monitor {

/// Feature layout shared by training harness and runtime monitors.
inline constexpr std::size_t kMlFeatureCount = 6;
[[nodiscard]] std::vector<double> ml_features(const Observation& obs);
/// Allocation-free variant: writes the kMlFeatureCount features into `out`.
void ml_features_into(const Observation& obs, std::span<double> out);

/// Input window length for the LSTM monitor (6 steps = 30 minutes, §V-C4).
inline constexpr std::size_t kLstmWindow = 6;

/// Map a (possibly multi-class) prediction to a monitor decision.
[[nodiscard]] Decision decision_from_class(int predicted_class, int classes,
                                           const Observation& obs);

class DtMonitor final : public Monitor {
 public:
  DtMonitor(std::shared_ptr<const aps::ml::DecisionTree> model, int classes);

  void reset() override {}
  [[nodiscard]] Decision observe(const Observation& obs) override;
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] std::unique_ptr<Monitor> clone() const override;
  [[nodiscard]] std::unique_ptr<MonitorBatch> make_batch() const override;

  [[nodiscard]] const std::shared_ptr<const aps::ml::DecisionTree>& model()
      const {
    return model_;
  }
  [[nodiscard]] int classes() const { return classes_; }

 private:
  std::shared_ptr<const aps::ml::DecisionTree> model_;
  int classes_;
  std::string name_ = "dt";
};

class MlpMonitor final : public Monitor {
 public:
  MlpMonitor(std::shared_ptr<const aps::ml::Mlp> model, int classes);

  void reset() override {}
  [[nodiscard]] Decision observe(const Observation& obs) override;
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] std::unique_ptr<Monitor> clone() const override;
  [[nodiscard]] std::unique_ptr<MonitorBatch> make_batch() const override;

  [[nodiscard]] const std::shared_ptr<const aps::ml::Mlp>& model() const {
    return model_;
  }
  [[nodiscard]] int classes() const { return classes_; }

 private:
  std::shared_ptr<const aps::ml::Mlp> model_;
  int classes_;
  std::string name_ = "mlp";
};

class LstmMonitor final : public Monitor {
 public:
  LstmMonitor(std::shared_ptr<const aps::ml::Lstm> model, int classes);

  void reset() override;
  [[nodiscard]] Decision observe(const Observation& obs) override;
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] std::unique_ptr<Monitor> clone() const override;
  [[nodiscard]] std::unique_ptr<MonitorBatch> make_batch() const override;

  [[nodiscard]] const std::shared_ptr<const aps::ml::Lstm>& model() const {
    return model_;
  }
  [[nodiscard]] int classes() const { return classes_; }

  /// Raw (unstandardized) sliding window, oldest row first. Exposed so the
  /// lockstep batch can adopt a lane's streaming state (snapshot restore)
  /// and hand it back (snapshot extract).
  [[nodiscard]] const aps::RingBuffer<std::vector<double>>& window() const {
    return window_;
  }
  /// Replace the sliding window contents (lane extract / snapshot restore).
  void set_window(aps::RingBuffer<std::vector<double>> window) {
    window_ = std::move(window);
  }

 private:
  std::shared_ptr<const aps::ml::Lstm> model_;
  int classes_;
  aps::RingBuffer<std::vector<double>> window_;
  std::string name_ = "lstm";
};

// ---- Lockstep batches (sim::BatchSimulator hot path) -----------------------
//
// Each batch accepts only lanes of its own monitor kind that share the same
// model instance and label space; mixed-model campaigns fall into separate
// groups. All three route every lane's inference through one model call per
// control cycle and are bit-identical to the per-lane monitors.

/// Per-cycle buffers of the DT and MLP batches, reused by every observe
/// call: one feature row per lane and the predicted classes.
struct FeatureScratch {
  aps::ml::Matrix rows;
  std::vector<int> classes;
};

/// One DecisionTree::predict_batch walk per cycle for all lanes.
class DtMonitorBatch final : public MonitorBatch {
 public:
  [[nodiscard]] bool add_lane(const Monitor& prototype) override;
  [[nodiscard]] std::size_t lanes() const override { return lanes_; }
  void reset_lane(std::size_t) override {}
  void remove_lane(std::size_t lane) override;
  [[nodiscard]] std::unique_ptr<Monitor> extract_lane(
      std::size_t lane) const override;
  void observe_lanes(std::span<const std::size_t> lanes,
                     std::span<const Observation> obs,
                     std::span<Decision> out) override;

 private:
  std::shared_ptr<const aps::ml::DecisionTree> model_;
  int classes_ = 0;
  std::size_t lanes_ = 0;
  FeatureScratch scratch_;
};

/// One Mlp::predict_batch forward per cycle for all lanes, on the batch's
/// own inference workspace.
class MlpMonitorBatch final : public MonitorBatch {
 public:
  [[nodiscard]] bool add_lane(const Monitor& prototype) override;
  [[nodiscard]] std::size_t lanes() const override { return lanes_; }
  void reset_lane(std::size_t) override {}
  void remove_lane(std::size_t lane) override;
  [[nodiscard]] std::unique_ptr<Monitor> extract_lane(
      std::size_t lane) const override;
  void observe_lanes(std::span<const std::size_t> lanes,
                     std::span<const Observation> obs,
                     std::span<Decision> out) override;
  void set_precision(Precision precision) override { precision_ = precision; }
  [[nodiscard]] Precision precision() const override { return precision_; }

 private:
  std::shared_ptr<const aps::ml::Mlp> model_;
  int classes_ = 0;
  std::size_t lanes_ = 0;
  Precision precision_ = Precision::kF64;
  FeatureScratch scratch_;
  aps::ml::Mlp::InferenceWorkspace workspace_;
};

/// One Lstm::predict_batch pass per cycle: every ready lane's hidden/cell
/// state advances together in SoA buffers; lanes still filling their input
/// window stay silent, exactly like the scalar monitor. Each lane keeps
/// one ring of raw feature rows, which lane extraction and state adoption
/// (add_lane from a mid-stream snapshot) hand over as they are; each
/// cycle standardizes the ready windows as it gathers them into the
/// lane-major inference buffer.
class LstmMonitorBatch final : public MonitorBatch {
 public:
  [[nodiscard]] bool add_lane(const Monitor& prototype) override;
  [[nodiscard]] std::size_t lanes() const override { return windows_.size(); }
  void reset_lane(std::size_t lane) override;
  void remove_lane(std::size_t lane) override;
  [[nodiscard]] std::unique_ptr<Monitor> extract_lane(
      std::size_t lane) const override;
  void observe_lanes(std::span<const std::size_t> lanes,
                     std::span<const Observation> obs,
                     std::span<Decision> out) override;
  /// The window-push half of observe_lanes without the forward pass: the
  /// lanes' windows advance exactly as they would on a normal tick,
  /// so a degraded stretch leaves the lane's subsequent decisions
  /// bit-identical to a never-degraded stream.
  void ingest_lanes(std::span<const std::size_t> lanes,
                    std::span<const Observation> obs) override;
  void set_precision(Precision precision) override { precision_ = precision; }
  [[nodiscard]] Precision precision() const override { return precision_; }

 private:
  /// Per-cycle buffers, reused by every observe call.
  struct Scratch {
    std::vector<std::size_t> ready;  ///< positions into the lane subset
    std::vector<int> classes;        ///< predicted class per ready lane
    /// The model's buffers; the ready windows are gathered into its
    /// input (model.f64.x, cast to model.f32.x for kF32 lanes).
    aps::ml::Lstm::InferenceWorkspace model;
  };
  /// Push one observation's features into a lane's window, overwriting
  /// the oldest row in place once it is full.
  void push_features(std::size_t lane, const Observation& obs);

  std::shared_ptr<const aps::ml::Lstm> model_;
  int classes_ = 0;
  Precision precision_ = Precision::kF64;
  std::vector<aps::RingBuffer<std::vector<double>>> windows_;  ///< raw rows
  Scratch scratch_;
};

}  // namespace aps::monitor
