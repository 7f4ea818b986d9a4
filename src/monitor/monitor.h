// Safety-monitor interface (paper Fig. 1a): a wrapper around the controller
// with access only to the input/output interface — the (clean) sensor
// stream, its own IOB ledger from observed deliveries, and the commanded
// rate. Each control cycle the monitor classifies the commanded action in
// the current context and optionally raises an alarm with a predicted
// hazard class; the mitigation policy then decides the corrective command.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/units.h"

namespace aps::monitor {

class Monitor;

/// Everything a monitor may observe at one control cycle.
struct Observation {
  double time_min = 0.0;
  double bg = 0.0;          ///< CGM reading (clean; monitors are outside the
                            ///< fault boundary)
  double bg_rate = 0.0;     ///< delta per cycle (mg/dL per 5 min)
  double iob = 0.0;         ///< monitor-side IOB estimate (U)
  double iob_rate = 0.0;    ///< delta per cycle (U per 5 min)
  double commanded_rate = 0.0;  ///< controller output, post-fault (U/h)
  double previous_rate = 0.0;   ///< rate delivered in the previous cycle
  aps::ControlAction action = aps::ControlAction::kKeepInsulin;
  double basal_rate = 0.0;  ///< profile basal (U/h)
  double isf = 0.0;         ///< profile sensitivity (mg/dL per U)
};

struct Decision {
  bool alarm = false;
  aps::HazardType predicted = aps::HazardType::kNone;
  /// Which rule/model produced the alarm (diagnostic; -1 when not an alarm
  /// or not rule-based).
  int rule_id = -1;
};

/// Numeric precision a serving lane's ML inference runs at. kF64 is the
/// reference path (bit-identical across kernel backends and to training
/// evaluation); kF32 routes monitors with a float32 path through the
/// float32 kernels (weights cast once per model generation) — tolerance-
/// pinned against kF64 (<= 1e-4 on probabilities, no decision flips on
/// the golden cohort). Monitors without a float32 path (decision tree,
/// rule-based) ignore the setting.
enum class Precision { kF64, kF32 };

/// Lockstep batch counterpart of Monitor, mirroring PatientBatch /
/// ControllerBatch: N independent monitor instances observing one control
/// cycle together, so monitors whose inference amortizes across lanes (one
/// Mlp::predict_batch / Lstm::predict_batch forward for the whole shard)
/// stay batched inside the simulation hot loop. Lane semantics are
/// bit-identical to calling Monitor::observe on one clone per lane (the
/// randomized differential oracles in tests/sim_oracle_test.cpp and
/// tests/serve_oracle_test.cpp diff every decision against scalar
/// references); mitigation decisions remain per-lane in the simulator.
class MonitorBatch {
 public:
  virtual ~MonitorBatch() = default;

  /// Append a lane configured like `prototype`, ADOPTING the prototype's
  /// streaming state (e.g. a partially filled LSTM input window), so a lane
  /// restored from a snapshot continues its stream exactly. Returns false
  /// when the prototype is not this batch's monitor kind (or is backed by a
  /// different model), in which case the caller places the lane in another
  /// batch. Freshly constructed monitors have empty streaming state, so
  /// the simulator's use (new lanes from factories) is unchanged.
  [[nodiscard]] virtual bool add_lane(const Monitor& prototype) = 0;

  [[nodiscard]] virtual std::size_t lanes() const = 0;

  /// Monitor::reset for one lane.
  virtual void reset_lane(std::size_t lane) = 0;

  /// Remove one lane in O(1) by moving the LAST lane into `lane`'s slot
  /// and shrinking by one (swap-with-last compaction). The caller owns any
  /// lane-index bookkeeping and must remap the moved lane accordingly.
  virtual void remove_lane(std::size_t lane) = 0;

  /// A scalar Monitor equal to the lane's current state (streaming window,
  /// recovery counters, ...): feeding the extracted monitor continues the
  /// lane's decision stream bit-identically. Used for session snapshots.
  [[nodiscard]] virtual std::unique_ptr<Monitor> extract_lane(
      std::size_t lane) const = 0;

  /// One control cycle for a SUBSET of lanes: out[i] = decision of lane
  /// lanes[i] for obs[i], with that lane's state advanced exactly as
  /// Monitor::observe would; unlisted lanes are untouched (their state
  /// does not advance). A lockstep step over every lane passes the
  /// indices 0..lanes()-1. Lane results must not depend on how the caller
  /// partitions the subset. A batch is driven by one thread at a time:
  /// a serving engine is single-threaded and its callers serialize (an
  /// EngineGroup guards every replica engine with its one lock), so
  /// implementations keep their per-call scratch as members and reuse
  /// it across calls.
  virtual void observe_lanes(std::span<const std::size_t> lanes,
                             std::span<const Observation> obs,
                             std::span<Decision> out) = 0;

  /// Advance the streaming state of a SUBSET of lanes WITHOUT producing
  /// decisions (no inference). The serving engine's overload policy uses
  /// this on degraded ticks: a cheap twin monitor answers the tick while
  /// the expensive primary still ingests the observation, so its stream
  /// (e.g. the LSTM input window) stays bit-identical to a never-degraded
  /// run once pressure subsides. Stateless monitors need nothing here —
  /// the default is a no-op; stateful batches (LSTM) override. Same
  /// one-thread-at-a-time contract as observe_lanes.
  virtual void ingest_lanes(std::span<const std::size_t> lanes,
                            std::span<const Observation> obs) {
    (void)lanes;
    (void)obs;
  }

  /// Select the inference precision for every lane of this batch. Default
  /// is a no-op (kF64 semantics): only batches with a float32 kernel path
  /// (MLP / LSTM) override it. Call before the first observe; switching
  /// precision mid-stream is allowed (lane streaming state is precision-
  /// neutral) but changes subsequent decisions only within the float32
  /// tolerance.
  virtual void set_precision(Precision precision) { (void)precision; }
  [[nodiscard]] virtual Precision precision() const {
    return Precision::kF64;
  }
};

class Monitor {
 public:
  virtual ~Monitor() = default;

  virtual void reset() = 0;

  [[nodiscard]] virtual Decision observe(const Observation& obs) = 0;

  [[nodiscard]] virtual const std::string& name() const = 0;

  [[nodiscard]] virtual std::unique_ptr<Monitor> clone() const = 0;

  /// A fresh, empty lockstep batch backend of this monitor's kind, or
  /// nullptr when the monitor has no specialized implementation (the
  /// simulator then steps per-lane clones instead).
  [[nodiscard]] virtual std::unique_ptr<MonitorBatch> make_batch() const {
    return nullptr;
  }
};

/// Fallback batch backend: per-lane clones stepped through the virtual
/// scalar interface. Accepts every monitor kind (guideline, MPC, CAW, ...);
/// both the simulator and the serving engine use it for monitors without a
/// specialized SoA implementation. Cloning adopts the prototype's state.
class PerLaneMonitorBatch final : public MonitorBatch {
 public:
  [[nodiscard]] bool add_lane(const Monitor& prototype) override {
    lanes_.push_back(prototype.clone());
    return true;
  }
  [[nodiscard]] std::size_t lanes() const override { return lanes_.size(); }
  void reset_lane(std::size_t lane) override { lanes_[lane]->reset(); }
  void remove_lane(std::size_t lane) override {
    lanes_[lane] = std::move(lanes_.back());
    lanes_.pop_back();
  }
  [[nodiscard]] std::unique_ptr<Monitor> extract_lane(
      std::size_t lane) const override {
    return lanes_[lane]->clone();
  }
  void observe_lanes(std::span<const std::size_t> lanes,
                     std::span<const Observation> obs,
                     std::span<Decision> out) override {
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      out[i] = lanes_[lanes[i]]->observe(obs[i]);
    }
  }
  void ingest_lanes(std::span<const std::size_t> lanes,
                    std::span<const Observation> obs) override {
    // Scalar monitors have no ingest/infer split, so advancing state means
    // observing and discarding the decision (rule monitors carry recovery
    // counters that must keep moving through a degraded stretch).
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      (void)lanes_[lanes[i]]->observe(obs[i]);
    }
  }

 private:
  std::vector<std::unique_ptr<Monitor>> lanes_;
};

/// The no-op monitor (baseline APS without safety monitoring).
class NullMonitor final : public Monitor {
 public:
  void reset() override {}
  [[nodiscard]] Decision observe(const Observation&) override { return {}; }
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] std::unique_ptr<Monitor> clone() const override {
    return std::make_unique<NullMonitor>();
  }

 private:
  std::string name_ = "none";
};

}  // namespace aps::monitor
