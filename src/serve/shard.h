// One serving shard: all sessions of one (monitor name, model generation)
// pair, stored as contiguous SoA lanes behind a single MonitorBatch. A
// control tick routes every session of the shard through ONE batched model
// call (DecisionTree/Mlp/Lstm::predict_batch) instead of N scalar calls;
// monitors without a specialized batch fall back to per-lane clones
// (monitor::PerLaneMonitorBatch), which keeps the shard semantics uniform.
//
// Lane lifecycle: open_session appends a lane; close_session removes it
// with swap-with-last compaction (the shard reports which session moved so
// the engine can fix its lane index); snapshot extracts a lane's state as
// a scalar Monitor, and restore re-adopts that state into a fresh lane.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "monitor/monitor.h"
#include "obs/drift.h"
#include "obs/metrics.h"

namespace aps::serve {

using SessionId = std::uint32_t;

class ServeShard {
 public:
  ServeShard(std::string monitor_name, std::uint64_t version,
             std::uint32_t ordinal)
      : monitor_name_(std::move(monitor_name)),
        version_(version),
        ordinal_(ordinal) {
    label_ = monitor_name_ + "@g" + std::to_string(version_);
  }

  [[nodiscard]] const std::string& monitor_name() const {
    return monitor_name_;
  }
  /// Registry version (model generation) the shard's lanes were built from.
  [[nodiscard]] std::uint64_t version() const { return version_; }
  /// Engine-unique creation index; used only as a deterministic sort key.
  [[nodiscard]] std::uint32_t ordinal() const { return ordinal_; }
  /// Metric label identity: "<monitor>@g<generation>". Sibling shards of
  /// one (name, generation) share it — their series aggregate.
  [[nodiscard]] const std::string& label() const { return label_; }

  /// Attach the engine's telemetry handles (registry-owned series plus
  /// this shard's drift detector); all three may be null.
  void set_telemetry(aps::obs::Histogram* latency,
                     aps::obs::Gauge* drift_score,
                     std::unique_ptr<aps::obs::DriftDetector> drift) {
    latency_hist_ = latency;
    drift_gauge_ = drift_score;
    drift_ = std::move(drift);
  }
  [[nodiscard]] aps::obs::Histogram* latency_histogram() const {
    return latency_hist_;
  }
  [[nodiscard]] aps::obs::Gauge* drift_gauge() const { return drift_gauge_; }
  [[nodiscard]] aps::obs::DriftDetector* drift() const { return drift_.get(); }

  /// Install the degrade twin: a cheap stand-in monitor (e.g. the decision
  /// tree from the same bundle generation) that answers FeedMode::kDegraded
  /// ticks while the primary batch only ingests.
  /// Must be installed before the first lane; lanes are added to the twin
  /// in lockstep with the primary, so twin lane indices coincide.
  void set_degrade_twin(std::unique_ptr<aps::monitor::Monitor> twin) {
    twin_prototype_ = std::move(twin);
  }
  [[nodiscard]] bool can_degrade() const { return twin_prototype_ != nullptr; }

  /// Inference precision for every lane of this shard. Applies to the
  /// existing batch immediately and to batches created by later
  /// try_add_lane calls; monitors without a float32 path ignore it (their
  /// batch keeps reporting kF64).
  void set_precision(aps::monitor::Precision precision) {
    precision_ = precision;
    if (batch_ != nullptr) batch_->set_precision(precision_);
    if (twin_batch_ != nullptr) twin_batch_->set_precision(precision_);
  }
  [[nodiscard]] aps::monitor::Precision precision() const {
    return precision_;
  }

  [[nodiscard]] std::size_t lanes() const { return lane_sessions_.size(); }
  [[nodiscard]] SessionId session_at(std::size_t lane) const {
    return lane_sessions_[lane];
  }

  /// Append a lane adopting `prototype`'s state; returns the lane index,
  /// or nullopt when the shard's batch rejects the prototype (a different
  /// model instance behind the same monitor name — the engine then places
  /// the session in a sibling shard). The first lane always succeeds: it
  /// creates the batch from the prototype's own make_batch() (per-lane
  /// fallback when the monitor has no specialized implementation).
  [[nodiscard]] std::optional<std::size_t> try_add_lane(
      const aps::monitor::Monitor& prototype, SessionId session) {
    if (batch_ == nullptr) {
      batch_ = prototype.make_batch();
      if (batch_ == nullptr) {
        batch_ = std::make_unique<aps::monitor::PerLaneMonitorBatch>();
      }
      batch_->set_precision(precision_);
    }
    if (!batch_->add_lane(prototype)) return std::nullopt;
    if (twin_prototype_ != nullptr) {
      if (twin_batch_ == nullptr) {
        twin_batch_ = twin_prototype_->make_batch();
        if (twin_batch_ == nullptr) {
          twin_batch_ = std::make_unique<aps::monitor::PerLaneMonitorBatch>();
        }
        twin_batch_->set_precision(precision_);
      }
      // The twin is stateless (DT/rule kinds), so adding from the shared
      // prototype keeps it lockstep with the primary lane.
      (void)twin_batch_->add_lane(*twin_prototype_);
    }
    lane_sessions_.push_back(session);
    return lane_sessions_.size() - 1;
  }

  /// Remove `lane` (swap-with-last compaction). Returns the session that
  /// moved into `lane`'s slot, or nullopt when the removed lane was last.
  std::optional<SessionId> remove_lane(std::size_t lane) {
    batch_->remove_lane(lane);
    if (twin_batch_ != nullptr) twin_batch_->remove_lane(lane);
    const bool was_last = lane + 1 == lane_sessions_.size();
    lane_sessions_[lane] = lane_sessions_.back();
    lane_sessions_.pop_back();
    if (was_last) return std::nullopt;
    return lane_sessions_[lane];
  }

  void reset_lane(std::size_t lane) {
    batch_->reset_lane(lane);
    if (twin_batch_ != nullptr) twin_batch_->reset_lane(lane);
  }

  [[nodiscard]] std::unique_ptr<aps::monitor::Monitor> extract_lane(
      std::size_t lane) const {
    return batch_->extract_lane(lane);
  }

  /// One control cycle for a subset of lanes (out[i] answers obs[i] for
  /// lane lanes[i]); the engine makes one call per shard stretch of a
  /// tick.
  void observe_lanes(std::span<const std::size_t> lanes,
                     std::span<const aps::monitor::Observation> obs,
                     std::span<aps::monitor::Decision> out) {
    batch_->observe_lanes(lanes, obs, out);
  }

  /// Degraded tick: the twin answers (full inference on the cheap kind),
  /// the primary only ingests the observation so its streaming state stays
  /// bit-identical to a never-degraded run. Falls back to the normal path
  /// when no twin is installed.
  void observe_lanes_degraded(std::span<const std::size_t> lanes,
                              std::span<const aps::monitor::Observation> obs,
                              std::span<aps::monitor::Decision> out) {
    if (twin_batch_ == nullptr) {
      batch_->observe_lanes(lanes, obs, out);
      return;
    }
    twin_batch_->observe_lanes(lanes, obs, out);
    batch_->ingest_lanes(lanes, obs);
  }

 private:
  std::string monitor_name_;
  std::uint64_t version_ = 0;
  std::uint32_t ordinal_ = 0;
  std::string label_;
  aps::monitor::Precision precision_ = aps::monitor::Precision::kF64;
  std::unique_ptr<aps::monitor::MonitorBatch> batch_;  ///< created on first lane
  // Overload twin: a cheap monitor of the degrade-to kind whose batch keeps
  // one lane per primary lane (added/removed in lockstep). Null unless the
  // engine's degrade pair starts at this shard's monitor.
  std::unique_ptr<aps::monitor::Monitor> twin_prototype_;
  std::unique_ptr<aps::monitor::MonitorBatch> twin_batch_;
  std::vector<SessionId> lane_sessions_;  ///< session occupying each lane
  // Telemetry (engine-wired; null when telemetry is off). The histogram
  // and gauge are registry-owned series keyed by label(), so they outlive
  // the shard; the drift detector is per-shard live state.
  aps::obs::Histogram* latency_hist_ = nullptr;
  aps::obs::Gauge* drift_gauge_ = nullptr;
  std::unique_ptr<aps::obs::DriftDetector> drift_;
};

}  // namespace aps::serve
