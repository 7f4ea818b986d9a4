// Campaign-level evaluation (paper §V-D): hazard coverage, time-to-hazard,
// monitor prediction accuracy at both levels, reaction time / early
// detection rate, and the mitigation metrics (recovery rate, new hazards,
// average risk, Eq. 9).
//
// Every report here is a mergeable accumulator: per-run `add_run` plus
// `merge` of per-shard instances equals one sequential accumulation, so
// the streaming experiment pipeline scores campaigns without retaining a
// single trace. Vector-valued fields (reaction times, TTH) concatenate in
// merge order; merging shards in index order reproduces the sequential
// vectors byte-for-byte.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/stats.h"
#include "metrics/classification.h"
#include "sim/runner.h"

namespace aps::metrics {

/// Default tolerance window for hazard *prediction*: 36 steps = 3 hours,
/// calibrated to the mean time-to-hazard of the unmonitored system
/// (Fig. 7b) so that alerts raised over the monitor's prediction horizon
/// count as early detections rather than false positives.
inline constexpr int kDefaultToleranceSteps = 36;

/// Fault-activation step of a run, or -1 when fault-free.
[[nodiscard]] int fault_step_of(const aps::sim::SimResult& run);

// ---- Resilience of the unmonitored system (Fig. 7 / Fig. 8) -------------

struct ResilienceStats {
  std::size_t total_runs = 0;
  std::size_t hazardous_runs = 0;
  /// TTH in minutes for every hazardous run (may be negative when the
  /// hazard pre-dates the fault; Fig. 7b).
  std::vector<double> tth_min;

  void add_run(const aps::sim::SimResult& run);
  void merge(const ResilienceStats& other);

  [[nodiscard]] double hazard_coverage() const;
  [[nodiscard]] double mean_tth_min() const;
  [[nodiscard]] double negative_tth_fraction() const;
};

[[nodiscard]] ResilienceStats resilience(
    const aps::sim::CampaignResult& campaign);

// ---- Monitor prediction accuracy (Tables V / VI) --------------------------

struct AccuracyReport {
  ConfusionMatrix sample;      ///< tolerance-window, per sample
  ConfusionMatrix simulation;  ///< two-region, per region
  std::size_t runs = 0;
  std::size_t hazardous_runs = 0;

  /// Score one run from its alarm stream (`alarms[k]` = alert at step k)
  /// and ground-truth labeling.
  void add_run(const std::vector<bool>& alarms,
               const aps::risk::TraceLabel& label, int fault_step,
               int tolerance_steps = kDefaultToleranceSteps);
  void merge(const AccuracyReport& other);

  /// Fraction of hazardous runs.
  [[nodiscard]] double hazard_fraction() const;
};

// ---- Timeliness (Fig. 9) ---------------------------------------------------

struct TimelinessStats {
  /// Reaction time (minutes) per hazardous run with at least one alarm:
  /// positive = alert preceded the hazard.
  std::vector<double> reaction_min;
  std::size_t hazardous_runs = 0;
  std::size_t early_detections = 0;  ///< alert no later than hazard onset

  void add_run(const std::vector<bool>& alarms,
               const aps::risk::TraceLabel& label, int fault_step);
  void merge(const TimelinessStats& other);

  [[nodiscard]] double mean_reaction_min() const;
  [[nodiscard]] double stddev_reaction_min() const;
  [[nodiscard]] double early_detection_rate() const;
};

// ---- Mitigation (Table VII) -------------------------------------------------

struct MitigationReport {
  std::size_t total_runs = 0;
  std::size_t baseline_hazards = 0;   ///< hazards without mitigation
  std::size_t prevented = 0;          ///< hazardous -> safe
  std::size_t new_hazards = 0;        ///< safe -> hazardous (FP side effects)
  double risk_sum = 0.0;              ///< Eq. 9 numerator

  /// Score one mitigated run against whether its unmitigated twin (same
  /// scenario/patient) was hazardous.
  void add_run(bool baseline_hazardous, const aps::sim::SimResult& mitigated);
  void merge(const MitigationReport& other);

  [[nodiscard]] double recovery_rate() const;
  [[nodiscard]] double average_risk() const;  ///< Eq. 9
};

// ---- Per-run helpers (exposed for tests) -------------------------------------

/// Alarm vector of a run.
[[nodiscard]] std::vector<bool> alarms_of(const aps::sim::SimResult& run);

/// Alarm vector of a passive observer's decision trace.
[[nodiscard]] std::vector<bool> alarms_of(
    std::span<const aps::monitor::Decision> decisions);

}  // namespace aps::metrics
