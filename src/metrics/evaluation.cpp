#include "metrics/evaluation.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/units.h"
#include "risk/risk_index.h"

namespace aps::metrics {

int fault_step_of(const aps::sim::SimResult& run) {
  return run.config.fault.enabled() ? run.config.fault.start_step : -1;
}

std::vector<bool> alarms_of(const aps::sim::SimResult& run) {
  std::vector<bool> out;
  out.reserve(run.steps.size());
  for (const auto& s : run.steps) out.push_back(s.alarm);
  return out;
}

std::vector<bool> alarms_of(std::span<const aps::monitor::Decision> decisions) {
  std::vector<bool> out;
  out.reserve(decisions.size());
  for (const auto& d : decisions) out.push_back(d.alarm);
  return out;
}

// ---- Resilience ------------------------------------------------------------

void ResilienceStats::add_run(const aps::sim::SimResult& run) {
  ++total_runs;
  if (!run.label.hazardous) return;
  ++hazardous_runs;
  const int tf = fault_step_of(run);
  const int th = run.label.onset_step;
  tth_min.push_back(static_cast<double>(th - std::max(tf, 0)) *
                    aps::kControlPeriodMin);
}

void ResilienceStats::merge(const ResilienceStats& other) {
  total_runs += other.total_runs;
  hazardous_runs += other.hazardous_runs;
  tth_min.insert(tth_min.end(), other.tth_min.begin(), other.tth_min.end());
}

double ResilienceStats::hazard_coverage() const {
  return total_runs > 0 ? static_cast<double>(hazardous_runs) /
                              static_cast<double>(total_runs)
                        : 0.0;
}

double ResilienceStats::mean_tth_min() const {
  return aps::mean(tth_min);
}

double ResilienceStats::negative_tth_fraction() const {
  if (tth_min.empty()) return 0.0;
  const auto negatives = static_cast<double>(
      std::count_if(tth_min.begin(), tth_min.end(),
                    [](double v) { return v < 0.0; }));
  return negatives / static_cast<double>(tth_min.size());
}

ResilienceStats resilience(const aps::sim::CampaignResult& campaign) {
  ResilienceStats stats;
  for (const auto* run : campaign.flat()) stats.add_run(*run);
  return stats;
}

// ---- Accuracy ----------------------------------------------------------------

void AccuracyReport::add_run(const std::vector<bool>& alarms,
                             const aps::risk::TraceLabel& label,
                             int fault_step, int tolerance_steps) {
  const std::vector<bool>& truth = label.sample_hazard;
  assert(alarms.size() == truth.size());
  sample.add(tolerance_window_confusion(alarms, truth, tolerance_steps));
  simulation.add(two_region_confusion(alarms, truth, fault_step));
  ++runs;
  if (label.hazardous) ++hazardous_runs;
}

void AccuracyReport::merge(const AccuracyReport& other) {
  sample.add(other.sample);
  simulation.add(other.simulation);
  runs += other.runs;
  hazardous_runs += other.hazardous_runs;
}

double AccuracyReport::hazard_fraction() const {
  return runs > 0
             ? static_cast<double>(hazardous_runs) / static_cast<double>(runs)
             : 0.0;
}

// ---- Timeliness ----------------------------------------------------------------

void TimelinessStats::add_run(const std::vector<bool>& alarms,
                              const aps::risk::TraceLabel& label,
                              int fault_step) {
  if (!label.hazardous) return;
  ++hazardous_runs;
  // Reaction to the *fault*: the first alarm at or after activation.
  // Alarms on pre-fault initial transients are not detections of the
  // injected failure.
  const int tf = std::max(0, fault_step);
  int td = -1;
  for (std::size_t k = static_cast<std::size_t>(tf); k < alarms.size(); ++k) {
    if (alarms[k]) {
      td = static_cast<int>(k);
      break;
    }
  }
  if (td < 0) return;
  const int th = label.onset_step;
  const double reaction = static_cast<double>(th - td) * aps::kControlPeriodMin;
  reaction_min.push_back(reaction);
  if (reaction >= 0.0) ++early_detections;
}

void TimelinessStats::merge(const TimelinessStats& other) {
  reaction_min.insert(reaction_min.end(), other.reaction_min.begin(),
                      other.reaction_min.end());
  hazardous_runs += other.hazardous_runs;
  early_detections += other.early_detections;
}

double TimelinessStats::mean_reaction_min() const {
  return aps::mean(reaction_min);
}

double TimelinessStats::stddev_reaction_min() const {
  return aps::stddev(reaction_min);
}

double TimelinessStats::early_detection_rate() const {
  return hazardous_runs > 0 ? static_cast<double>(early_detections) /
                                  static_cast<double>(hazardous_runs)
                            : 0.0;
}

// ---- Mitigation ----------------------------------------------------------------

void MitigationReport::add_run(bool baseline_hazardous,
                               const aps::sim::SimResult& mitigated) {
  ++total_runs;
  const bool is_hazard = mitigated.label.hazardous;
  if (baseline_hazardous) {
    ++baseline_hazards;
    if (!is_hazard) ++prevented;
    if (is_hazard && !mitigated.any_alarm()) {
      // FN under mitigation: the patient faces the hazard unwarned
      // (Eq. 9 first term).
      risk_sum += aps::risk::mean_risk(mitigated.bg_trace());
    }
  } else if (is_hazard) {
    // New hazard introduced by mitigating false alarms (Eq. 9 second
    // term).
    ++new_hazards;
    risk_sum += aps::risk::mean_risk(mitigated.bg_trace());
  }
}

void MitigationReport::merge(const MitigationReport& other) {
  total_runs += other.total_runs;
  baseline_hazards += other.baseline_hazards;
  prevented += other.prevented;
  new_hazards += other.new_hazards;
  risk_sum += other.risk_sum;
}

double MitigationReport::recovery_rate() const {
  return baseline_hazards > 0 ? static_cast<double>(prevented) /
                                    static_cast<double>(baseline_hazards)
                              : 0.0;
}

double MitigationReport::average_risk() const {
  return total_runs > 0 ? risk_sum / static_cast<double>(total_runs) : 0.0;
}

}  // namespace aps::metrics
