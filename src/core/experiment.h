// Shared experiment harness behind the bench binaries: prepares a stack
// (training campaign, learned artifacts, trained ML baselines) and
// evaluates monitors by re-running the campaign with each monitor wrapped
// around the controller — the same protocol as the paper's §V.
//
// The pipeline is streaming end to end: the baseline campaign flows once
// through sim::for_each_run while per-shard accumulators collect hazard
// statistics, rule-violation datasets, and reservoir-sampled ML training
// sets — no trace is ever retained, so peak memory is flat in the campaign
// size. Monitor evaluation is fused: when mitigation is off a monitor is a
// passive observer, so every monitor of a line-up is scored from ONE
// campaign pass (sim observer banks), bit-identical to dedicated passes.
//
// Scale: `full=false` uses the scaled grid (84 scenarios/patient) and small
// ML models so a bench finishes in minutes on two cores; `full=true` uses
// the paper-sized grid (882 scenarios/patient) and the paper's layer sizes.
// EXPERIMENTS.md records which mode produced the committed outputs.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/monitor_factory.h"
#include "fi/campaign.h"
#include "metrics/evaluation.h"
#include "sim/runner.h"
#include "sim/stack.h"

namespace aps::core {

struct ExperimentConfig {
  bool full = false;
  int tolerance_steps = aps::metrics::kDefaultToleranceSteps;
  bool train_ml = true;
  MlDataOptions ml_data{.classes = 2, .stride = 3, .max_samples = 30000};
  MlDataOptions lstm_data{.classes = 2, .stride = 5, .max_samples = 8000};
  /// Cross-validate the decision tree's depth (parallel k-fold) instead of
  /// using the fixed per-mode default. Off by default: it trains k trees
  /// per candidate depth.
  bool dt_depth_cv = false;
  std::uint64_t seed = 2021;

  [[nodiscard]] aps::fi::CampaignGrid grid() const {
    return full ? aps::fi::CampaignGrid::full()
                : aps::fi::CampaignGrid::quick();
  }
};

/// Streaming summary of the unmonitored baseline campaign — everything the
/// benches read (Fig. 7/8, Table V context), accumulated per shard and
/// merged in shard order so the result is independent of scheduling.
struct BaselineStats {
  struct Bucket {
    std::size_t runs = 0;
    std::size_t hazards = 0;

    void add(bool hazard) {
      ++runs;
      if (hazard) ++hazards;
    }
    void merge(const Bucket& other) {
      runs += other.runs;
      hazards += other.hazards;
    }
    [[nodiscard]] double coverage() const {
      return runs > 0
                 ? static_cast<double>(hazards) / static_cast<double>(runs)
                 : 0.0;
    }
  };

  aps::metrics::ResilienceStats resilience;
  std::vector<Bucket> by_patient;             ///< indexed by cohort slot
  std::map<std::string, Bucket> by_fault;     ///< fault kind ("fault_free")
  std::map<double, Bucket> by_initial_bg;

  void add_run(std::size_t patient_slot, const aps::sim::SimResult& run);
  void merge(const BaselineStats& other);
};

/// Everything shared by the benches for one APS stack. Holds only
/// fixed-size summaries and reservoir-bounded training data — never the
/// campaign traces themselves.
struct ExperimentContext {
  aps::sim::Stack stack;
  ExperimentConfig config;
  std::vector<aps::fi::Scenario> scenarios;

  BaselineStats baseline;  ///< streamed summary of the null-monitor pass
  /// Hazard flag per baseline run index ((patient, scenario) order): the
  /// matched unmitigated twin for streaming mitigation evaluation.
  std::vector<std::uint8_t> baseline_hazard;
  /// Per-patient rule-violation datasets (default extraction options),
  /// extracted while the baseline streamed; ablations re-learn thresholds
  /// from these without another campaign.
  std::vector<RuleDatasets> rule_data;
  /// Fault-free campaign, retained: it is O(cohort) runs by construction
  /// (guideline percentiles, fault-free training ablation).
  aps::sim::CampaignResult fault_free;

  TrainingArtifacts artifacts;
  /// Reservoir-sampled ML training sets (bounded by MlDataOptions
  /// capacities); kept for retraining ablations.
  aps::ml::Dataset tabular;
  aps::ml::SequenceDataset sequences;
  std::shared_ptr<const aps::ml::DecisionTree> dt;
  std::shared_ptr<const aps::ml::Mlp> mlp;
  std::shared_ptr<const aps::ml::Lstm> lstm;

  /// Campaign run count (cohort x scenarios).
  [[nodiscard]] std::size_t run_count() const {
    return static_cast<std::size_t>(stack.cohort_size) * scenarios.size();
  }
};

[[nodiscard]] ExperimentContext prepare_experiment(
    const aps::sim::Stack& stack, const ExperimentConfig& config,
    aps::ThreadPool& pool);

/// Stream the unmonitored baseline campaign only — the BaselineStats the
/// resilience figures (Fig. 7/8) read — without learning artifacts or
/// collecting training data. Peak memory is flat in the grid size.
[[nodiscard]] BaselineStats run_baseline_stats(const aps::sim::Stack& stack,
                                               const ExperimentConfig& config,
                                               aps::ThreadPool& pool);

/// One evaluated monitor: accuracy (both levels) + timeliness, plus the
/// optional breakdowns the benches request. No campaign is retained.
struct MonitorEval {
  std::string name;
  aps::metrics::AccuracyReport accuracy;
  aps::metrics::TimelinessStats timeliness;
  /// Filled only by mitigation passes (EvalOptions::mitigation_enabled).
  aps::metrics::MitigationReport mitigation;
  /// Per-cohort-slot breakdowns (EvalOptions::per_patient).
  std::vector<aps::metrics::AccuracyReport> accuracy_by_patient;
  std::vector<aps::metrics::TimelinessStats> timeliness_by_patient;
  /// One extra sample-level report per EvalOptions::extra_tolerances entry.
  std::vector<aps::metrics::AccuracyReport> accuracy_by_tolerance;
};

struct EvalOptions {
  /// Mitigation makes monitors active (their alarms change delivery), so
  /// each monitor needs its own campaign pass; passive line-ups fuse into
  /// one pass.
  bool mitigation_enabled = false;
  aps::monitor::MitigationConfig mitigation;
  bool per_patient = false;
  std::vector<int> extra_tolerances;
};

/// A monitor line-up entry for fused evaluation.
struct NamedMonitor {
  std::string name;
  aps::sim::MonitorFactory factory;
};

/// Evaluate a whole monitor line-up. Without mitigation this is ONE
/// campaign pass — the simulation runs unmonitored while every factory's
/// monitors observe passively — and each monitor's reports are
/// byte-identical to a dedicated pass of its own. With mitigation each
/// monitor drives its own pass (streaming accumulators either way).
[[nodiscard]] std::vector<MonitorEval> evaluate_monitor_set(
    const ExperimentContext& context,
    const std::vector<NamedMonitor>& monitors, aps::ThreadPool& pool,
    const EvalOptions& options = {});

/// Name-resolved convenience over evaluate_monitor_set.
[[nodiscard]] std::vector<MonitorEval> evaluate_monitors(
    const ExperimentContext& context, const std::vector<std::string>& names,
    aps::ThreadPool& pool, const EvalOptions& options = {});

[[nodiscard]] MonitorEval evaluate_monitor(
    const ExperimentContext& context, const std::string& name,
    const aps::sim::MonitorFactory& factory, aps::ThreadPool& pool,
    bool mitigation_enabled = false);

/// Model settings of the three ML baselines: small models on the quick
/// grid, the paper's layer sizes on the full one. The DT depth is the
/// fixed default; train_ml_baselines replaces it when dt_depth_cv is set.
struct MlBaselineConfigs {
  aps::ml::DecisionTreeConfig dt;
  aps::ml::MlpConfig mlp;
  aps::ml::LstmConfig lstm;
};
[[nodiscard]] MlBaselineConfigs ml_baseline_configs(
    const ExperimentConfig& config);

/// Train the three ML baselines on the context's reservoir-sampled
/// training sets. The DT fits on the calling thread first; then the MLP
/// and LSTM fit concurrently as two pool tasks, each spreading its
/// minibatch chunks over the same pool. Every model is bit-identical to
/// fitting it alone, with or without a pool, at any pool size.
void train_ml_baselines(ExperimentContext& context, aps::ThreadPool& pool);

/// Pick the decision-tree depth with the best k-fold CV macro accuracy
/// (folds evaluated in parallel). Exposed for the --dt-cv bench flag.
[[nodiscard]] int select_dt_depth(const aps::ml::Dataset& data,
                                  const std::vector<int>& candidates, int k,
                                  std::uint64_t seed,
                                  aps::ThreadPool* pool = nullptr);

/// Standard monitor line-up for Tables V/VI: factory by name.
[[nodiscard]] aps::sim::MonitorFactory monitor_factory_by_name(
    const ExperimentContext& context, const std::string& name);

/// Package the context's learned artifacts + trained models for
/// persistence (io::save_bundle) and serving (serve::MonitorEngine).
[[nodiscard]] ArtifactBundle bundle_from_context(
    const ExperimentContext& context);

}  // namespace aps::core
