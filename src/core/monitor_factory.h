// Monitor synthesis: turn campaign data + profiles into each of the
// paper's monitors (Guideline, MPC, CAWOT, CAWT, DT, MLP, LSTM) behind the
// common sim::MonitorFactory interface, plus the ML dataset builders.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/threshold_pipeline.h"
#include "ml/decision_tree.h"
#include "ml/lstm.h"
#include "ml/mlp.h"
#include "monitor/caw.h"
#include "monitor/guideline.h"
#include "monitor/mpc.h"
#include "obs/drift.h"
#include "sim/runner.h"

namespace aps::core {

// ---- Profile-only monitors ---------------------------------------------------

/// Guideline monitor with lambda10/lambda90 estimated from the patient's
/// fault-free BG distribution.
[[nodiscard]] aps::monitor::GuidelineConfig guideline_config_from_traces(
    const std::vector<const aps::sim::SimResult*>& fault_free_runs);

/// CAWOT: Table I logic with profile-derived default thresholds. Like
/// every CAW factory it builds one monitor per patient up front and hands
/// out clones that share that patient's configuration.
[[nodiscard]] aps::sim::MonitorFactory cawot_factory(
    const aps::sim::Stack& stack, double target_bg = 120.0);

struct PatientProfile;
/// CAWOT from pre-extracted profiles (no live stack needed — the serving
/// path builds it from persisted artifacts).
[[nodiscard]] aps::sim::MonitorFactory cawot_factory(
    std::vector<PatientProfile> profiles, double target_bg = 120.0);

/// MPC monitor factory (population model; same config for every patient).
[[nodiscard]] aps::sim::MonitorFactory mpc_factory(
    aps::monitor::MpcConfig config = {});

// ---- Data-driven monitors -------------------------------------------------------

/// Per-patient basal / ISF profile of a stack (used during extraction).
struct PatientProfile {
  double basal_rate = 0.0;
  double isf = 0.0;
  double steady_state_iob = 0.0;
};
[[nodiscard]] std::vector<PatientProfile> stack_profiles(
    const aps::sim::Stack& stack);

/// Everything the data-driven monitors need, learned from one training
/// campaign run without a monitor.
struct TrainingArtifacts {
  std::vector<PatientProfile> profiles;
  /// Patient-specific learned thresholds (CAWT).
  std::vector<std::map<std::string, double>> patient_thresholds;
  /// Thresholds learned from all patients pooled (population ablation).
  std::map<std::string, double> population_thresholds;
  /// Guideline configs per patient (percentiles from fault-free runs).
  std::vector<aps::monitor::GuidelineConfig> guideline_configs;
  double target_bg = 120.0;
};

/// Learn all artifacts from a training campaign (`training` must come from
/// the same stack, run with the null monitor) plus fault-free runs for the
/// guideline percentiles.
[[nodiscard]] TrainingArtifacts learn_artifacts(
    const aps::sim::Stack& stack, const aps::sim::CampaignResult& training,
    const aps::sim::CampaignResult& fault_free,
    const ThresholdLearningOptions& options = {});

/// Learn artifacts from pre-extracted per-patient rule datasets (the
/// streaming pipeline's path: violation values are accumulated while the
/// baseline campaign streams, so no trace is ever retained) plus the
/// retained fault-free campaign for the guideline percentiles. With a
/// pool, per-patient threshold optimizations run concurrently; results are
/// placed by patient index, so output never depends on scheduling.
[[nodiscard]] TrainingArtifacts learn_artifacts_from_data(
    const aps::sim::Stack& stack, const std::vector<RuleDatasets>& rule_data,
    const aps::sim::CampaignResult& fault_free,
    const ThresholdLearningOptions& options = {},
    aps::ThreadPool* pool = nullptr);

/// CAWT: Table I logic with each patient's learned thresholds.
[[nodiscard]] aps::sim::MonitorFactory cawt_factory(
    const TrainingArtifacts& artifacts);
/// CAWT with the pooled population thresholds for every patient.
[[nodiscard]] aps::sim::MonitorFactory cawt_population_factory(
    const TrainingArtifacts& artifacts);
[[nodiscard]] aps::sim::MonitorFactory guideline_factory(
    const TrainingArtifacts& artifacts);

// ---- ML monitors ------------------------------------------------------------------

struct MlDataOptions {
  int classes = 2;   ///< 2 = safe/unsafe, 3 = none/H1/H2 (ablation §VI-1)
  int stride = 1;    ///< take every stride-th sample
  /// Reservoir capacity: when the campaign yields more candidate samples,
  /// a deterministic seeded bottom-k reservoir keeps a uniform subsample
  /// that is invariant to shard layout and thread count.
  std::size_t max_samples = 200000;
  std::uint64_t sample_seed = 0x5EEDu;  ///< reservoir priority seed
};

/// Eq. 7 label of step k of a labeled run: positive when a hazard lies in
/// the run's future (pre-onset) or the sample itself is hazardous; with
/// classes >= 3 the positive class distinguishes H1 from H2.
[[nodiscard]] int ml_sample_label(const aps::sim::SimResult& run,
                                  std::size_t k, int classes);

/// Stream one finished run's strided samples into the tabular reservoir
/// (features per Eq. 7). `run_index` addresses the run globally so the
/// reservoir's sample identity is campaign-wide.
void accumulate_tabular_samples(const aps::sim::SimResult& run,
                                const PatientProfile& profile,
                                std::uint64_t run_index,
                                const MlDataOptions& options,
                                aps::ml::DatasetBuilder& builder);

/// Stream one finished run's sliding windows (Eq. 8) into the sequence
/// reservoir.
void accumulate_sequence_samples(const aps::sim::SimResult& run,
                                 const PatientProfile& profile,
                                 std::uint64_t run_index,
                                 const MlDataOptions& options,
                                 aps::ml::SequenceDatasetBuilder& builder);

/// Tabular dataset over ml_features(...) with Eq. 7 labels.
[[nodiscard]] aps::ml::Dataset build_tabular_dataset(
    const std::vector<const aps::sim::SimResult*>& runs,
    const std::vector<PatientProfile>& profiles,
    const std::vector<int>& run_patient, const MlDataOptions& options = {});

/// Sliding-window dataset (Eq. 8) for the LSTM.
[[nodiscard]] aps::ml::SequenceDataset build_sequence_dataset(
    const std::vector<const aps::sim::SimResult*>& runs,
    const std::vector<PatientProfile>& profiles,
    const std::vector<int>& run_patient, const MlDataOptions& options = {});

/// Flatten a campaign into (runs, patient-index-per-run) pairs.
struct FlatCampaign {
  std::vector<const aps::sim::SimResult*> runs;
  std::vector<int> run_patient;
};
[[nodiscard]] FlatCampaign flatten(const aps::sim::CampaignResult& campaign);

[[nodiscard]] aps::sim::MonitorFactory dt_factory(
    std::shared_ptr<const aps::ml::DecisionTree> model, int classes);
[[nodiscard]] aps::sim::MonitorFactory mlp_factory(
    std::shared_ptr<const aps::ml::Mlp> model, int classes);
[[nodiscard]] aps::sim::MonitorFactory lstm_factory(
    std::shared_ptr<const aps::ml::Lstm> model, int classes);

// ---- Serving bundle ---------------------------------------------------------

/// Everything a serving process needs to stand up any of the paper's
/// monitors without retraining: the learned thresholds/percentiles plus
/// the (optional) trained ML models. The models are shared immutable state:
/// every session monitor cloned from a bundle-backed factory holds the same
/// shared_ptr, so N sessions cost one copy of the weights.
struct ArtifactBundle {
  TrainingArtifacts artifacts;
  std::shared_ptr<const aps::ml::DecisionTree> dt;  ///< may be null
  std::shared_ptr<const aps::ml::Mlp> mlp;          ///< may be null
  std::shared_ptr<const aps::ml::Lstm> lstm;        ///< may be null
  int ml_classes = 2;    ///< label space of dt/mlp
  int lstm_classes = 2;  ///< label space of lstm
  /// Training-time per-feature statistics (optional trailing bundle
  /// section; null for bundles written before it existed or trained
  /// without the ML dataset). The serving engine seeds its per-shard
  /// drift detectors from it.
  std::shared_ptr<const aps::obs::TrainingStats> training_stats;
};

/// Monitor names constructible from this bundle (subset of the Table V/VI
/// line-up depending on which models are present).
[[nodiscard]] std::vector<std::string> bundle_monitor_names(
    const ArtifactBundle& bundle);

/// Number of per-patient artifact rows the bundle's factories accept:
/// patient_index must lie in [0, bundle_cohort_size()). The serving engine
/// validates session opens and snapshot restores against it up front
/// instead of relying on each factory's out-of-range throw.
[[nodiscard]] int bundle_cohort_size(const ArtifactBundle& bundle);

/// Construct any named monitor ("none", "guideline", "mpc", "cawot",
/// "cawt", "cawt-population", "dt", "mlp", "lstm") from the bundle.
/// Throws std::invalid_argument for unknown names and std::runtime_error
/// when the requested model is absent from the bundle.
[[nodiscard]] aps::sim::MonitorFactory factory_from_bundle(
    const ArtifactBundle& bundle, const std::string& name);

}  // namespace aps::core
