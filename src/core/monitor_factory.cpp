#include "core/monitor_factory.h"

#include <algorithm>
#include <stdexcept>

#include "common/stats.h"
#include "controller/iob.h"
#include "monitor/ml_monitor.h"

namespace aps::core {

int ml_sample_label(const aps::sim::SimResult& run, std::size_t k,
                    int classes) {
  if (!run.label.hazardous) return 0;
  const bool positive = static_cast<int>(k) <= run.label.onset_step ||
                        run.label.sample_hazard[k];
  if (!positive) return 0;
  if (classes < 3) return 1;
  return run.label.type == aps::HazardType::kH1TooMuchInsulin ? 1 : 2;
}

aps::monitor::GuidelineConfig guideline_config_from_traces(
    const std::vector<const aps::sim::SimResult*>& fault_free_runs) {
  std::vector<double> bgs;
  for (const auto* run : fault_free_runs) {
    const auto trace = run->cgm_trace();
    bgs.insert(bgs.end(), trace.begin(), trace.end());
  }
  aps::monitor::GuidelineConfig config;
  if (!bgs.empty()) {
    config.lambda10 = aps::percentile(bgs, 10.0);
    config.lambda90 = aps::percentile(bgs, 90.0);
  }
  return config;
}

std::vector<PatientProfile> stack_profiles(const aps::sim::Stack& stack) {
  std::vector<PatientProfile> profiles;
  profiles.reserve(static_cast<std::size_t>(stack.cohort_size));
  const aps::controller::IobCalculator iob_calc;
  for (int p = 0; p < stack.cohort_size; ++p) {
    const auto patient = stack.make_patient(p);
    const auto controller = stack.make_controller(*patient);
    PatientProfile profile;
    profile.basal_rate = controller->basal_rate();
    profile.isf = controller->isf();
    profile.steady_state_iob = iob_calc.steady_state_iob(profile.basal_rate);
    profiles.push_back(profile);
  }
  return profiles;
}

aps::sim::MonitorFactory cawot_factory(const aps::sim::Stack& stack,
                                       double target_bg) {
  return cawot_factory(stack_profiles(stack), target_bg);
}

namespace {

/// One CawMonitor per patient, built up front; the factory hands out
/// clones, which share their patient's immutable configuration.
aps::sim::MonitorFactory caw_clone_factory(
    std::vector<aps::monitor::CawMonitor> per_patient) {
  auto shared = std::make_shared<const std::vector<aps::monitor::CawMonitor>>(
      std::move(per_patient));
  return [shared](int patient_index) {
    return shared->at(static_cast<std::size_t>(patient_index)).clone();
  };
}

}  // namespace

aps::sim::MonitorFactory cawot_factory(std::vector<PatientProfile> profiles,
                                       double target_bg) {
  std::vector<aps::monitor::CawMonitor> per_patient;
  per_patient.reserve(profiles.size());
  for (const auto& profile : profiles) {
    aps::monitor::CawConfig config;
    config.target_bg = target_bg;
    config.thresholds =
        aps::monitor::default_thresholds(profile.steady_state_iob);
    config.name = "cawot";
    per_patient.emplace_back(std::move(config));
  }
  return caw_clone_factory(std::move(per_patient));
}

aps::sim::MonitorFactory mpc_factory(aps::monitor::MpcConfig config) {
  return [config](int) {
    return std::make_unique<aps::monitor::MpcMonitor>(config);
  };
}

TrainingArtifacts learn_artifacts_from_data(
    const aps::sim::Stack& stack, const std::vector<RuleDatasets>& rule_data,
    const aps::sim::CampaignResult& fault_free,
    const ThresholdLearningOptions& options, aps::ThreadPool* pool) {
  TrainingArtifacts artifacts;
  artifacts.profiles = stack_profiles(stack);
  const auto patients = rule_data.size();

  // Patient-specific thresholds: independent optimizations, placed by
  // patient index.
  artifacts.patient_thresholds.resize(patients);
  const auto learn_patient = [&](std::size_t p) {
    const auto& profile = artifacts.profiles[p];
    const auto defaults =
        aps::monitor::default_thresholds(profile.steady_state_iob);
    artifacts.patient_thresholds[p] =
        learn_thresholds(rule_data[p], defaults, options).values;
  };
  if (pool != nullptr && patients > 1) {
    pool->parallel_for(patients, learn_patient);
  } else {
    for (std::size_t p = 0; p < patients; ++p) learn_patient(p);
  }

  // Population thresholds from the pooled violation data (patient order,
  // so pooling is independent of how the campaign was sharded), with
  // defaults anchored to the cohort-average basal IOB.
  RuleDatasets pooled;
  for (std::size_t p = 0; p < patients; ++p) {
    for (const auto& [param, values] : rule_data[p]) {
      auto& bucket = pooled[param];
      bucket.insert(bucket.end(), values.begin(), values.end());
    }
  }
  double mean_ss_iob = 0.0;
  for (const auto& profile : artifacts.profiles) {
    mean_ss_iob += profile.steady_state_iob;
  }
  mean_ss_iob /= static_cast<double>(artifacts.profiles.size());
  const auto pop_defaults = aps::monitor::default_thresholds(mean_ss_iob);
  artifacts.population_thresholds =
      learn_thresholds(pooled, pop_defaults, options).values;

  // Guideline percentiles per patient from fault-free operation.
  for (std::size_t p = 0; p < patients; ++p) {
    std::vector<const aps::sim::SimResult*> runs;
    if (p < fault_free.by_patient.size()) {
      for (const auto& r : fault_free.by_patient[p]) runs.push_back(&r);
    }
    artifacts.guideline_configs.push_back(
        guideline_config_from_traces(runs));
  }
  return artifacts;
}

TrainingArtifacts learn_artifacts(const aps::sim::Stack& stack,
                                  const aps::sim::CampaignResult& training,
                                  const aps::sim::CampaignResult& fault_free,
                                  const ThresholdLearningOptions& options) {
  aps::monitor::CawConfig context_config;
  context_config.target_bg = TrainingArtifacts{}.target_bg;

  const auto profiles = stack_profiles(stack);
  std::vector<RuleDatasets> rule_data;
  rule_data.reserve(training.by_patient.size());
  for (std::size_t p = 0; p < training.by_patient.size(); ++p) {
    std::vector<const aps::sim::SimResult*> runs;
    for (const auto& r : training.by_patient[p]) runs.push_back(&r);
    rule_data.push_back(extract_rule_datasets(runs, context_config,
                                              profiles[p].basal_rate,
                                              profiles[p].isf, options));
  }
  return learn_artifacts_from_data(stack, rule_data, fault_free, options);
}

aps::sim::MonitorFactory cawt_factory(const TrainingArtifacts& artifacts) {
  std::vector<aps::monitor::CawMonitor> per_patient;
  per_patient.reserve(artifacts.patient_thresholds.size());
  for (const auto& thresholds : artifacts.patient_thresholds) {
    aps::monitor::CawConfig config;
    config.target_bg = artifacts.target_bg;
    config.thresholds = thresholds;
    config.name = "cawt";
    per_patient.emplace_back(std::move(config));
  }
  return caw_clone_factory(std::move(per_patient));
}

aps::sim::MonitorFactory cawt_population_factory(
    const TrainingArtifacts& artifacts) {
  aps::monitor::CawConfig config;
  config.target_bg = artifacts.target_bg;
  config.thresholds = artifacts.population_thresholds;
  config.name = "cawt-population";
  auto shared =
      std::make_shared<const aps::monitor::CawMonitor>(std::move(config));
  return [shared](int) { return shared->clone(); };
}

aps::sim::MonitorFactory guideline_factory(
    const TrainingArtifacts& artifacts) {
  auto configs =
      std::make_shared<const std::vector<aps::monitor::GuidelineConfig>>(
          artifacts.guideline_configs);
  return [configs](int patient_index) {
    return std::make_unique<aps::monitor::GuidelineMonitor>(
        configs->at(static_cast<std::size_t>(patient_index)));
  };
}

FlatCampaign flatten(const aps::sim::CampaignResult& campaign) {
  FlatCampaign flat;
  for (std::size_t p = 0; p < campaign.by_patient.size(); ++p) {
    for (const auto& run : campaign.by_patient[p]) {
      flat.runs.push_back(&run);
      flat.run_patient.push_back(static_cast<int>(p));
    }
  }
  return flat;
}

void accumulate_tabular_samples(const aps::sim::SimResult& run,
                                const PatientProfile& profile,
                                std::uint64_t run_index,
                                const MlDataOptions& options,
                                aps::ml::DatasetBuilder& builder) {
  for (std::size_t k = 0; k < run.steps.size();
       k += static_cast<std::size_t>(options.stride)) {
    const auto obs = aps::sim::observation_from_record(
        run, k, profile.basal_rate, profile.isf);
    builder.add(run_index, k, aps::monitor::ml_features(obs),
                ml_sample_label(run, k, options.classes));
  }
}

void accumulate_sequence_samples(const aps::sim::SimResult& run,
                                 const PatientProfile& profile,
                                 std::uint64_t run_index,
                                 const MlDataOptions& options,
                                 aps::ml::SequenceDatasetBuilder& builder) {
  const std::size_t window = aps::monitor::kLstmWindow;
  if (run.steps.size() < window) return;
  for (std::size_t end = window - 1; end < run.steps.size();
       end += static_cast<std::size_t>(options.stride)) {
    aps::ml::Matrix seq(window, aps::monitor::kMlFeatureCount);
    for (std::size_t t = 0; t < window; ++t) {
      const std::size_t k = end - window + 1 + t;
      const auto obs = aps::sim::observation_from_record(
          run, k, profile.basal_rate, profile.isf);
      const auto features = aps::monitor::ml_features(obs);
      for (std::size_t c = 0; c < features.size(); ++c) {
        seq.at(t, c) = features[c];
      }
    }
    builder.add(run_index, end, std::move(seq),
                ml_sample_label(run, end, options.classes));
  }
}

aps::ml::Dataset build_tabular_dataset(
    const std::vector<const aps::sim::SimResult*>& runs,
    const std::vector<PatientProfile>& profiles,
    const std::vector<int>& run_patient, const MlDataOptions& options) {
  aps::ml::DatasetBuilder builder(aps::monitor::kMlFeatureCount,
                                  options.classes, options.max_samples,
                                  options.sample_seed);
  for (std::size_t r = 0; r < runs.size(); ++r) {
    accumulate_tabular_samples(
        *runs[r], profiles[static_cast<std::size_t>(run_patient[r])], r,
        options, builder);
  }
  return builder.build();
}

aps::ml::SequenceDataset build_sequence_dataset(
    const std::vector<const aps::sim::SimResult*>& runs,
    const std::vector<PatientProfile>& profiles,
    const std::vector<int>& run_patient, const MlDataOptions& options) {
  aps::ml::SequenceDatasetBuilder builder(options.classes,
                                          options.max_samples,
                                          options.sample_seed);
  for (std::size_t r = 0; r < runs.size(); ++r) {
    accumulate_sequence_samples(
        *runs[r], profiles[static_cast<std::size_t>(run_patient[r])], r,
        options, builder);
  }
  return builder.build();
}

aps::sim::MonitorFactory dt_factory(
    std::shared_ptr<const aps::ml::DecisionTree> model, int classes) {
  return [model, classes](int) {
    return std::make_unique<aps::monitor::DtMonitor>(model, classes);
  };
}

aps::sim::MonitorFactory mlp_factory(
    std::shared_ptr<const aps::ml::Mlp> model, int classes) {
  return [model, classes](int) {
    return std::make_unique<aps::monitor::MlpMonitor>(model, classes);
  };
}

aps::sim::MonitorFactory lstm_factory(
    std::shared_ptr<const aps::ml::Lstm> model, int classes) {
  return [model, classes](int) {
    return std::make_unique<aps::monitor::LstmMonitor>(model, classes);
  };
}

std::vector<std::string> bundle_monitor_names(const ArtifactBundle& bundle) {
  std::vector<std::string> names = {"none",  "guideline",      "mpc",
                                    "cawot", "cawt",           "cawt-population"};
  if (bundle.dt != nullptr) names.emplace_back("dt");
  if (bundle.mlp != nullptr) names.emplace_back("mlp");
  if (bundle.lstm != nullptr) names.emplace_back("lstm");
  return names;
}

int bundle_cohort_size(const ArtifactBundle& bundle) {
  return static_cast<int>(bundle.artifacts.profiles.size());
}

aps::sim::MonitorFactory factory_from_bundle(const ArtifactBundle& bundle,
                                             const std::string& name) {
  if (name == "none") return aps::sim::null_monitor_factory();
  if (name == "guideline") return guideline_factory(bundle.artifacts);
  if (name == "mpc") return mpc_factory();
  if (name == "cawot") {
    return cawot_factory(bundle.artifacts.profiles,
                         bundle.artifacts.target_bg);
  }
  if (name == "cawt") return cawt_factory(bundle.artifacts);
  if (name == "cawt-population") {
    return cawt_population_factory(bundle.artifacts);
  }
  if (name == "dt") {
    if (bundle.dt == nullptr) {
      throw std::runtime_error("bundle has no decision-tree model");
    }
    return dt_factory(bundle.dt, bundle.ml_classes);
  }
  if (name == "mlp") {
    if (bundle.mlp == nullptr) {
      throw std::runtime_error("bundle has no MLP model");
    }
    return mlp_factory(bundle.mlp, bundle.ml_classes);
  }
  if (name == "lstm") {
    if (bundle.lstm == nullptr) {
      throw std::runtime_error("bundle has no LSTM model");
    }
    return lstm_factory(bundle.lstm, bundle.lstm_classes);
  }
  throw std::invalid_argument("unknown monitor '" + name + "'");
}

}  // namespace aps::core
