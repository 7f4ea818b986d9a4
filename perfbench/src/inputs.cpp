#include "inputs.h"

#include <map>
#include <memory>
#include <span>

#include "common.h"
#include "core/threshold_pipeline.h"
#include "fi/campaign.h"
#include "ml/dataset.h"
#include "monitor/ml_monitor.h"
#include "obs/drift.h"
#include "sim/closed_loop.h"
#include "sim/runner.h"
#include "sim/stack.h"

namespace perfbench {

WireInputs make_wire_inputs(std::uint64_t seed, std::size_t trace_count,
                            bool with_ml, aps::ThreadPool& pool) {
  const aps::sim::Stack stack = aps::sim::glucosym_openaps_stack();
  const auto profiles = aps::core::stack_profiles(stack);
  const auto grid = aps::fi::CampaignGrid::quick();
  const auto scenarios = aps::fi::enumerate_scenarios(grid);
  const auto cohort = static_cast<std::size_t>(stack.cohort_size);

  // Seeded choice of (patient, scenario, CGM noise) per trace.
  struct Pick {
    int patient = 0;
    std::size_t scenario = 0;
    std::uint64_t cgm_seed = 0;
  };
  std::vector<Pick> picks(trace_count);
  InputRng rng(seed ^ 0x7261636573ull);
  for (auto& pick : picks) {
    pick.patient = static_cast<int>(rng.below(cohort));
    pick.scenario = rng.below(scenarios.size());
    pick.cgm_seed = rng.next();
  }
  const auto request = [&](std::size_t i) {
    aps::sim::RunRequest req;
    req.patient_index = picks[i].patient;
    req.config.initial_bg = scenarios[picks[i].scenario].initial_bg;
    req.config.fault = scenarios[picks[i].scenario].fault;
    req.config.cgm_seed = picks[i].cgm_seed;
    return req;
  };

  WireInputs inputs;
  inputs.traces.resize(trace_count);
  inputs.trace_patient.resize(trace_count);
  std::vector<aps::core::RuleDatasets> rules_by_trace(trace_count);
  std::vector<std::uint8_t> hazardous(trace_count, 0);

  aps::sim::StreamingOptions streaming;
  streaming.shard_size = 8;
  const std::size_t shards = aps::sim::shard_count(trace_count, streaming);
  aps::core::MlDataOptions tab_options{.classes = 2, .stride = 3,
                                       .max_samples = 4000};
  aps::core::MlDataOptions seq_options{.classes = 2, .stride = 5,
                                       .max_samples = 600};
  std::vector<std::unique_ptr<aps::ml::DatasetBuilder>> tab(shards);
  std::vector<std::unique_ptr<aps::ml::SequenceDatasetBuilder>> seqs(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    tab[s] = std::make_unique<aps::ml::DatasetBuilder>(
        aps::monitor::kMlFeatureCount, 2, tab_options.max_samples, seed);
    seqs[s] = std::make_unique<aps::ml::SequenceDatasetBuilder>(
        2, seq_options.max_samples, seed + 1);
  }
  aps::monitor::CawConfig context_config;
  context_config.target_bg = aps::core::TrainingArtifacts{}.target_bg;

  const auto sink = [&](std::size_t shard, std::size_t i,
                        const aps::sim::SimResult& run) {
    const auto& profile = profiles[static_cast<std::size_t>(picks[i].patient)];
    auto& trace = inputs.traces[i];
    trace.reserve(run.steps.size());
    for (std::size_t k = 0; k < run.steps.size(); ++k) {
      trace.push_back(aps::sim::observation_from_record(
          run, k, profile.basal_rate, profile.isf));
    }
    inputs.trace_patient[i] = picks[i].patient;
    if (run.label.hazardous) {
      hazardous[i] = 1;
      const std::vector<const aps::sim::SimResult*> one{&run};
      rules_by_trace[i] = aps::core::extract_rule_datasets(
          one, context_config, profile.basal_rate, profile.isf, {});
    }
    // Tabular samples always: their feature statistics seed the serving
    // engine's drift detectors, as in a bundle the design pipeline writes.
    aps::core::accumulate_tabular_samples(run, profile, i, tab_options,
                                          *tab[shard]);
    if (with_ml) {
      aps::core::accumulate_sequence_samples(run, profile, i, seq_options,
                                             *seqs[shard]);
    }
  };
  aps::sim::for_each_run(stack, trace_count, request,
                         aps::sim::null_monitor_factory(), sink, &pool,
                         streaming);

  // Per-patient rule datasets in trace order (scheduling-independent).
  std::vector<aps::core::RuleDatasets> rule_data(cohort);
  for (std::size_t i = 0; i < trace_count; ++i) {
    inputs.hazardous_traces += hazardous[i];
    auto& dest = rule_data[static_cast<std::size_t>(picks[i].patient)];
    for (const auto& [param, values] : rules_by_trace[i]) {
      dest[param].insert(dest[param].end(), values.begin(), values.end());
    }
  }
  const auto fault_free =
      aps::sim::run_campaign(stack, aps::fi::fault_free_scenarios(grid),
                             aps::sim::null_monitor_factory(), {}, &pool);
  inputs.bundle.artifacts = aps::core::learn_artifacts_from_data(
      stack, rule_data, fault_free, {}, &pool);

  for (std::size_t s = 1; s < shards; ++s) {
    tab[0]->merge(std::move(*tab[s]));
    seqs[0]->merge(std::move(*seqs[s]));
  }
  const aps::ml::Dataset tabular = tab[0]->build();
  inputs.bundle.training_stats =
      std::make_shared<const aps::obs::TrainingStats>(
          aps::obs::training_stats_from_samples(
              tabular.x.cols(), std::span<const double>(tabular.x.data(),
                                                        tabular.x.size())));
  if (with_ml) {
    const aps::ml::SequenceDataset sequences = seqs[0]->build();

    aps::ml::DecisionTreeConfig dt_config;
    dt_config.max_depth = 12;
    auto dt = std::make_shared<aps::ml::DecisionTree>(dt_config);
    dt->fit(tabular);
    inputs.bundle.dt = std::move(dt);

    aps::ml::MlpConfig mlp_config;
    mlp_config.hidden_units = {256, 128};
    mlp_config.max_epochs = 1;
    mlp_config.seed = seed;
    auto mlp = std::make_shared<aps::ml::Mlp>(mlp_config);
    mlp->fit(tabular, &pool);
    inputs.bundle.mlp = std::move(mlp);

    aps::ml::LstmConfig lstm_config;
    lstm_config.hidden_units = {128, 64};
    lstm_config.max_epochs = 1;
    lstm_config.seed = seed;
    auto lstm = std::make_shared<aps::ml::Lstm>(lstm_config);
    lstm->fit(sequences, &pool);
    inputs.bundle.lstm = std::move(lstm);
  }
  return inputs;
}

}  // namespace perfbench
