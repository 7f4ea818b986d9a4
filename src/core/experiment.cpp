#include "core/experiment.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "learn/kfold.h"
#include "monitor/ml_monitor.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace aps::core {

namespace {

/// Phase span over the process-global tracer: the experiment pipeline's
/// coarse phases (baseline campaign, artifact learning, ML training,
/// evaluation) show up in Registry::scrape() next to the serving spans.
[[nodiscard]] aps::obs::Tracer::Scope phase_span(const char* name) {
  return aps::obs::Registry::global().tracer().span(name);
}

}  // namespace

// ---- BaselineStats ----------------------------------------------------------

void BaselineStats::add_run(std::size_t patient_slot,
                            const aps::sim::SimResult& run) {
  resilience.add_run(run);
  if (patient_slot < by_patient.size()) {
    by_patient[patient_slot].add(run.label.hazardous);
  }
  const auto& fault = run.config.fault;
  by_fault[fault.enabled() ? fault.name() : "fault_free"].add(
      run.label.hazardous);
  by_initial_bg[run.config.initial_bg].add(run.label.hazardous);
}

void BaselineStats::merge(const BaselineStats& other) {
  resilience.merge(other.resilience);
  if (by_patient.size() < other.by_patient.size()) {
    by_patient.resize(other.by_patient.size());
  }
  for (std::size_t p = 0; p < other.by_patient.size(); ++p) {
    by_patient[p].merge(other.by_patient[p]);
  }
  for (const auto& [name, bucket] : other.by_fault) {
    by_fault[name].merge(bucket);
  }
  for (const auto& [bg, bucket] : other.by_initial_bg) {
    by_initial_bg[bg].merge(bucket);
  }
}

// ---- Preparation ------------------------------------------------------------

namespace {

/// One shard per patient keeps the former parallelization granularity (and
/// one monitor instance per patient per campaign pass), and makes the
/// shard-ordered merge reproduce the sequential (patient, scenario)
/// accumulation order exactly.
aps::sim::StreamingOptions campaign_streaming(std::size_t scenario_count) {
  aps::sim::StreamingOptions streaming;
  streaming.shard_size = std::max<std::size_t>(scenario_count, 1);
  return streaming;
}

/// The one index -> run mapping every campaign pass of the pipeline uses:
/// run i is (patient i / |scenarios|, scenario i % |scenarios|). The
/// baseline hazard bits and every evaluation pass are matched by this
/// index, so all passes MUST build requests through here. `scenarios` is
/// captured by reference and must outlive the returned function.
aps::sim::RunRequestFn campaign_request_fn(
    const std::vector<aps::fi::Scenario>& scenarios,
    bool mitigation_enabled = false,
    const aps::monitor::MitigationConfig& mitigation = {}) {
  return [&scenarios, mitigation_enabled,
          mitigation](std::size_t i) {
    aps::sim::RunRequest req;
    req.patient_index = static_cast<int>(i / scenarios.size());
    const auto& scenario = scenarios[i % scenarios.size()];
    req.config.initial_bg = scenario.initial_bg;
    req.config.fault = scenario.fault;
    req.config.mitigation_enabled = mitigation_enabled;
    req.config.mitigation = mitigation;
    return req;
  };
}

}  // namespace

ExperimentContext prepare_experiment(const aps::sim::Stack& stack,
                                     const ExperimentConfig& config,
                                     aps::ThreadPool& pool) {
  ExperimentContext context;
  context.stack = stack;
  context.config = config;

  const auto grid = config.grid();
  context.scenarios = aps::fi::enumerate_scenarios(grid);
  const std::size_t scenario_count = context.scenarios.size();
  const std::size_t count = context.run_count();
  const auto cohort = static_cast<std::size_t>(stack.cohort_size);

  // Fault-free campaign: O(cohort) runs by construction, retained for the
  // guideline percentiles and the fault-free training ablation.
  context.fault_free =
      aps::sim::run_campaign(stack, aps::fi::fault_free_scenarios(grid),
                             aps::sim::null_monitor_factory(), {}, &pool);

  const auto profiles = stack_profiles(stack);
  aps::monitor::CawConfig context_config;
  context_config.target_bg = TrainingArtifacts{}.target_bg;
  const ThresholdLearningOptions threshold_options;

  context.baseline_hazard.assign(count, 0);
  context.baseline.by_patient.assign(cohort, {});

  // ---- One streaming pass over the baseline campaign ----------------------
  //
  // Per-shard accumulators; merged in shard order below, so every result
  // equals the sequential accumulation no matter the thread count.
  const auto streaming = campaign_streaming(scenario_count);
  const std::size_t shards = aps::sim::shard_count(count, streaming);
  const std::uint64_t tabular_seed =
      derive_seed(config.seed, config.ml_data.sample_seed);
  const std::uint64_t sequence_seed =
      derive_seed(config.seed, config.lstm_data.sample_seed + 1);
  struct Shard {
    BaselineStats stats;
    std::map<std::size_t, RuleDatasets> rules;
    std::unique_ptr<aps::ml::DatasetBuilder> tabular;
    std::unique_ptr<aps::ml::SequenceDatasetBuilder> sequences;
  };
  std::vector<Shard> shard_acc(shards);
  for (auto& shard : shard_acc) {
    shard.stats.by_patient.assign(cohort, {});
    if (config.train_ml) {
      shard.tabular = std::make_unique<aps::ml::DatasetBuilder>(
          aps::monitor::kMlFeatureCount, config.ml_data.classes,
          config.ml_data.max_samples, tabular_seed);
      shard.sequences = std::make_unique<aps::ml::SequenceDatasetBuilder>(
          config.lstm_data.classes, config.lstm_data.max_samples,
          sequence_seed);
    }
  }

  const auto request = campaign_request_fn(context.scenarios);
  const auto sink = [&](std::size_t shard, std::size_t i,
                        const aps::sim::SimResult& run) {
    Shard& acc = shard_acc[shard];
    const std::size_t patient_slot = i / scenario_count;
    acc.stats.add_run(patient_slot, run);
    context.baseline_hazard[i] = run.label.hazardous ? 1 : 0;
    if (run.label.hazardous) {
      const auto& profile = profiles[patient_slot];
      const std::vector<const aps::sim::SimResult*> one{&run};
      const auto extracted =
          extract_rule_datasets(one, context_config, profile.basal_rate,
                                profile.isf, threshold_options);
      auto& bucket = acc.rules[patient_slot];
      for (const auto& [param, values] : extracted) {
        auto& dest = bucket[param];
        dest.insert(dest.end(), values.begin(), values.end());
      }
    }
    if (config.train_ml) {
      accumulate_tabular_samples(run, profiles[patient_slot], i,
                                 config.ml_data, *acc.tabular);
      accumulate_sequence_samples(run, profiles[patient_slot], i,
                                  config.lstm_data, *acc.sequences);
    }
  };
  {
    const auto baseline_span = phase_span("experiment.baseline");
    aps::sim::for_each_run(stack, count, request,
                           aps::sim::null_monitor_factory(), sink, &pool,
                           streaming);
  }

  // Shard-ordered merge == sequential accumulation.
  context.rule_data.assign(cohort, {});
  aps::ml::DatasetBuilder tabular_builder(
      aps::monitor::kMlFeatureCount, config.ml_data.classes,
      config.ml_data.max_samples, tabular_seed);
  aps::ml::SequenceDatasetBuilder sequence_builder(
      config.lstm_data.classes, config.lstm_data.max_samples, sequence_seed);
  for (auto& shard : shard_acc) {
    context.baseline.merge(shard.stats);
    for (auto& [patient_slot, rules] : shard.rules) {
      auto& dest_patient = context.rule_data[patient_slot];
      for (auto& [param, values] : rules) {
        auto& dest = dest_patient[param];
        dest.insert(dest.end(), values.begin(), values.end());
      }
    }
    if (config.train_ml) {
      tabular_builder.merge(std::move(*shard.tabular));
      sequence_builder.merge(std::move(*shard.sequences));
    }
  }

  {
    const auto learn_span = phase_span("experiment.learn_artifacts");
    context.artifacts =
        learn_artifacts_from_data(stack, context.rule_data,
                                  context.fault_free, threshold_options,
                                  &pool);
  }

  if (config.train_ml) {
    context.tabular = tabular_builder.build();
    context.sequences = sequence_builder.build();
    train_ml_baselines(context, pool);
  }
  return context;
}

BaselineStats run_baseline_stats(const aps::sim::Stack& stack,
                                 const ExperimentConfig& config,
                                 aps::ThreadPool& pool) {
  const auto scenarios = aps::fi::enumerate_scenarios(config.grid());
  const std::size_t scenario_count = scenarios.size();
  const auto cohort = static_cast<std::size_t>(stack.cohort_size);
  const std::size_t count = cohort * scenario_count;
  const auto streaming = campaign_streaming(scenario_count);
  const std::size_t shards = aps::sim::shard_count(count, streaming);

  std::vector<BaselineStats> shard_acc(shards);
  for (auto& shard : shard_acc) shard.by_patient.assign(cohort, {});
  const auto request = campaign_request_fn(scenarios);
  const auto sink = [&](std::size_t shard, std::size_t i,
                        const aps::sim::SimResult& run) {
    shard_acc[shard].add_run(i / scenario_count, run);
  };
  aps::sim::for_each_run(stack, count, request,
                         aps::sim::null_monitor_factory(), sink, &pool,
                         streaming);

  BaselineStats total;
  total.by_patient.assign(cohort, {});
  for (const BaselineStats& shard : shard_acc) total.merge(shard);
  return total;
}

// ---- ML training ------------------------------------------------------------

int select_dt_depth(const aps::ml::Dataset& data,
                    const std::vector<int>& candidates, int k,
                    std::uint64_t seed, aps::ThreadPool* pool) {
  if (candidates.empty()) {
    throw std::invalid_argument("select_dt_depth: no candidates");
  }
  int best_depth = candidates.front();
  double best_score = -1.0;
  for (const int depth : candidates) {
    const auto scores = aps::learn::cross_validate(
        data.size(), k, seed,
        [&](std::size_t, const aps::learn::FoldSplit& split) {
          aps::ml::DecisionTreeConfig config;
          config.max_depth = depth;
          aps::ml::DecisionTree tree(config);
          tree.fit(data.subset(split.train_indices));
          std::size_t correct = 0;
          for (const std::size_t i : split.test_indices) {
            const std::span<const double> row(
                data.x.data() + i * data.x.cols(), data.x.cols());
            if (tree.predict(row) == data.y[i]) ++correct;
          }
          return split.test_indices.empty()
                     ? 0.0
                     : static_cast<double>(correct) /
                           static_cast<double>(split.test_indices.size());
        },
        pool);
    double mean = 0.0;
    for (const double s : scores) mean += s;
    mean /= static_cast<double>(scores.size());
    if (mean > best_score) {
      best_score = mean;
      best_depth = depth;
    }
  }
  return best_depth;
}

MlBaselineConfigs ml_baseline_configs(const ExperimentConfig& config) {
  MlBaselineConfigs models;
  models.dt.max_depth = config.full ? 12 : 8;
  models.mlp.hidden_units = config.full ? std::vector<std::size_t>{256, 128}
                                        : std::vector<std::size_t>{64, 32};
  models.mlp.max_epochs = config.full ? 40 : 20;
  models.mlp.seed = config.seed;
  models.lstm.hidden_units = config.full ? std::vector<std::size_t>{128, 64}
                                         : std::vector<std::size_t>{32, 16};
  models.lstm.max_epochs = config.full ? 20 : 8;
  models.lstm.seed = config.seed;
  return models;
}

void train_ml_baselines(ExperimentContext& context, aps::ThreadPool& pool) {
  const auto& config = context.config;
  if (context.tabular.size() == 0 || context.sequences.size() == 0) {
    throw std::runtime_error(
        "train_ml_baselines: context has no training data (prepare with "
        "train_ml=true)");
  }
  const auto train_span = phase_span("experiment.train_ml");
  MlBaselineConfigs models = ml_baseline_configs(config);

  // The DT fit is serial and short, so it runs here rather than as a
  // third task: it would add no throughput there, and its per-node
  // allocations stay in this thread's malloc arena instead of a worker's.
  {
    const auto dt_span = phase_span("experiment.train_dt");
    if (config.dt_depth_cv) {
      models.dt.max_depth = select_dt_depth(context.tabular, {6, 8, 10, 12},
                                            4, config.seed, &pool);
    }
    auto dt = std::make_shared<aps::ml::DecisionTree>(models.dt);
    dt->fit(context.tabular);
    context.dt = std::move(dt);
  }

  // Alone, each fit keeps only a few small chunks per minibatch in the
  // pool. As two tasks of one parallel_for they fill it: each task's
  // chunk parallel_for nests, and a nested call claims its own indices,
  // so this cannot deadlock at any pool size. Neither fit copies its
  // dataset, which keeps the workers' arenas small.
  auto mlp = std::make_shared<aps::ml::Mlp>(models.mlp);
  auto lstm = std::make_shared<aps::ml::Lstm>(models.lstm);
  pool.parallel_for(2, [&](std::size_t task) {
    if (task == 0) {
      const auto mlp_span = phase_span("experiment.train_mlp");
      mlp->fit(context.tabular, &pool);
    } else {
      const auto lstm_span = phase_span("experiment.train_lstm");
      lstm->fit(context.sequences, &pool);
    }
  });
  context.mlp = std::move(mlp);
  context.lstm = std::move(lstm);
}

// ---- Evaluation -------------------------------------------------------------

namespace {

/// Per-monitor, per-shard accumulator bundle.
struct MonitorAcc {
  aps::metrics::AccuracyReport accuracy;
  aps::metrics::TimelinessStats timeliness;
  aps::metrics::MitigationReport mitigation;
  std::vector<aps::metrics::AccuracyReport> by_patient_accuracy;
  std::vector<aps::metrics::TimelinessStats> by_patient_timeliness;
  std::vector<aps::metrics::AccuracyReport> by_tolerance;

  MonitorAcc(const EvalOptions& options, std::size_t cohort) {
    if (options.per_patient) {
      by_patient_accuracy.resize(cohort);
      by_patient_timeliness.resize(cohort);
    }
    by_tolerance.resize(options.extra_tolerances.size());
  }

  void merge(const MonitorAcc& other) {
    accuracy.merge(other.accuracy);
    timeliness.merge(other.timeliness);
    mitigation.merge(other.mitigation);
    for (std::size_t p = 0; p < by_patient_accuracy.size(); ++p) {
      by_patient_accuracy[p].merge(other.by_patient_accuracy[p]);
      by_patient_timeliness[p].merge(other.by_patient_timeliness[p]);
    }
    for (std::size_t t = 0; t < by_tolerance.size(); ++t) {
      by_tolerance[t].merge(other.by_tolerance[t]);
    }
  }
};

}  // namespace

std::vector<MonitorEval> evaluate_monitor_set(
    const ExperimentContext& context,
    const std::vector<NamedMonitor>& monitors, aps::ThreadPool& pool,
    const EvalOptions& options) {
  std::vector<MonitorEval> evals(monitors.size());
  for (std::size_t m = 0; m < monitors.size(); ++m) {
    evals[m].name = monitors[m].name;
  }
  if (monitors.empty()) return evals;
  const auto eval_span = phase_span("experiment.evaluate");

  const std::size_t scenario_count = context.scenarios.size();
  const std::size_t count = context.run_count();
  const auto cohort = static_cast<std::size_t>(context.stack.cohort_size);
  const auto streaming = campaign_streaming(scenario_count);
  const std::size_t shards = aps::sim::shard_count(count, streaming);
  const int tolerance = context.config.tolerance_steps;

  const auto request = campaign_request_fn(
      context.scenarios, options.mitigation_enabled, options.mitigation);

  const auto score_run = [&](MonitorAcc& acc, std::size_t index,
                             const std::vector<bool>& alarms,
                             const aps::sim::SimResult& run) {
    const int fault_step = aps::metrics::fault_step_of(run);
    acc.accuracy.add_run(alarms, run.label, fault_step, tolerance);
    acc.timeliness.add_run(alarms, run.label, fault_step);
    if (options.per_patient) {
      const std::size_t slot = index / scenario_count;
      acc.by_patient_accuracy[slot].add_run(alarms, run.label, fault_step,
                                            tolerance);
      acc.by_patient_timeliness[slot].add_run(alarms, run.label, fault_step);
    }
    for (std::size_t t = 0; t < acc.by_tolerance.size(); ++t) {
      acc.by_tolerance[t].add_run(alarms, run.label, fault_step,
                                  options.extra_tolerances[t]);
    }
  };

  const auto finalize = [&](std::size_t m, std::vector<MonitorAcc>& shard_acc) {
    MonitorAcc total(options, cohort);
    for (const MonitorAcc& shard : shard_acc) total.merge(shard);
    evals[m].accuracy = std::move(total.accuracy);
    evals[m].timeliness = std::move(total.timeliness);
    evals[m].mitigation = std::move(total.mitigation);
    evals[m].accuracy_by_patient = std::move(total.by_patient_accuracy);
    evals[m].timeliness_by_patient = std::move(total.by_patient_timeliness);
    evals[m].accuracy_by_tolerance = std::move(total.by_tolerance);
  };

  if (!options.mitigation_enabled) {
    // Fused pass: the simulation runs unmonitored once; every monitor of
    // the line-up observes passively and is scored from its own decision
    // stream.
    std::vector<aps::sim::MonitorFactory> observers;
    observers.reserve(monitors.size());
    for (const NamedMonitor& monitor : monitors) {
      observers.push_back(monitor.factory);
    }
    std::vector<std::vector<MonitorAcc>> shard_acc(
        shards, std::vector<MonitorAcc>(monitors.size(),
                                        MonitorAcc(options, cohort)));
    const auto sink =
        [&](std::size_t shard, std::size_t i, const aps::sim::SimResult& run,
            std::span<const std::vector<aps::monitor::Decision>> observed) {
          for (std::size_t m = 0; m < monitors.size(); ++m) {
            score_run(shard_acc[shard][m], i,
                      aps::metrics::alarms_of(observed[m]), run);
          }
        };
    aps::sim::for_each_run_observed(context.stack, count, request,
                                    aps::sim::null_monitor_factory(),
                                    observers, sink, &pool, streaming);
    std::vector<MonitorAcc> per_monitor;
    for (std::size_t m = 0; m < monitors.size(); ++m) {
      per_monitor.clear();
      for (std::size_t s = 0; s < shards; ++s) {
        per_monitor.push_back(std::move(shard_acc[s][m]));
      }
      finalize(m, per_monitor);
    }
    return evals;
  }

  // Per-monitor driving passes: with mitigation each monitor's alarms
  // change delivery. The matched unmitigated twin for the mitigation
  // report comes from the baseline hazard bits.
  if (context.baseline_hazard.size() != count) {
    throw std::runtime_error(
        "evaluate_monitor_set: context baseline is missing (prepare the "
        "experiment first)");
  }
  for (std::size_t m = 0; m < monitors.size(); ++m) {
    std::vector<MonitorAcc> shard_acc(shards, MonitorAcc(options, cohort));
    const auto sink = [&](std::size_t shard, std::size_t i,
                          const aps::sim::SimResult& run) {
      MonitorAcc& acc = shard_acc[shard];
      score_run(acc, i, aps::metrics::alarms_of(run), run);
      acc.mitigation.add_run(context.baseline_hazard[i] != 0, run);
    };
    aps::sim::for_each_run(context.stack, count, request,
                           monitors[m].factory, sink, &pool, streaming);
    finalize(m, shard_acc);
  }
  return evals;
}

std::vector<MonitorEval> evaluate_monitors(
    const ExperimentContext& context, const std::vector<std::string>& names,
    aps::ThreadPool& pool, const EvalOptions& options) {
  std::vector<NamedMonitor> monitors;
  monitors.reserve(names.size());
  for (const std::string& name : names) {
    monitors.push_back({name, monitor_factory_by_name(context, name)});
  }
  return evaluate_monitor_set(context, monitors, pool, options);
}

MonitorEval evaluate_monitor(const ExperimentContext& context,
                             const std::string& name,
                             const aps::sim::MonitorFactory& factory,
                             aps::ThreadPool& pool, bool mitigation_enabled) {
  EvalOptions options;
  options.mitigation_enabled = mitigation_enabled;
  auto evals =
      evaluate_monitor_set(context, {{name, factory}}, pool, options);
  return std::move(evals.front());
}

aps::sim::MonitorFactory monitor_factory_by_name(
    const ExperimentContext& context, const std::string& name) {
  if (name == "guideline") return guideline_factory(context.artifacts);
  if (name == "mpc") return mpc_factory();
  if (name == "cawot") return cawot_factory(context.stack);
  if (name == "cawt") return cawt_factory(context.artifacts);
  if (name == "cawt-population") {
    return cawt_population_factory(context.artifacts);
  }
  if (name == "dt") {
    if (context.dt == nullptr) throw std::runtime_error("DT not trained");
    return dt_factory(context.dt, context.config.ml_data.classes);
  }
  if (name == "mlp") {
    if (context.mlp == nullptr) throw std::runtime_error("MLP not trained");
    return mlp_factory(context.mlp, context.config.ml_data.classes);
  }
  if (name == "lstm") {
    if (context.lstm == nullptr) throw std::runtime_error("LSTM not trained");
    return lstm_factory(context.lstm, context.config.lstm_data.classes);
  }
  if (name == "none") return aps::sim::null_monitor_factory();
  throw std::invalid_argument("unknown monitor '" + name + "'");
}

ArtifactBundle bundle_from_context(const ExperimentContext& context) {
  ArtifactBundle bundle;
  bundle.artifacts = context.artifacts;
  bundle.dt = context.dt;
  bundle.mlp = context.mlp;
  bundle.lstm = context.lstm;
  bundle.ml_classes = context.config.ml_data.classes;
  bundle.lstm_classes = context.config.lstm_data.classes;
  // Training-time feature statistics feed the serving engine's drift
  // detectors; only available when the context retained the ML dataset.
  if (context.tabular.size() > 0) {
    bundle.training_stats =
        std::make_shared<const aps::obs::TrainingStats>(
            aps::obs::training_stats_from_samples(
                context.tabular.x.cols(),
                std::span<const double>(context.tabular.x.data(),
                                        context.tabular.x.size())));
  }
  return bundle;
}

}  // namespace aps::core
