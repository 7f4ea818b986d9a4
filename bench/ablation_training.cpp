// Ablations of the paper's design choices (§VI and DESIGN.md §5):
//   1. adversarial (faulty) vs fault-free training data for thresholds,
//   2. TMEE vs TeLEx vs MSE learning loss,
//   3. fixed-max vs context-scaled mitigation policy,
//   4. tolerance-window sweep for the sample-level metrics.
//
// All threshold re-learning works from the rule-violation datasets the
// streaming baseline pass extracted (context.rule_data) — no campaign is
// re-run for training data — and every passive line-up is scored from one
// fused campaign pass; the tolerance sweep rides a single pass with one
// accumulator per window.
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "sim/stack.h"

namespace {

using namespace aps;

sim::MonitorFactory cawt_from(const core::TrainingArtifacts& artifacts,
                              const std::string& name) {
  auto thresholds =
      std::make_shared<const std::vector<std::map<std::string, double>>>(
          artifacts.patient_thresholds);
  return [thresholds, name](int patient_index) {
    monitor::CawConfig config;
    config.thresholds =
        (*thresholds)[static_cast<std::size_t>(patient_index)];
    config.name = name;
    return std::make_unique<monitor::CawMonitor>(config);
  };
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const auto config = bench::config_from_flags(flags, /*needs_ml=*/false);
  flags.reject_unknown();
  bench::print_header("Ablations: training data, loss, mitigation, window",
                      config);
  bench::BenchRecorder recorder("ablation_training");

  ThreadPool pool;
  const auto stack = sim::glucosym_openaps_stack();
  core::ExperimentContext context;
  recorder.time_stage("prepare", 0, [&] {
    context = core::prepare_experiment(stack, config, pool);
  });

  // --- 1. adversarial vs fault-free training data (paper §VI-3).
  std::printf("(1) training-data ablation\n");
  TextTable data_table({"training data", "FPR", "FNR", "ACC", "F1", "EDR"});
  {
    const core::ThresholdLearningOptions options;
    const auto fault_free_artifacts = core::learn_artifacts(
        context.stack, context.fault_free, context.fault_free, options);
    std::vector<core::MonitorEval> evals;
    recorder.time_stage("evaluate[data ablation]", context.run_count(), [&] {
      evals = core::evaluate_monitor_set(
          context,
          {{"faulty (adversarial)",
            cawt_from(context.artifacts, "faulty (adversarial)")},
           {"fault-free only",
            cawt_from(fault_free_artifacts, "fault-free only")}},
          pool);
    });
    for (const auto& eval : evals) {
      data_table.add_row({eval.name,
                          TextTable::num(eval.accuracy.sample.fpr(), 3),
                          TextTable::num(eval.accuracy.sample.fnr(), 3),
                          TextTable::num(eval.accuracy.sample.accuracy(), 3),
                          TextTable::num(eval.accuracy.sample.f1(), 3),
                          TextTable::pct(
                              eval.timeliness.early_detection_rate())});
    }
  }
  data_table.print(std::cout);

  // --- 2. learning-loss ablation (TMEE vs TeLEx vs MSE).
  //
  // "Coverage" is the safety property the loss must deliver: the fraction
  // of observed hazardous UCA samples on which the learned rule fires
  // (robustness margin >= 0). MSE/MAE park thresholds inside the data and
  // silently give up on about half of them (Fig. 3's argument); TeLEx
  // covers everything but with slack thresholds that raise the FPR.
  std::printf("\n(2) learning-loss ablation\n");
  TextTable loss_table({"loss", "coverage", "FPR", "FNR", "ACC", "F1"});
  {
    std::vector<core::NamedMonitor> variants;
    std::vector<double> coverages;
    for (const auto loss : {learn::LossKind::kTmee, learn::LossKind::kTelex,
                            learn::LossKind::kMse}) {
      core::ThresholdLearningOptions options;
      options.loss = loss;
      // Constraint off: isolate the loss shape itself (Fig. 3's argument);
      // the production pipeline keeps Eq. 3's hard constraint on.
      options.enforce_coverage = false;
      const std::string label = learn::to_string(loss);

      // Violation coverage over the streamed per-patient rule datasets.
      std::size_t covered = 0;
      std::size_t total = 0;
      for (std::size_t p = 0; p < context.rule_data.size(); ++p) {
        const auto& profile = context.artifacts.profiles[p];
        const auto& datasets = context.rule_data[p];
        const auto defaults =
            monitor::default_thresholds(profile.steady_state_iob);
        const auto learned =
            core::learn_thresholds(datasets, defaults, options);
        for (const auto& rule : monitor::caw_rules()) {
          const auto it = datasets.find(rule.param);
          if (it == datasets.end()) continue;
          const double beta = learned.values.at(rule.param);
          for (const double mu : it->second) {
            ++total;
            const double r = rule.upper_bound ? beta - mu : mu - beta;
            if (r >= 0.0) ++covered;
          }
        }
      }
      coverages.push_back(
          total > 0
              ? static_cast<double>(covered) / static_cast<double>(total)
              : 0.0);

      const auto artifacts = core::learn_artifacts_from_data(
          context.stack, context.rule_data, context.fault_free, options,
          &pool);
      variants.push_back({label, cawt_from(artifacts, label)});
    }
    std::vector<core::MonitorEval> evals;
    recorder.time_stage("evaluate[loss ablation]", context.run_count(), [&] {
      evals = core::evaluate_monitor_set(context, variants, pool);
    });
    for (std::size_t v = 0; v < evals.size(); ++v) {
      const auto& eval = evals[v];
      loss_table.add_row({eval.name, TextTable::pct(coverages[v]),
                          TextTable::num(eval.accuracy.sample.fpr(), 3),
                          TextTable::num(eval.accuracy.sample.fnr(), 3),
                          TextTable::num(eval.accuracy.sample.accuracy(), 3),
                          TextTable::num(eval.accuracy.sample.f1(), 3)});
    }
  }
  loss_table.print(std::cout);
  std::printf(
      "note: MSE's F1 can look competitive downstream, but its thresholds\n"
      "violate the observed hazardous samples (coverage < 100%%) — the\n"
      "learned formula is falsified by the training data itself.\n");

  // --- 3. mitigation-policy ablation.
  std::printf("\n(3) mitigation-policy ablation (CAWT)\n");
  TextTable mit_table({"policy", "recovery", "new hazards", "avg risk"});
  for (const auto policy : {monitor::MitigationPolicy::kFixedMax,
                            monitor::MitigationPolicy::kContextScaled}) {
    core::EvalOptions options;
    options.mitigation_enabled = true;
    options.mitigation.policy = policy;
    const char* label = policy == monitor::MitigationPolicy::kFixedMax
                            ? "fixed-max"
                            : "context-scaled";
    std::vector<core::MonitorEval> evals;
    recorder.time_stage(std::string("evaluate[mitigation ") + label + "]",
                        context.run_count(), [&] {
                          evals = core::evaluate_monitor_set(
                              context,
                              {{"cawt",
                                core::cawt_factory(context.artifacts)}},
                              pool, options);
                        });
    const auto& report = evals.front().mitigation;
    mit_table.add_row({label, TextTable::pct(report.recovery_rate()),
                       std::to_string(report.new_hazards),
                       TextTable::num(report.average_risk(), 3)});
  }
  mit_table.print(std::cout);

  // --- 4. tolerance-window sweep: one pass, one accumulator per window.
  std::printf("\n(4) tolerance-window sweep (CAWT sample-level metrics)\n");
  TextTable window_table({"delta (steps)", "FPR", "FNR", "ACC", "F1"});
  {
    core::EvalOptions options;
    options.extra_tolerances = {3, 6, 12, 24, 36};
    std::vector<core::MonitorEval> evals;
    recorder.time_stage("evaluate[tolerance sweep]", context.run_count(),
                        [&] {
                          evals = core::evaluate_monitor_set(
                              context,
                              {{"cawt",
                                core::cawt_factory(context.artifacts)}},
                              pool, options);
                        });
    const auto& eval = evals.front();
    for (std::size_t t = 0; t < options.extra_tolerances.size(); ++t) {
      const auto& accuracy = eval.accuracy_by_tolerance[t];
      window_table.add_row(
          {std::to_string(options.extra_tolerances[t]),
           TextTable::num(accuracy.sample.fpr(), 3),
           TextTable::num(accuracy.sample.fnr(), 3),
           TextTable::num(accuracy.sample.accuracy(), 3),
           TextTable::num(accuracy.sample.f1(), 3)});
    }
  }
  window_table.print(std::cout);
  return 0;
}
