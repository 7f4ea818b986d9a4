// Table VIII — patient-specific vs population-based CAWT thresholds.
//
// Both threshold variants are passive observers, so the whole table comes
// from ONE fused campaign pass with per-patient accumulators (formerly one
// campaign per patient per variant). Paper shape: the patient-specific
// monitor keeps FNR near zero and gains F1/accuracy/EDR over the
// population monitor on every examined patient.
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "sim/stack.h"

int main(int argc, char** argv) {
  using namespace aps;
  const CliFlags flags(argc, argv);
  const auto config = bench::config_from_flags(flags, /*needs_ml=*/false);
  flags.reject_unknown();
  bench::print_header("Table VIII: patient-specific vs population thresholds",
                      config);
  bench::BenchRecorder recorder("table8_patient_specific");

  ThreadPool pool;
  const auto stack = sim::glucosym_openaps_stack();
  core::ExperimentContext context;
  recorder.time_stage("prepare", 0, [&] {
    context = core::prepare_experiment(stack, config, pool);
  });

  core::EvalOptions options;
  options.per_patient = true;
  std::vector<core::MonitorEval> evals;
  recorder.time_stage("evaluate[fused per-patient]", context.run_count(),
                      [&] {
                        evals = core::evaluate_monitor_set(
                            context,
                            {{"patient-specific",
                              core::cawt_factory(context.artifacts)},
                             {"population",
                              core::cawt_population_factory(
                                  context.artifacts)}},
                            pool, options);
                      });

  TextTable table({"patient", "thresholds", "FPR", "FNR", "ACC", "F1",
                   "EDR"});
  // The paper reports three representative patients; we report every
  // patient of the cohort for both threshold variants.
  for (int p = 0; p < stack.cohort_size; ++p) {
    const auto patient = stack.make_patient(p);
    for (const auto& eval : evals) {
      const auto& accuracy =
          eval.accuracy_by_patient[static_cast<std::size_t>(p)];
      const auto& timeliness =
          eval.timeliness_by_patient[static_cast<std::size_t>(p)];
      table.add_row(
          {patient->name(), eval.name,
           TextTable::num(accuracy.sample.fpr(), 3),
           TextTable::num(accuracy.sample.fnr(), 3),
           TextTable::num(accuracy.sample.accuracy(), 3),
           TextTable::num(accuracy.sample.f1(), 3),
           TextTable::pct(timeliness.early_detection_rate())});
    }
  }
  table.print(std::cout);
  std::printf(
      "\nexpected shape (paper Table VIII): patient-specific thresholds\n"
      "keep FNR low and win on F1 and early-detection rate.\n");
  return 0;
}
