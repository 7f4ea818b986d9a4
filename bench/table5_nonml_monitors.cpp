// Table V — CAWT vs the non-ML baseline monitors (Guideline, MPC, CAWOT)
// on both simulation stacks; sample-level accuracy with tolerance window.
// The whole line-up is scored from one fused campaign pass per stack.
//
// Paper shape: CAWT best F1 and lowest FPR on both stacks; CAWOT between
// the generic monitors and CAWT on Glucosym; the Guideline monitor
// collapses (FPR ~ 1) on the Padova stack.
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "sim/stack.h"

int main(int argc, char** argv) {
  using namespace aps;
  const CliFlags flags(argc, argv);
  const auto config = bench::config_from_flags(flags, /*needs_ml=*/false);
  flags.reject_unknown();
  bench::print_header("Table V: CAWT vs non-ML monitors", config);
  bench::BenchRecorder recorder("table5_nonml_monitors");

  ThreadPool pool;
  TextTable table({"simulator", "monitor", "runs", "hazard%", "FPR", "FNR",
                   "ACC", "F1"});
  const std::vector<std::string> lineup = {"guideline", "mpc", "cawot",
                                           "cawt"};

  for (const auto& stack :
       {sim::glucosym_openaps_stack(), sim::padova_basalbolus_stack()}) {
    core::ExperimentContext context;
    recorder.time_stage("prepare " + stack.name, 0, [&] {
      context = core::prepare_experiment(stack, config, pool);
    });
    const auto hazard_fraction =
        context.baseline.resilience.hazard_coverage();

    std::vector<core::MonitorEval> evals;
    recorder.time_stage("evaluate[fused] " + stack.name, context.run_count(),
                        [&] {
                          evals = core::evaluate_monitors(context, lineup,
                                                          pool);
                        });
    for (const auto& eval : evals) {
      bench::add_accuracy_row(table, stack.name, eval, context.run_count(),
                              hazard_fraction);
    }
  }
  table.print(std::cout);
  std::printf(
      "\nexpected shape (paper Table V): CAWT holds the best F1/ACC and\n"
      "lowest FPR on both stacks; CAWOT beats Guideline/MPC on Glucosym;\n"
      "Guideline collapses on the Padova stack (FPR ~ 0.99).\n");
  return 0;
}
