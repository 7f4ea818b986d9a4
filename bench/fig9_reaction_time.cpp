// Fig. 9 — average reaction time (minutes before hazard onset) and early
// detection rate for every monitor on the Glucosym stack, scored from one
// fused campaign pass.
//
// Paper shape: CAWT detects ~2 h ahead with the smallest spread; Guideline
// and MPC react late (~tens of minutes) with a large spread; ML monitors
// sit in between / slightly ahead but less stable.
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "sim/stack.h"

int main(int argc, char** argv) {
  using namespace aps;
  const CliFlags flags(argc, argv);
  const auto config = bench::config_from_flags(flags, /*needs_ml=*/true);
  flags.reject_unknown();
  bench::print_header("Fig. 9: monitor reaction time", config);
  bench::BenchRecorder recorder("fig9_reaction_time");

  ThreadPool pool;
  const auto stack = sim::glucosym_openaps_stack();
  core::ExperimentContext context;
  recorder.time_stage("prepare", 0, [&] {
    context = core::prepare_experiment(stack, config, pool);
  });

  TextTable table({"monitor", "mean reaction (min)", "std (min)",
                   "early detection rate", "alarmed hazards"});
  const std::vector<std::string> monitors =
      config.train_ml
          ? std::vector<std::string>{"guideline", "mpc", "cawot", "dt",
                                     "mlp", "lstm", "cawt"}
          : std::vector<std::string>{"guideline", "mpc", "cawot", "cawt"};
  std::vector<core::MonitorEval> evals;
  recorder.time_stage("evaluate[fused]", context.run_count(), [&] {
    evals = core::evaluate_monitors(context, monitors, pool);
  });
  for (const auto& eval : evals) {
    const auto& t = eval.timeliness;
    table.add_row({eval.name, TextTable::num(t.mean_reaction_min(), 1),
                   TextTable::num(t.stddev_reaction_min(), 1),
                   TextTable::pct(t.early_detection_rate()),
                   std::to_string(t.reaction_min.size()) + "/" +
                       std::to_string(t.hazardous_runs)});
  }
  table.print(std::cout);
  std::printf(
      "\nexpected shape (paper Fig. 9): CAWT ~2 h ahead with the lowest\n"
      "spread; Guideline/MPC far shorter and noisier.\n");
  return 0;
}
