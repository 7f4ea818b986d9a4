// Table VI — CAWT vs the ML baseline monitors (DT, MLP, LSTM) on both
// stacks, at the sample level (tolerance window) and the simulation level
// (two regions).
//
// The whole line-up is scored from ONE fused campaign pass per stack:
// without mitigation the monitors are passive observers, so a single
// simulation feeds all of them (sim observer banks + MonitorBatch ML
// inference), replacing the former one-campaign-per-monitor protocol.
// That the fused reports equal dedicated per-monitor passes field for
// field is checked by the campaign oracle (tests/sim_oracle_test.cpp).
//
// Paper shape: CAWT best F1 at both levels; DT keeps FNR low but pays a
// high FPR (0.08-0.20 sample level; 0.56-1.00 simulation level).
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "sim/stack.h"

int main(int argc, char** argv) {
  using namespace aps;
  const CliFlags flags(argc, argv);
  const auto config = bench::config_from_flags(flags, /*needs_ml=*/true);
  flags.reject_unknown();
  bench::print_header("Table VI: CAWT vs ML monitors", config);
  bench::BenchRecorder recorder("table6_ml_monitors");

  ThreadPool pool;
  TextTable table({"simulator", "monitor", "FPR", "FNR", "ACC", "F1",
                   "simFPR", "simFNR", "simACC", "simF1"});
  // --ml=0 trains no model: the line-up shrinks to the non-ML monitor.
  const std::vector<std::string> lineup =
      config.train_ml
          ? std::vector<std::string>{"dt", "mlp", "lstm", "cawt"}
          : std::vector<std::string>{"cawt"};

  for (const auto& stack :
       {sim::glucosym_openaps_stack(), sim::padova_basalbolus_stack()}) {
    core::ExperimentContext context;
    recorder.time_stage("prepare " + stack.name, 0, [&] {
      context = core::prepare_experiment(stack, config, pool);
    });

    std::vector<core::MonitorEval> evals;
    recorder.time_stage("evaluate[fused] " + stack.name, context.run_count(),
                        [&] {
                          evals = core::evaluate_monitors(context, lineup,
                                                          pool);
                        });

    for (const auto& eval : evals) {
      const auto& s = eval.accuracy.sample;
      const auto& sim_cm = eval.accuracy.simulation;
      table.add_row({stack.name, eval.name, TextTable::num(s.fpr(), 3),
                     TextTable::num(s.fnr(), 3),
                     TextTable::num(s.accuracy(), 3),
                     TextTable::num(s.f1(), 3),
                     TextTable::num(sim_cm.fpr(), 3),
                     TextTable::num(sim_cm.fnr(), 3),
                     TextTable::num(sim_cm.accuracy(), 3),
                     TextTable::num(sim_cm.f1(), 3)});
    }
  }
  table.print(std::cout);
  std::printf(
      "\nexpected shape (paper Table VI): CAWT leads F1 at both levels;\n"
      "DT trades a low FNR for the highest FPR of the line-up.\n");
  return 0;
}
