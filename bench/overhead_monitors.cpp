// §V-E6 — per-decision runtime overhead of every monitor, measured with
// google-benchmark over a realistic stream of observations.
//
// Paper shape: the synthesized CAWT rules are the cheapest check by a wide
// margin (hundreds of microseconds on the authors' setup, dominated there
// by process plumbing; here we measure the pure decision kernel), the MPC
// model roll-out is the most expensive non-neural monitor, and the neural
// monitors pay for their matrix products.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/experiment.h"
#include "sim/stack.h"

namespace {

using namespace aps;

/// Build a stream of observations from a short faulty run.
std::vector<monitor::Observation> observation_stream() {
  const auto stack = sim::glucosym_openaps_stack();
  const auto patient = stack.make_patient(3);
  const auto controller = stack.make_controller(*patient);
  monitor::NullMonitor null_monitor;
  sim::SimConfig config;
  config.initial_bg = 150.0;
  config.fault.type = fi::FaultType::kMax;
  config.fault.target = fi::FaultTarget::kCommandRate;
  config.fault.start_step = 30;
  config.fault.duration_steps = 40;
  const auto run =
      sim::run_simulation(*patient, *controller, null_monitor, config);

  std::vector<monitor::Observation> stream;
  const auto profiles = core::stack_profiles(stack);
  for (std::size_t k = 0; k < run.steps.size(); ++k) {
    stream.push_back(sim::observation_from_record(
        run, k, profiles[3].basal_rate, profiles[3].isf));
  }
  return stream;
}

struct BenchContext {
  std::vector<monitor::Observation> stream = observation_stream();
  core::ExperimentContext experiment;

  BenchContext() {
    core::ExperimentConfig config;
    config.train_ml = true;
    // Smallest grid that still trains the ML models.
    ThreadPool pool;
    experiment =
        core::prepare_experiment(sim::glucosym_openaps_stack(), config, pool);
  }
};

BenchContext& context() {
  static BenchContext ctx;
  return ctx;
}

void run_monitor_bench(benchmark::State& state, const std::string& name) {
  auto& ctx = context();
  const auto factory = core::monitor_factory_by_name(ctx.experiment, name);
  const auto monitor = factory(3);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& obs = ctx.stream[i];
    i = (i + 1) % ctx.stream.size();
    benchmark::DoNotOptimize(monitor->observe(obs));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void BM_Cawt(benchmark::State& s) { run_monitor_bench(s, "cawt"); }
void BM_Cawot(benchmark::State& s) { run_monitor_bench(s, "cawot"); }
void BM_Guideline(benchmark::State& s) { run_monitor_bench(s, "guideline"); }
void BM_Mpc(benchmark::State& s) { run_monitor_bench(s, "mpc"); }
void BM_Dt(benchmark::State& s) { run_monitor_bench(s, "dt"); }
void BM_Mlp(benchmark::State& s) { run_monitor_bench(s, "mlp"); }
void BM_Lstm(benchmark::State& s) { run_monitor_bench(s, "lstm"); }

BENCHMARK(BM_Cawt);
BENCHMARK(BM_Cawot);
BENCHMARK(BM_Guideline);
BENCHMARK(BM_Mpc);
BENCHMARK(BM_Dt);
BENCHMARK(BM_Mlp);
BENCHMARK(BM_Lstm);

}  // namespace

BENCHMARK_MAIN();
