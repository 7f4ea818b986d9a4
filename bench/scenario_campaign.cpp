// Scenario-engine campaign bench: throughput (runs/sec) and peak RSS as
// the scenario count grows, for the three execution modes —
//   grid        streamed exhaustive paper grid (spec_from_grid)
//   stochastic  sampled from the default stochastic spec
//   ce          cross-entropy tilted rare-event estimation
// The streamed modes keep peak memory flat as the count ramps 1k -> 100k
// (the delta-RSS column), which is the point of the streaming executor.
//
// An A/B stage runs the same stochastic campaign through the campaign
// oracle's scalar reference (tests/sim_oracle.h: one run_simulation per
// run, on the same pool and shard layout) and through the batched
// executor, and prints the speedup; both rows must report the same
// hazard/alarm numbers (sim_oracle_test checks them field by field).
//
// Build & run:  ./build/bench_scenario_campaign [--runs=100000]
//               [--budget-ms=0] [--threads=0] [--seed=2021] [--full]
//               [--materialized] [--csv]
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "scenario/cross_entropy.h"
#include "scenario/executor.h"
#include "sim/stack.h"
#include "sim_oracle.h"

namespace {

using namespace aps;

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB -> MB on Linux
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const auto max_runs =
      static_cast<std::size_t>(flags.get_int("runs", 100000));
  const double budget_ms = flags.get_double("budget-ms", 0.0);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2021));
  const bool full = flags.get_bool("full", false);
  const bool csv = flags.get_bool("csv", false);
  const bool materialized = flags.get_bool("materialized", false);
  ThreadPool pool(static_cast<std::size_t>(flags.get_int("threads", 0)));
  flags.reject_unknown();

  const auto stack = sim::glucosym_openaps_stack();
  const auto t0 = std::chrono::steady_clock::now();
  const auto out_of_budget = [&] {
    return budget_ms > 0.0 && seconds_since(t0) * 1000.0 >= budget_ms;
  };

  std::printf("== scenario campaign bench ==\n");
  std::printf("stack: %s (%d patients), %zu threads, seed %llu\n\n",
              stack.name.c_str(), stack.cohort_size, pool.thread_count(),
              static_cast<unsigned long long>(seed));

  TextTable table({"mode", "runs", "wall_s", "runs_per_s", "hazard",
                   "alarmed", "peak_rss_mb", "delta_rss_mb"});
  const auto add_row = [&](const std::string& mode,
                           const scenario::CampaignStats& stats,
                           double wall_s, double rss_before) {
    table.add_row({mode, std::to_string(stats.runs),
                   TextTable::num(wall_s, 2),
                   TextTable::num(static_cast<double>(stats.runs) /
                                      std::max(wall_s, 1e-9),
                                  0),
                   TextTable::pct(stats.hazard_rate()),
                   std::to_string(stats.alarmed_runs),
                   TextTable::num(peak_rss_mb(), 1),
                   TextTable::num(peak_rss_mb() - rss_before, 1)});
  };

  // --- Grid mode: the paper campaign, streamed. -----------------------------
  const auto grid =
      full ? fi::CampaignGrid::extended() : fi::CampaignGrid::quick();
  const auto grid_spec = scenario::spec_from_grid(grid, stack.cohort_size);
  {
    const double rss_before = peak_rss_mb();
    const auto stage = std::chrono::steady_clock::now();
    const auto stats = scenario::run_enumerated_campaign(
        stack, grid_spec, {}, sim::null_monitor_factory(), &pool);
    add_row(full ? "grid(extended)" : "grid(quick)", stats,
            seconds_since(stage), rss_before);
  }

  // Optional contrast: the materializing run_campaign path, whose memory
  // grows with the run count (O(N) retained traces).
  if (materialized && !out_of_budget()) {
    const double rss_before = peak_rss_mb();
    const auto stage = std::chrono::steady_clock::now();
    const auto campaign =
        sim::run_campaign(stack, fi::enumerate_scenarios(grid),
                          sim::null_monitor_factory(), {}, &pool);
    std::size_t hazards = 0;
    for (const auto* run : campaign.flat()) {
      if (run->label.hazardous) ++hazards;
    }
    table.add_row(
        {"materialized", std::to_string(campaign.total_runs()),
         TextTable::num(seconds_since(stage), 2), "-",
         TextTable::pct(static_cast<double>(hazards) /
                        static_cast<double>(campaign.total_runs())),
         "-", TextTable::num(peak_rss_mb(), 1),
         TextTable::num(peak_rss_mb() - rss_before, 1)});
  }

  // --- A/B: the same campaign through the reference and the executor. ------
  const auto spec = scenario::default_stochastic_spec(stack.cohort_size);
  double scalar_rps = 0.0;
  double batched_rps = 0.0;
  if (!out_of_budget()) {
    scenario::StochasticCampaignConfig config;
    config.runs = std::min<std::size_t>(max_runs, 5000);
    config.seed = seed;
    const auto run_row = [&](const std::string& label, double* rps,
                             const auto& campaign) {
      const double rss_before = peak_rss_mb();
      const auto stage = std::chrono::steady_clock::now();
      const scenario::CampaignStats stats = campaign();
      const double wall = seconds_since(stage);
      *rps = static_cast<double>(stats.runs) / std::max(wall, 1e-9);
      add_row(label, stats, wall, rss_before);
    };
    run_row("stochastic[scalar]", &scalar_rps, [&] {
      return sim_oracle::reference_campaign(
          stack, config.runs,
          [&](std::size_t i) {
            return scenario::sample_scenario(spec, i, config.seed);
          },
          config.options, sim::null_monitor_factory(),
          config.streaming.shard_size, pool);
    });
    run_row("stochastic[batched]", &batched_rps, [&] {
      return scenario::run_stochastic_campaign(
          stack, spec, config, sim::null_monitor_factory(), &pool);
    });
  }

  // --- Stochastic mode: ramp the count; delta-RSS should stay ~0. ----------
  for (std::size_t runs = 1000; runs <= max_runs; runs *= 10) {
    if (out_of_budget()) break;
    scenario::StochasticCampaignConfig config;
    config.runs = runs;
    config.seed = seed;
    const double rss_before = peak_rss_mb();
    const auto stage = std::chrono::steady_clock::now();
    const auto stats = scenario::run_stochastic_campaign(
        stack, spec, config, sim::null_monitor_factory(), &pool);
    add_row("stochastic", stats, seconds_since(stage), rss_before);
  }

  // --- Cross-entropy mode: tilted rare-event estimation. --------------------
  scenario::RareEventEstimate estimate;
  bool ran_ce = false;
  if (!out_of_budget()) {
    // Fault-driven rare events only: mild faults, in-range starts, no
    // unannounced meals (those alone make ~1/3 of runs hazardous).
    auto rare = spec;
    rare.fault_prob = 0.4;
    rare.duration_steps = scenario::IntDist::range(2, 30, 4);
    rare.magnitude_scale = scenario::ValueDist::range(0.1, 1.0, 4);
    rare.initial_bg = scenario::ValueDist::range(90.0, 180.0, 5);
    rare.meal_prob = 0.0;
    rare.cgm_noise_std = 0.0;
    scenario::CrossEntropyConfig ce;
    ce.seed = seed;
    ce.pilot_runs = full ? 2000 : 500;
    ce.final_runs = full ? 8000 : 2000;
    const double rss_before = peak_rss_mb();
    const auto stage = std::chrono::steady_clock::now();
    estimate = scenario::estimate_hazard_probability(
        stack, rare, sim::null_monitor_factory(), ce, &pool);
    add_row("cross-entropy", estimate.final_stats, seconds_since(stage),
            rss_before);
    ran_ce = true;
  }

  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  if (scalar_rps > 0.0 && batched_rps > 0.0) {
    std::printf("\nbatched backend speedup: %.2fx (%.0f vs %.0f runs/s)\n",
                batched_rps / scalar_rps, batched_rps, scalar_rps);
  }
  if (ran_ce) {
    std::printf(
        "\nrare-event estimate (no monitor): P(hazard) = %.5f +- %.5f\n"
        "  95%% CI [%.5f, %.5f], ESS %.0f, %zu total runs\n",
        estimate.probability, estimate.std_error, estimate.ci_low,
        estimate.ci_high, estimate.effective_sample_size,
        estimate.total_runs);
    for (const auto& level : estimate.levels) {
      std::printf("  tilt round: level %.3f, hazard fraction %.3f\n",
                  level.level, level.hazard_fraction);
    }
  }
  std::printf("\ntotal wall time %.2fs%s\n", seconds_since(t0),
              out_of_budget() ? " (budget reached, stages skipped)" : "");
  return 0;
}
