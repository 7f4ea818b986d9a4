// Diagnostic probe: prints cohort profiles, fault-free convergence, and a
// quick fault-injection sweep so the simulator's behaviour can be sanity-
// checked at a glance (development aid; not one of the paper's tables).
#include <cstdio>
#include <iostream>

#include "common/cli.h"
#include "common/table.h"
#include "fi/campaign.h"
#include "metrics/evaluation.h"
#include "sim/runner.h"
#include "sim/stack.h"

namespace {

void probe_stack(const aps::sim::Stack& stack) {
  std::printf("=== %s ===\n", stack.name.c_str());

  // Profiles + fault-free convergence from BG 180.
  aps::TextTable profile_table(
      {"patient", "basal U/h", "BG@0", "BG@6h", "BG@12h", "hazard-free"});
  for (int p = 0; p < stack.cohort_size; ++p) {
    const auto patient = stack.make_patient(p);
    const auto controller = stack.make_controller(*patient);
    aps::monitor::NullMonitor monitor;
    aps::sim::SimConfig config;
    config.initial_bg = 180.0;
    const auto result =
        aps::sim::run_simulation(*patient, *controller, monitor, config);
    profile_table.add_row(
        {patient->name(), aps::TextTable::num(patient->basal_rate_u_per_h()),
         aps::TextTable::num(result.steps.front().true_bg, 0),
         aps::TextTable::num(result.steps[72].true_bg, 0),
         aps::TextTable::num(result.steps.back().true_bg, 0),
         result.label.hazardous ? "NO" : "yes"});
  }
  profile_table.print(std::cout);

  // Quick FI sweep without a monitor.
  const auto grid = aps::fi::CampaignGrid::quick();
  const auto scenarios = aps::fi::enumerate_scenarios(grid);
  aps::ThreadPool pool;
  const auto campaign =
      aps::sim::run_campaign(stack, scenarios,
                             aps::sim::null_monitor_factory(), {}, &pool);
  const auto res = aps::metrics::resilience(campaign);
  std::printf(
      "quick campaign: %zu runs, hazard coverage %.1f%%, mean TTH %.0f min, "
      "negative TTH %.1f%%\n",
      res.total_runs, res.hazard_coverage() * 100.0, res.mean_tth_min(),
      res.negative_tth_fraction() * 100.0);

  std::printf("per-patient coverage:");
  for (const auto& runs : campaign.by_patient) {
    std::size_t hazards = 0;
    for (const auto& r : runs) hazards += r.label.hazardous ? 1u : 0u;
    std::printf(" %.0f%%", 100.0 * static_cast<double>(hazards) /
                               static_cast<double>(runs.size()));
  }
  std::printf("\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  aps::CliFlags(argc, argv).reject_unknown();  // takes no flags
  probe_stack(aps::sim::glucosym_openaps_stack());
  probe_stack(aps::sim::padova_basalbolus_stack());
  probe_stack(aps::sim::glucosym_pid_stack());
  return 0;
}
