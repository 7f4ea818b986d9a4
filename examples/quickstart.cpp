// Quickstart: wrap an OpenAPS-style controller with a learned context-aware
// safety monitor and watch it veto an insulin-overdose attack.
//
//   1. pick a virtual patient and its controller,
//   2. run a short fault-injection campaign to collect hazardous traces,
//   3. learn the patient-specific STL thresholds (CAWT),
//   4. replay an attack with and without the monitor + mitigation.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "common/cli.h"
#include "core/monitor_factory.h"
#include "fi/campaign.h"
#include "monitor/caw.h"
#include "sim/runner.h"
#include "sim/stack.h"

int main(int argc, char** argv) {
  using namespace aps;
  CliFlags(argc, argv).reject_unknown();  // takes no flags

  // --- 1. The closed loop: Glucosym-style patient + OpenAPS controller.
  const sim::Stack stack = sim::glucosym_openaps_stack();
  const int patient_id = 4;
  const auto patient = stack.make_patient(patient_id);
  const auto controller = stack.make_controller(*patient);
  std::printf("patient  : %s (basal %.2f U/h)\n", patient->name().c_str(),
              patient->basal_rate_u_per_h());

  // --- 2. Adversarial training data: inject faults, no monitor.
  const auto grid = fi::CampaignGrid::quick();
  ThreadPool pool;
  const auto training = sim::run_campaign(
      stack, fi::enumerate_scenarios(grid), sim::null_monitor_factory(), {},
      &pool, {patient_id});
  const auto fault_free = sim::run_campaign(
      stack, fi::fault_free_scenarios(grid), sim::null_monitor_factory(), {},
      &pool, {patient_id});

  // --- 3. Learn the patient-specific thresholds for the Table I rules.
  const auto profiles = core::stack_profiles(stack);
  const auto& profile = profiles[static_cast<std::size_t>(patient_id)];
  monitor::CawConfig caw_config;
  std::vector<const sim::SimResult*> runs;
  for (const auto& r : training.by_patient[0]) runs.push_back(&r);
  const auto datasets = core::extract_rule_datasets(
      runs, caw_config, profile.basal_rate, profile.isf);
  const auto learned = core::learn_thresholds(
      datasets, monitor::default_thresholds(profile.steady_state_iob));

  std::printf("learned  :");
  for (const auto& [param, value] : learned.values) {
    std::printf(" %s=%.2f", param.c_str(), value);
  }
  std::printf("\n");

  // --- 4. Replay an insulin-overdose attack (command forced to max for
  //        2.5 h) with and without the monitor.
  sim::SimConfig attack;
  attack.initial_bg = 120.0;
  attack.fault.type = fi::FaultType::kMax;
  attack.fault.target = fi::FaultTarget::kCommandRate;
  attack.fault.start_step = 30;
  attack.fault.duration_steps = 30;

  monitor::NullMonitor unprotected;
  const auto bare =
      sim::run_simulation(*patient, *controller, unprotected, attack);

  caw_config.thresholds = learned.values;
  caw_config.name = "cawt";
  monitor::CawMonitor cawt(caw_config);
  attack.mitigation_enabled = true;
  const auto guarded =
      sim::run_simulation(*patient, *controller, cawt, attack);

  const auto show = [](const char* tag, const sim::SimResult& r) {
    double min_bg = 1e9;
    for (const auto& s : r.steps) min_bg = std::min(min_bg, s.true_bg);
    std::printf("%-10s min BG %.0f mg/dL, hazard=%s, first alarm step %d\n",
                tag, min_bg, r.label.hazardous ? "YES" : "no",
                r.first_alarm_step());
  };
  show("attack:", bare);
  show("guarded:", guarded);
  return 0;
}
