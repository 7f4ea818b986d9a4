// Meal disturbance (extension beyond the paper's no-meal protocol): checks
// that the learned monitor does not mistake ordinary post-meal glucose
// excursions for attacks, and still catches an attack launched during the
// meal absorption window.
//
// Build & run:  ./build/example_meal_disturbance
#include <cstdio>

#include "common/cli.h"
#include "core/monitor_factory.h"
#include "fi/campaign.h"
#include "sim/runner.h"
#include "sim/stack.h"

namespace {

using namespace aps;

/// Run one simulation with a 45 g dinner at t = 2 h, optional attack.
sim::SimResult run_meal(const patient::PatientModel& patient,
                        const controller::Controller& controller,
                        monitor::Monitor& monitor, bool with_attack,
                        bool mitigate) {
  sim::SimConfig config;
  config.initial_bg = 120.0;
  config.meals.push_back({/*step=*/24, /*carbs_g=*/45.0});  // t = 2 h
  if (with_attack) {
    config.fault.type = fi::FaultType::kMax;
    config.fault.target = fi::FaultTarget::kCommandRate;
    config.fault.start_step = 36;  // during meal absorption
    config.fault.duration_steps = 30;
  }
  config.mitigation_enabled = mitigate;
  return sim::run_simulation(patient, controller, monitor, config);
}

}  // namespace

int main(int argc, char** argv) {
  aps::CliFlags(argc, argv).reject_unknown();  // takes no flags
  const auto stack = sim::glucosym_openaps_stack();
  const int patient_id = 5;
  const auto patient = stack.make_patient(patient_id);
  const auto controller = stack.make_controller(*patient);

  // Train CAWT on the standard (no-meal) adversarial campaign.
  ThreadPool pool;
  const auto training = sim::run_campaign(
      stack, fi::enumerate_scenarios(fi::CampaignGrid::quick()),
      sim::null_monitor_factory(), {}, &pool, {patient_id});
  const auto profiles = core::stack_profiles(stack);
  const auto& profile = profiles[static_cast<std::size_t>(patient_id)];
  monitor::CawConfig caw_config;
  std::vector<const sim::SimResult*> runs;
  for (const auto& r : training.by_patient[0]) runs.push_back(&r);
  caw_config.thresholds =
      core::learn_thresholds(
          core::extract_rule_datasets(runs, caw_config, profile.basal_rate,
                                      profile.isf),
          monitor::default_thresholds(profile.steady_state_iob))
          .values;
  monitor::CawMonitor cawt(caw_config);

  const auto summarize = [](const char* tag, const sim::SimResult& r) {
    double lo = 1e9, hi = -1e9;
    int alarms = 0;
    for (const auto& s : r.steps) {
      lo = std::min(lo, s.true_bg);
      hi = std::max(hi, s.true_bg);
      alarms += s.alarm ? 1 : 0;
    }
    std::printf("%-28s BG [%3.0f, %3.0f]  hazard=%-4s  alarms=%d\n", tag, lo,
                hi, r.label.hazardous ? "YES" : "no", alarms);
  };

  std::printf("patient %s, 45 g meal at t = 2 h\n\n",
              patient->name().c_str());
  summarize("meal only, no monitor:",
            run_meal(*patient, *controller, cawt, false, false));
  monitor::CawMonitor fresh1(caw_config);
  summarize("meal only, CAWT watching:",
            run_meal(*patient, *controller, fresh1, false, false));
  monitor::NullMonitor null_monitor;
  summarize("meal + overdose attack:",
            run_meal(*patient, *controller, null_monitor, true, false));
  monitor::CawMonitor fresh2(caw_config);
  summarize("meal + attack, CAWT+mitig.:",
            run_meal(*patient, *controller, fresh2, true, true));
  std::printf(
      "\nthe monitor should stay (mostly) quiet through the benign meal\n"
      "excursion and still catch and blunt the overdose attack.\n");
  return 0;
}
