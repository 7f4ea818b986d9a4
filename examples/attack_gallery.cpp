// Attack gallery: walks each fault/attack class of Table II through the
// closed loop on one patient and reports what the unprotected controller
// does versus the CAWT-guarded system — a compact tour of the threat model
// (availability, DoS, integrity, memory faults).
//
// Build & run:  ./build/examples/attack_gallery [--patient=N]
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "common/cli.h"
#include "common/table.h"
#include "core/monitor_factory.h"
#include "fi/campaign.h"
#include "sim/runner.h"
#include "sim/stack.h"

int main(int argc, char** argv) {
  using namespace aps;
  const CliFlags flags(argc, argv);
  const int patient_id = flags.get_int("patient", 7);
  flags.reject_unknown();

  const sim::Stack stack = sim::glucosym_openaps_stack();
  const auto patient = stack.make_patient(patient_id);
  const auto controller = stack.make_controller(*patient);
  std::printf("patient %s, basal %.2f U/h\n\n", patient->name().c_str(),
              patient->basal_rate_u_per_h());

  // Learn patient-specific thresholds from a quick adversarial campaign.
  ThreadPool pool;
  const auto grid = fi::CampaignGrid::quick();
  const auto training = sim::run_campaign(
      stack, fi::enumerate_scenarios(grid), sim::null_monitor_factory(), {},
      &pool, {patient_id});
  const auto profiles = core::stack_profiles(stack);
  const auto& profile = profiles[static_cast<std::size_t>(patient_id)];
  monitor::CawConfig caw_config;
  std::vector<const sim::SimResult*> runs;
  for (const auto& r : training.by_patient[0]) runs.push_back(&r);
  const auto learned = core::learn_thresholds(
      core::extract_rule_datasets(runs, caw_config, profile.basal_rate,
                                  profile.isf),
      monitor::default_thresholds(profile.steady_state_iob));
  caw_config.thresholds = learned.values;

  TextTable table({"attack", "unprotected BG range", "hazard",
                   "guarded BG range", "alarm step", "rule"});
  for (const auto type :
       {fi::FaultType::kTruncate, fi::FaultType::kHold, fi::FaultType::kMax,
        fi::FaultType::kMin, fi::FaultType::kAdd, fi::FaultType::kSub,
        fi::FaultType::kBitflipDec}) {
    for (const auto target :
         {fi::FaultTarget::kSensorGlucose, fi::FaultTarget::kCommandRate}) {
      sim::SimConfig config;
      config.initial_bg = 140.0;
      config.fault.type = type;
      config.fault.target = target;
      config.fault.magnitude =
          target == fi::FaultTarget::kSensorGlucose ? 75.0 : 2.0;
      config.fault.start_step = 30;
      config.fault.duration_steps = 36;

      monitor::NullMonitor unprotected;
      const auto bare =
          sim::run_simulation(*patient, *controller, unprotected, config);

      monitor::CawMonitor cawt(caw_config);
      config.mitigation_enabled = true;
      const auto guarded =
          sim::run_simulation(*patient, *controller, cawt, config);

      const auto range = [](const sim::SimResult& r) {
        double lo = 1e9, hi = -1e9;
        for (const auto& s : r.steps) {
          lo = std::min(lo, s.true_bg);
          hi = std::max(hi, s.true_bg);
        }
        std::string out = "[";
        out += TextTable::num(lo, 0);
        out += ',';
        out += TextTable::num(hi, 0);
        out += ']';
        return out;
      };
      int rule = -1;
      const int alarm_step = guarded.first_alarm_step();
      if (alarm_step >= 0) {
        rule = guarded.steps[static_cast<std::size_t>(alarm_step)].rule_id;
      }
      table.add_row({config.fault.name(), range(bare),
                     bare.label.hazardous ? to_string(bare.label.type) : "-",
                     range(guarded),
                     alarm_step >= 0 ? std::to_string(alarm_step) : "-",
                     rule >= 0 ? std::to_string(rule) : "-"});
    }
  }
  table.print(std::cout);
  std::printf(
      "\nreading: forced-max attacks drag BG down (H1); starvation attacks\n"
      "(truncate/min/sub on the rate, or forced-low glucose readings) push\n"
      "it up (H2); the guarded column shows the monitor + Algorithm 1\n"
      "narrowing the excursion, with the Table I rule that caught it.\n");
  return 0;
}
