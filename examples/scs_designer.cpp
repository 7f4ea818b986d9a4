// SCS designer: the framework side of the library. Prints the full APS
// Safety Context Specification — accidents, hazards, every UCAS row as its
// STL template (Eq. 1), the HMS templates (Eq. 2) — then refines the free
// thresholds from data for one patient and verifies the refined formulas
// against a recorded trace with the STL engine (offline checking).
//
// Build & run:  ./build/examples/scs_designer
#include <cstdio>
#include <iostream>

#include "common/cli.h"
#include "core/monitor_factory.h"
#include "core/scs.h"
#include "fi/campaign.h"
#include "sim/runner.h"
#include "sim/stack.h"
#include "stl/formula.h"

namespace {

/// Convert a recorded simulation into an STL trace over the monitor's
/// context variables (BG, BG_rate, IOB, IOB_rate, u1..u4).
aps::stl::Trace to_stl_trace(const aps::sim::SimResult& run) {
  aps::stl::Trace trace(5.0);
  std::vector<double> bg, bg_rate, iob, iob_rate;
  std::vector<std::vector<double>> actions(4);
  for (std::size_t k = 0; k < run.steps.size(); ++k) {
    const auto& s = run.steps[k];
    bg.push_back(s.cgm_bg);
    bg_rate.push_back(k > 0 ? s.cgm_bg - run.steps[k - 1].cgm_bg : 0.0);
    iob.push_back(s.iob);
    iob_rate.push_back(k > 0 ? s.iob - run.steps[k - 1].iob : 0.0);
    for (int a = 0; a < 4; ++a) {
      actions[static_cast<std::size_t>(a)].push_back(
          static_cast<int>(s.action) == a ? 1.0 : 0.0);
    }
  }
  trace.set("BG", bg);
  trace.set("BG_rate", bg_rate);
  trace.set("IOB", iob);
  trace.set("IOB_rate", iob_rate);
  for (int a = 0; a < 4; ++a) {
    trace.set(std::string("u").append(std::to_string(a + 1)),
              actions[static_cast<std::size_t>(a)]);
  }
  return trace;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aps;
  CliFlags(argc, argv).reject_unknown();  // takes no flags

  // --- 1. The specification, from hazard analysis to STL templates.
  const auto scs = core::aps_scs();
  std::printf("accidents:\n");
  for (const auto& a : scs.accidents()) {
    std::printf("  %s: %s\n", a.id.c_str(), a.description.c_str());
  }
  std::printf("hazards:\n");
  for (const auto& h : scs.hazards()) {
    std::printf("  %s (-> %s): %s\n", h.id.c_str(), h.accident_id.c_str(),
                h.description.c_str());
  }
  std::printf("\nUCAS as STL templates (Eq. 1), thresholds free:\n");
  for (std::size_t i = 0; i < scs.ucas().size(); ++i) {
    std::printf("  rule %-2d [%s]  %s\n", scs.ucas()[i].rule.id,
                scs.ucas()[i].hazard_id.c_str(),
                scs.ucas_formula(i)->to_string().c_str());
  }
  std::printf("\nHMS as STL templates (Eq. 2):\n");
  for (std::size_t i = 0; i < scs.hms().size(); ++i) {
    std::printf("  %s: %s\n", scs.hms()[i].action.c_str(),
                scs.hms_formula(i)->to_string().c_str());
  }

  // --- 2. Data-driven refinement for one patient.
  const auto stack = sim::glucosym_openaps_stack();
  const int patient_id = 6;
  ThreadPool pool;
  const auto training = sim::run_campaign(
      stack, fi::enumerate_scenarios(fi::CampaignGrid::quick()),
      sim::null_monitor_factory(), {}, &pool, {patient_id});
  const auto profiles = core::stack_profiles(stack);
  const auto& profile = profiles[static_cast<std::size_t>(patient_id)];
  std::vector<const sim::SimResult*> runs;
  for (const auto& r : training.by_patient[0]) runs.push_back(&r);
  const auto learned = core::learn_thresholds(
      core::extract_rule_datasets(runs, scs.context_config(),
                                  profile.basal_rate, profile.isf),
      monitor::default_thresholds(profile.steady_state_iob));

  std::printf("\nrefined thresholds for %s:\n",
              stack.make_patient(patient_id)->name().c_str());
  for (const auto& [param, diag] : learned.diagnostics) {
    std::printf("  %-8s = %7.3f   (%d L-BFGS-B iterations, min margin "
                "%+.3f)\n",
                param.c_str(), diag.beta, diag.iterations, diag.min_margin);
  }
  for (const auto& param : learned.defaulted) {
    std::printf("  %-8s   silenced (no hazard evidence in this campaign)\n",
                param.c_str());
  }

  // --- 3. Offline verification of the refined formulas with the STL
  //        engine: hazardous traces must violate at least one UCAS formula;
  //        a fault-free trace must satisfy all of them.
  stl::ParamMap params;
  for (const auto& [name, value] : learned.values) params[name] = value;

  std::size_t hazardous = 0, flagged = 0;
  for (const auto* run : runs) {
    if (!run->label.hazardous) continue;
    ++hazardous;
    const auto trace = to_stl_trace(*run);
    for (std::size_t i = 0; i < scs.ucas().size(); ++i) {
      if (!scs.ucas_formula(i)->sat(trace, 0, params)) {
        ++flagged;
        break;
      }
    }
  }
  std::printf("\noffline STL check: %zu/%zu hazardous traces violate a "
              "refined UCAS formula\n",
              flagged, hazardous);

  const auto fault_free = sim::run_campaign(
      stack, fi::fault_free_scenarios(fi::CampaignGrid::quick()),
      sim::null_monitor_factory(), {}, &pool, {patient_id});
  std::size_t clean = 0, total = 0;
  for (const auto& run : fault_free.by_patient[0]) {
    ++total;
    const auto trace = to_stl_trace(run);
    bool all_sat = true;
    for (std::size_t i = 0; i < scs.ucas().size(); ++i) {
      all_sat &= scs.ucas_formula(i)->sat(trace, 0, params);
    }
    clean += all_sat ? 1u : 0u;
  }
  std::printf("                   %zu/%zu fault-free traces satisfy all "
              "refined formulas\n",
              clean, total);
  return 0;
}
