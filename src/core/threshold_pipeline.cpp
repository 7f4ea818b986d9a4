#include "core/threshold_pipeline.h"

#include <algorithm>

#include "risk/risk_index.h"

namespace aps::core {

RuleDatasets extract_rule_datasets(
    const std::vector<const aps::sim::SimResult*>& runs,
    const aps::monitor::CawConfig& context_config, double basal_rate,
    double isf, const ThresholdLearningOptions& options) {
  RuleDatasets datasets;
  // A probe monitor gives access to context_active(); thresholds are not
  // consulted during extraction, only sign conditions and actions.
  aps::monitor::CawMonitor probe(context_config);

  for (const auto* run : runs) {
    if (!run->label.hazardous) continue;
    const int onset = run->label.onset_step;
    const int lo = std::max(0, onset - options.lookback_steps);
    for (int k = lo; k <= onset && k < static_cast<int>(run->steps.size());
         ++k) {
      const auto obs = aps::sim::observation_from_record(
          *run, static_cast<std::size_t>(k), basal_rate, isf);
      for (const auto& rule : aps::monitor::caw_rules()) {
        if (rule.hazard != run->label.type) continue;
        if (!probe.context_active(rule, obs)) continue;
        const bool action_matches = rule.action_required
                                        ? obs.action != rule.action
                                        : obs.action == rule.action;
        if (!action_matches) continue;
        if (rule.subject == aps::monitor::RuleSubject::kBg &&
            obs.bg >= aps::risk::risk_zero_bg()) {
          continue;  // only hypo-branch readings witness rule 10
        }
        const double subject =
            rule.subject == aps::monitor::RuleSubject::kIob ? obs.iob
                                                            : obs.bg;
        datasets[rule.param].push_back(subject);
      }
    }
  }
  return datasets;
}

LearnedThresholds learn_thresholds(
    const RuleDatasets& datasets,
    const std::map<std::string, double>& defaults,
    const ThresholdLearningOptions& options) {
  LearnedThresholds out;
  out.values = defaults;

  for (const auto& rule : aps::monitor::caw_rules()) {
    const auto it = datasets.find(rule.param);
    if (it == datasets.end() || it->second.empty()) {
      out.defaulted.push_back(rule.param);
      if (options.disable_unevidenced_rules) {
        // No hazard ever followed this context/action for this patient:
        // park the threshold beyond the firing side so the rule is silent.
        out.values[rule.param] =
            rule.upper_bound ? -1.0e18 : 1.0e18;
      }
      continue;
    }
    aps::learn::ThresholdProblem problem;
    problem.violation_values = it->second;
    problem.side = rule.upper_bound ? aps::learn::BoundSide::kUpperBound
                                    : aps::learn::BoundSide::kLowerBound;
    problem.loss = options.loss;
    problem.enforce_coverage = options.enforce_coverage;
    if (rule.subject == aps::monitor::RuleSubject::kBg) {
      problem.lower_limit = options.bg_lower;
      problem.upper_limit = options.bg_upper;
    } else {
      problem.lower_limit = options.iob_lower;
      problem.upper_limit = options.iob_upper;
    }
    const auto result = aps::learn::learn_threshold(problem);
    if (result.has_value()) {
      out.values[rule.param] = result->beta;
      out.diagnostics[rule.param] = *result;
    } else {
      out.defaulted.push_back(rule.param);
    }
  }
  return out;
}

}  // namespace aps::core
