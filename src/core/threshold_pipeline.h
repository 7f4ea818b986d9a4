// Data-driven threshold refinement pipeline (paper §III-C2 / §V-B):
// extracts per-rule violation datasets from fault-injection campaign
// traces and learns tight thresholds with L-BFGS-B + TMEE.
//
// Violation examples for a rule are the samples of hazardous traces where
// (a) the rule's context sign-conditions held, (b) the guarded action was
// issued (or the required action withheld, rule 10), (c) the trace's
// hazard class matches the rule's, and (d) the sample lies inside the
// pre-onset window — the instants where the UCA was actually driving the
// system toward the hazard.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "learn/loss.h"
#include "learn/stl_learning.h"
#include "monitor/caw.h"
#include "sim/runner.h"

namespace aps::core {

struct ThresholdLearningOptions {
  aps::learn::LossKind loss = aps::learn::LossKind::kTmee;
  /// Samples considered before the hazard onset (2 h default).
  int lookback_steps = 24;
  /// Box bounds on IOB thresholds (U).
  double iob_lower = 0.0;
  double iob_upper = 20.0;
  /// Box bounds on the BG threshold of rule 10 (mg/dL). Samples above the
  /// hypoglycemic risk branch (~112.5, risk_zero_bg()) are excluded from
  /// the rule's violation set: only readings already on the hypo side
  /// witness a missing pump suspension.
  double bg_lower = 40.0;
  double bg_upper = 90.0;
  /// Weak supervision: a rule with no violation evidence for this patient
  /// never contributed to a hazard, so CAWT leaves it silent (thresholds
  /// pushed past the firing side). Set false to keep the CAWOT-style
  /// profile defaults for unevidenced rules instead.
  bool disable_unevidenced_rules = true;
  /// Forwarded to ThresholdProblem::enforce_coverage (Eq. 3's hard
  /// constraint). Disabled only by the loss-shape ablation.
  bool enforce_coverage = true;
};

/// Per-rule violation values (keyed by threshold parameter name).
using RuleDatasets = std::map<std::string, std::vector<double>>;

/// Extract violation datasets for all Table I rules from the campaign runs
/// of one or more patients.
[[nodiscard]] RuleDatasets extract_rule_datasets(
    const std::vector<const aps::sim::SimResult*>& runs,
    const aps::monitor::CawConfig& context_config, double basal_rate,
    double isf, const ThresholdLearningOptions& options = {});

struct LearnedThresholds {
  std::map<std::string, double> values;
  /// Per-parameter diagnostics (iterations, convergence, margins).
  std::map<std::string, aps::learn::ThresholdResult> diagnostics;
  /// Parameters that kept their defaults for lack of violation examples.
  std::vector<std::string> defaulted;
};

/// Learn every threshold that has data; parameters without violation
/// examples fall back to `defaults`.
[[nodiscard]] LearnedThresholds learn_thresholds(
    const RuleDatasets& datasets,
    const std::map<std::string, double>& defaults,
    const ThresholdLearningOptions& options = {});

}  // namespace aps::core
