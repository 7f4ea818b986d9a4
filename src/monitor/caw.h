// Context-aware safety monitor (the paper's contribution, §III & Table I).
//
// The monitor logic is the synthesized form of twelve STL safety-context
// rules. Each rule guards one control action within one region of the
// (BG, BG', IOB, IOB') context space and carries an unknown boundary
// threshold beta learned from data:
//
//   rule  context                                  guarded    hazard
//   1     BG>BGT, BG'>0, IOB'<0, IOB<b1            !u1        H2
//   2     BG>BGT, BG'>0, IOB'=0, IOB<b2            !u1        H2
//   3     BG>BGT, BG'<0, IOB'>0, IOB<b3            !u1        H2
//   4     BG>BGT, BG'<0, IOB'<0, IOB<b4            !u1        H2
//   5     BG>BGT, BG'<0, IOB'=0, IOB<b5            !u1        H2
//   6     BG<BGT, BG'<0, IOB'>0, IOB>b6            !u2        H1
//   7     BG<BGT, BG'<0, IOB'<0, IOB>b7            !u2        H1
//   8     BG<BGT, BG'<0, IOB'=0, IOB>b8            !u2        H1
//   9     BG>BGT, IOB<b9                           !u3        H2
//   10    BG<b21                                   u3 req.    H1
//   11    BG>BGT, BG'>0, IOB'<=0, IOB<b10          !u4        H2
//   12    BG<BGT, BG'<0, IOB'>=0, IOB>b11          !u4        H1
//
// CAWT = thresholds refined per patient by the learning pipeline;
// CAWOT = the same logic with profile-derived default thresholds only
// (paper §V-C3). Each rule can also be exported as an STL formula (Eq. 1)
// for documentation, tests, and offline trace checking.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "monitor/monitor.h"
#include "stl/formula.h"

namespace aps::monitor {

/// Tri-state sign constraint on a context derivative/offset.
enum class SignCond {
  kAny,
  kPositive,     ///< > +eps
  kNegative,     ///< < -eps
  kZero,         ///< within +-eps
  kNonPositive,  ///< <= +eps
  kNonNegative,  ///< >= -eps
};

/// What the learned threshold compares against.
enum class RuleSubject { kIob, kBg };

struct CawRule {
  int id = 0;
  SignCond bg_side = SignCond::kAny;   ///< BG relative to BGT
  SignCond bg_rate = SignCond::kAny;
  SignCond iob_rate = SignCond::kAny;
  RuleSubject subject = RuleSubject::kIob;
  /// true: predicate is subject < beta; false: subject > beta.
  bool upper_bound = true;
  std::string param;  ///< threshold name, e.g. "beta1"
  aps::ControlAction action = aps::ControlAction::kKeepInsulin;
  /// false: `action` must NOT be issued in context (rules 1-9, 11, 12);
  /// true: `action` is REQUIRED in context (rule 10).
  bool action_required = false;
  aps::HazardType hazard = aps::HazardType::kNone;
};

struct CawConfig {
  double target_bg = 120.0;   ///< BGT
  double sign_epsilon_bg = 0.5;   ///< dead-band for BG' sign tests (mg/dL per cycle)
  double sign_epsilon_iob = 0.01; ///< dead-band for IOB' sign tests (U per cycle)
  std::map<std::string, double> thresholds;  ///< beta values
  std::string name = "cawt";
};

/// The Table I rule set.
[[nodiscard]] const std::vector<CawRule>& caw_rules();

/// Profile-derived default thresholds (no data-driven learning), used by
/// the CAWOT baseline: IOB bounds scaled from the steady-state basal IOB,
/// BG threshold at the clinical hypo limit.
[[nodiscard]] std::map<std::string, double> default_thresholds(
    double steady_state_basal_iob_u);

/// Stateless rule evaluator. A monitor's configuration is immutable and
/// shared by its clones: serving opens one clone per session, so a
/// patient's thresholds are held once however many sessions watch it.
class CawMonitor final : public Monitor {
 public:
  /// Resolves each rule's beta from config.thresholds once. A rule whose
  /// threshold is unbound never fires (and asserts in debug builds when
  /// evaluated); context_active() needs no thresholds at all.
  explicit CawMonitor(CawConfig config);

  void reset() override {}
  [[nodiscard]] Decision observe(const Observation& obs) override;
  [[nodiscard]] const std::string& name() const override {
    return shared_->config.name;
  }
  /// Shares this monitor's configuration and resolved thresholds.
  [[nodiscard]] std::unique_ptr<Monitor> clone() const override;

  [[nodiscard]] const CawConfig& config() const { return shared_->config; }

  /// Does `rule` fire (violation) under `obs` with the current thresholds?
  [[nodiscard]] bool rule_violated(const CawRule& rule,
                                   const Observation& obs) const;
  /// Is the rule's context (sign conditions, ignoring threshold and
  /// action) active under `obs`? Exposed for the learning pipeline.
  [[nodiscard]] bool context_active(const CawRule& rule,
                                    const Observation& obs) const;

 private:
  struct Shared {
    CawConfig config;
    /// beta[i] is caw_rules()[i]'s threshold (NaN when unbound).
    std::vector<double> beta;
  };

  [[nodiscard]] bool violated(const CawRule& rule, double beta,
                              const Observation& obs) const;

  std::shared_ptr<const Shared> shared_;
};

/// Export rule `r` as the STL formula of Eq. 1 over the trace variables
/// {BG, BG_rate, IOB, IOB_rate, u1..u4}, with the threshold left as the
/// free parameter `{r.param}`.
[[nodiscard]] aps::stl::FormulaPtr rule_to_stl(const CawRule& rule,
                                               const CawConfig& config);

}  // namespace aps::monitor
