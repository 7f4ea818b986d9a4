#include "monitor/caw.h"

#include <cassert>
#include <cmath>
#include <limits>

namespace aps::monitor {

namespace {

using aps::ControlAction;
using aps::HazardType;

bool sign_holds(SignCond cond, double value, double eps) {
  switch (cond) {
    case SignCond::kAny: return true;
    case SignCond::kPositive: return value > eps;
    case SignCond::kNegative: return value < -eps;
    case SignCond::kZero: return value >= -eps && value <= eps;
    case SignCond::kNonPositive: return value <= eps;
    case SignCond::kNonNegative: return value >= -eps;
  }
  return false;
}

std::vector<CawRule> build_rules() {
  std::vector<CawRule> rules;
  auto add = [&](int id, SignCond bg_side, SignCond bg_rate,
                 SignCond iob_rate, RuleSubject subject, bool upper,
                 const char* param, ControlAction action, bool required,
                 HazardType hazard) {
    CawRule r;
    r.id = id;
    r.bg_side = bg_side;
    r.bg_rate = bg_rate;
    r.iob_rate = iob_rate;
    r.subject = subject;
    r.upper_bound = upper;
    r.param = param;
    r.action = action;
    r.action_required = required;
    r.hazard = hazard;
    rules.push_back(std::move(r));
  };

  const auto kPos = SignCond::kPositive;
  const auto kNeg = SignCond::kNegative;
  const auto kZero = SignCond::kZero;
  const auto kAny = SignCond::kAny;
  const auto kIob = RuleSubject::kIob;
  const auto kBg = RuleSubject::kBg;
  const auto u1 = ControlAction::kDecreaseInsulin;
  const auto u2 = ControlAction::kIncreaseInsulin;
  const auto u3 = ControlAction::kStopInsulin;
  const auto u4 = ControlAction::kKeepInsulin;
  const auto H1 = HazardType::kH1TooMuchInsulin;
  const auto H2 = HazardType::kH2TooLittleInsulin;

  // Table I rows 1..12.
  add(1, kPos, kPos, kNeg, kIob, true, "beta1", u1, false, H2);
  add(2, kPos, kPos, kZero, kIob, true, "beta2", u1, false, H2);
  add(3, kPos, kNeg, kPos, kIob, true, "beta3", u1, false, H2);
  add(4, kPos, kNeg, kNeg, kIob, true, "beta4", u1, false, H2);
  add(5, kPos, kNeg, kZero, kIob, true, "beta5", u1, false, H2);
  add(6, kNeg, kNeg, kPos, kIob, false, "beta6", u2, false, H1);
  add(7, kNeg, kNeg, kNeg, kIob, false, "beta7", u2, false, H1);
  add(8, kNeg, kNeg, kZero, kIob, false, "beta8", u2, false, H1);
  add(9, kPos, kAny, kAny, kIob, true, "beta9", u3, false, H2);
  add(10, kAny, kAny, kAny, kBg, true, "beta21", u3, true, H1);
  add(11, kPos, kPos, SignCond::kNonPositive, kIob, true, "beta10", u4,
      false, H2);
  add(12, kNeg, kNeg, SignCond::kNonNegative, kIob, false, "beta11", u4,
      false, H1);
  return rules;
}

}  // namespace

const std::vector<CawRule>& caw_rules() {
  static const std::vector<CawRule> rules = build_rules();
  return rules;
}

std::map<std::string, double> default_thresholds(
    double steady_state_basal_iob_u) {
  const double ss = steady_state_basal_iob_u;
  // Without data, a clinician can only anchor the IOB bounds to the basal
  // operating point: H2-side rules (insulin too low) fire when IOB sits
  // below the basal norm; H1-side rules (insulin piling up) when above it.
  return {
      {"beta1", 0.8 * ss},  {"beta2", 0.8 * ss},  {"beta3", 0.8 * ss},
      {"beta4", 0.8 * ss},  {"beta5", 0.8 * ss},  {"beta6", 1.2 * ss},
      {"beta7", 1.2 * ss},  {"beta8", 1.2 * ss},  {"beta9", 0.8 * ss},
      {"beta10", 0.8 * ss}, {"beta11", 1.2 * ss}, {"beta21", 70.0},
  };
}

CawMonitor::CawMonitor(CawConfig config) {
  Shared shared{.config = std::move(config), .beta = {}};
  const auto& rules = caw_rules();
  shared.beta.reserve(rules.size());
  for (const CawRule& rule : rules) {
    const auto it = shared.config.thresholds.find(rule.param);
    shared.beta.push_back(it != shared.config.thresholds.end()
                              ? it->second
                              : std::numeric_limits<double>::quiet_NaN());
  }
  shared_ = std::make_shared<const Shared>(std::move(shared));
}

bool CawMonitor::context_active(const CawRule& rule,
                                const Observation& obs) const {
  const CawConfig& config = shared_->config;
  const double bg_offset = obs.bg - config.target_bg;
  // BG-vs-target uses a zero dead-band: Table I splits strictly at BGT.
  if (!sign_holds(rule.bg_side, bg_offset, 0.0)) return false;
  if (!sign_holds(rule.bg_rate, obs.bg_rate, config.sign_epsilon_bg)) {
    return false;
  }
  if (!sign_holds(rule.iob_rate, obs.iob_rate, config.sign_epsilon_iob)) {
    return false;
  }
  return true;
}

bool CawMonitor::violated(const CawRule& rule, double beta,
                          const Observation& obs) const {
  if (!context_active(rule, obs)) return false;

  assert(!std::isnan(beta) && "unbound CAW threshold");
  const double subject =
      rule.subject == RuleSubject::kIob ? obs.iob : obs.bg;
  const bool in_band = rule.upper_bound ? subject < beta : subject > beta;
  if (!in_band) return false;

  if (rule.action_required) {
    return obs.action != rule.action;  // required action not taken
  }
  return obs.action == rule.action;  // forbidden action taken
}

bool CawMonitor::rule_violated(const CawRule& rule,
                               const Observation& obs) const {
  const auto& thresholds = shared_->config.thresholds;
  const auto it = thresholds.find(rule.param);
  return violated(rule,
                  it != thresholds.end()
                      ? it->second
                      : std::numeric_limits<double>::quiet_NaN(),
                  obs);
}

Decision CawMonitor::observe(const Observation& obs) {
  Decision d;
  const auto& rules = caw_rules();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (violated(rules[i], shared_->beta[i], obs)) {
      d.alarm = true;
      d.predicted = rules[i].hazard;
      d.rule_id = rules[i].id;
      return d;
    }
  }
  return d;
}

std::unique_ptr<Monitor> CawMonitor::clone() const {
  return std::make_unique<CawMonitor>(*this);
}

aps::stl::FormulaPtr rule_to_stl(const CawRule& rule,
                                 const CawConfig& config) {
  using namespace aps::stl;
  std::vector<FormulaPtr> context;

  auto sign_pred = [&](const std::string& var, SignCond cond, double eps)
      -> FormulaPtr {
    switch (cond) {
      case SignCond::kAny:
        return nullptr;
      case SignCond::kPositive:
        return pred(var, CmpOp::kGt, eps);
      case SignCond::kNegative:
        return pred(var, CmpOp::kLt, -eps);
      case SignCond::kZero:
        return conj(pred(var, CmpOp::kGe, -eps), pred(var, CmpOp::kLe, eps));
      case SignCond::kNonPositive:
        return pred(var, CmpOp::kLe, eps);
      case SignCond::kNonNegative:
        return pred(var, CmpOp::kGe, -eps);
    }
    return nullptr;
  };

  if (auto p = sign_pred("BG", rule.bg_side, 0.0); p != nullptr) {
    // BG side is relative to BGT: express as BG > BGT / BG < BGT.
    context.push_back(rule.bg_side == SignCond::kPositive
                          ? pred("BG", CmpOp::kGt, config.target_bg)
                          : pred("BG", CmpOp::kLt, config.target_bg));
  }
  if (auto p = sign_pred("BG_rate", rule.bg_rate, config.sign_epsilon_bg);
      p != nullptr) {
    context.push_back(std::move(p));
  }
  if (auto p = sign_pred("IOB_rate", rule.iob_rate, config.sign_epsilon_iob);
      p != nullptr) {
    context.push_back(std::move(p));
  }

  const std::string subject_var =
      rule.subject == RuleSubject::kIob ? "IOB" : "BG";
  context.push_back(pred_param(subject_var,
                               rule.upper_bound ? CmpOp::kLt : CmpOp::kGt,
                               rule.param));

  const std::string action_var = std::string("u").append(
      std::to_string(static_cast<int>(rule.action) + 1));
  FormulaPtr consequent = rule.action_required
                              ? bool_atom(action_var)
                              : negate(bool_atom(action_var));

  // G[t0, te] (context => consequent), Eq. 1.
  return globally(Interval{0, Interval::kUnbounded},
                  implies(conj(std::move(context)), std::move(consequent)));
}

}  // namespace aps::monitor
