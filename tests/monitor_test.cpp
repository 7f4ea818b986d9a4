// Monitors: Guideline rules, MPC projection, the twelve CAW rules (direct
// evaluation cross-checked against their STL export), ML monitor wrappers,
// and the mitigation policy.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "monitor/caw.h"
#include "monitor/guideline.h"
#include "monitor/mitigation.h"
#include "monitor/ml_monitor.h"
#include "monitor/mpc.h"
#include "stl/signal.h"

namespace {

using namespace aps::monitor;
using aps::ControlAction;
using aps::HazardType;

Observation base_obs() {
  Observation obs;
  obs.bg = 120.0;
  obs.bg_rate = 0.0;
  obs.iob = 2.0;
  obs.iob_rate = 0.0;
  obs.commanded_rate = 1.0;
  obs.previous_rate = 1.0;
  obs.action = ControlAction::kKeepInsulin;
  obs.basal_rate = 1.0;
  obs.isf = 40.0;
  return obs;
}

// --- Guideline ---------------------------------------------------------------

TEST(Guideline, RangeViolations) {
  GuidelineMonitor monitor;
  auto obs = base_obs();
  obs.bg = 65.0;
  auto d = monitor.observe(obs);
  EXPECT_TRUE(d.alarm);
  EXPECT_EQ(d.predicted, HazardType::kH1TooMuchInsulin);
  obs.bg = 185.0;
  d = monitor.observe(obs);
  EXPECT_TRUE(d.alarm);
  EXPECT_EQ(d.predicted, HazardType::kH2TooLittleInsulin);
}

TEST(Guideline, RateOfChangeViolations) {
  GuidelineMonitor monitor;
  auto obs = base_obs();
  obs.bg_rate = -6.0;
  EXPECT_TRUE(monitor.observe(obs).alarm);
  monitor.reset();
  obs.bg_rate = 4.0;
  EXPECT_TRUE(monitor.observe(obs).alarm);
  monitor.reset();
  obs.bg_rate = 2.0;
  EXPECT_FALSE(monitor.observe(obs).alarm);
}

TEST(Guideline, PercentileDeadline) {
  GuidelineConfig config;
  config.lambda10 = 100.0;
  config.alpha_steps = 3;
  GuidelineMonitor monitor(config);
  auto obs = base_obs();
  obs.bg = 95.0;  // below lambda10, inside phi1 range
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(monitor.observe(obs).alarm) << "step " << i;
  }
  EXPECT_TRUE(monitor.observe(obs).alarm);  // deadline expired
  // Recovery clears the deadline.
  monitor.reset();
  for (int i = 0; i < 3; ++i) (void)monitor.observe(obs);
  auto recovered = obs;
  recovered.bg = 110.0;
  (void)monitor.observe(recovered);
  EXPECT_FALSE(monitor.observe(obs).alarm);  // counter restarted
}

// --- MPC ---------------------------------------------------------------------

TEST(Mpc, OverdoseProjectsHypo) {
  MpcMonitor monitor;
  auto obs = base_obs();
  obs.bg = 100.0;
  obs.commanded_rate = 30.0;  // massive overdose held for the horizon
  Decision d;
  // The effect builds through the insulin compartments over several cycles.
  for (int i = 0; i < 30 && !d.alarm; ++i) {
    d = monitor.observe(obs);
    obs.bg = monitor.last_predicted_bg();
  }
  EXPECT_TRUE(d.alarm);
  EXPECT_EQ(d.predicted, HazardType::kH1TooMuchInsulin);
}

TEST(Mpc, StarvationProjectsHyper) {
  MpcMonitor monitor;
  auto obs = base_obs();
  obs.bg = 170.0;
  obs.commanded_rate = 0.0;
  Decision d;
  for (int i = 0; i < 60 && !d.alarm; ++i) {
    d = monitor.observe(obs);
    obs.bg = monitor.last_predicted_bg();
  }
  EXPECT_TRUE(d.alarm);
  EXPECT_EQ(d.predicted, HazardType::kH2TooLittleInsulin);
}

TEST(Mpc, QuietAtBasalSteadyState) {
  MpcMonitor monitor;
  auto obs = base_obs();
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(monitor.observe(obs).alarm) << "cycle " << i;
  }
}

// --- CAW rules ------------------------------------------------------------------

CawConfig test_caw_config() {
  CawConfig config;
  config.thresholds = default_thresholds(2.0);
  return config;
}

/// Build an observation that activates rule `id` (context + threshold +
/// action all firing).
Observation firing_observation(const CawRule& rule, const CawConfig& config) {
  Observation obs = base_obs();
  obs.bg = rule.bg_side == SignCond::kNegative ? 100.0 : 150.0;
  switch (rule.bg_rate) {
    case SignCond::kPositive: obs.bg_rate = 3.0; break;
    case SignCond::kNegative: obs.bg_rate = -3.0; break;
    default: obs.bg_rate = 0.0;
  }
  switch (rule.iob_rate) {
    case SignCond::kPositive: obs.iob_rate = 0.2; break;
    case SignCond::kNegative:
    case SignCond::kNonPositive: obs.iob_rate = -0.2; break;
    case SignCond::kNonNegative: obs.iob_rate = 0.2; break;
    default: obs.iob_rate = 0.0;
  }
  const double beta = config.thresholds.at(rule.param);
  if (rule.subject == RuleSubject::kIob) {
    obs.iob = rule.upper_bound ? beta - 0.5 : beta + 0.5;
  } else {
    obs.bg = beta - 5.0;  // rule 10: below the suspend threshold
  }
  obs.action = rule.action_required ? ControlAction::kKeepInsulin
                                    : rule.action;
  return obs;
}

class CawRuleFiring : public ::testing::TestWithParam<int> {};

TEST_P(CawRuleFiring, FiresExactlyWhenConstructed) {
  const auto config = test_caw_config();
  CawMonitor monitor(config);
  const auto& rules = caw_rules();
  const auto& rule = rules[static_cast<std::size_t>(GetParam())];

  const auto obs = firing_observation(rule, config);
  EXPECT_TRUE(monitor.rule_violated(rule, obs)) << "rule " << rule.id;

  // Perturbing the threshold subject to the safe side silences the rule.
  auto safe = obs;
  if (rule.subject == RuleSubject::kIob) {
    safe.iob = rule.upper_bound ? config.thresholds.at(rule.param) + 0.5
                                : config.thresholds.at(rule.param) - 0.5;
  } else {
    safe.bg = config.thresholds.at(rule.param) + 5.0;
  }
  EXPECT_FALSE(monitor.rule_violated(rule, safe)) << "rule " << rule.id;

  // Withholding the guarded action (or taking the required one) is safe.
  auto compliant = obs;
  compliant.action = rule.action_required
                         ? rule.action
                         : ControlAction::kKeepInsulin;
  if (!rule.action_required && rule.action == ControlAction::kKeepInsulin) {
    compliant.action = ControlAction::kIncreaseInsulin;
  }
  EXPECT_FALSE(monitor.rule_violated(rule, compliant)) << "rule " << rule.id;
}

TEST_P(CawRuleFiring, DirectEvaluationMatchesStlSemantics) {
  const auto config = test_caw_config();
  CawMonitor monitor(config);
  const auto& rule = caw_rules()[static_cast<std::size_t>(GetParam())];
  const auto formula = rule_to_stl(rule, config);

  // Build a 3-sample trace around the firing observation and check that the
  // STL formula (Eq. 1 shape) is violated exactly when the rule fires.
  const auto obs = firing_observation(rule, config);
  aps::stl::Trace trace(5.0);
  auto fill = [&](const char* name, double v) {
    trace.set(name, std::vector<double>{v, v, v});
  };
  fill("BG", obs.bg);
  fill("BG_rate", obs.bg_rate);
  fill("IOB", obs.iob);
  fill("IOB_rate", obs.iob_rate);
  for (int a = 0; a < 4; ++a) {
    fill(("u" + std::to_string(a + 1)).c_str(),
         static_cast<int>(obs.action) == a ? 1.0 : 0.0);
  }
  const aps::stl::ParamMap params{
      {rule.param, config.thresholds.at(rule.param)}};
  EXPECT_EQ(monitor.rule_violated(rule, obs),
            !formula->sat(trace, 0, params))
      << "rule " << rule.id << ": " << formula->to_string();
}

INSTANTIATE_TEST_SUITE_P(AllTwelve, CawRuleFiring, ::testing::Range(0, 12));

TEST(CawMonitor, ObserveReportsRuleAndHazard) {
  const auto config = test_caw_config();
  CawMonitor monitor(config);
  const auto& rule6 = caw_rules()[5];  // increase while low & falling
  const auto obs = firing_observation(rule6, config);
  const auto d = monitor.observe(obs);
  ASSERT_TRUE(d.alarm);
  EXPECT_EQ(d.rule_id, 6);
  EXPECT_EQ(d.predicted, HazardType::kH1TooMuchInsulin);
}

TEST(CawMonitor, QuietAtNominalOperation) {
  CawMonitor monitor(test_caw_config());
  EXPECT_FALSE(monitor.observe(base_obs()).alarm);
}

TEST(CawRules, TableOneStructure) {
  const auto& rules = caw_rules();
  ASSERT_EQ(rules.size(), 12u);
  int h1 = 0, h2 = 0;
  for (const auto& rule : rules) {
    (rule.hazard == HazardType::kH1TooMuchInsulin ? h1 : h2)++;
  }
  EXPECT_EQ(h1, 5);  // rules 6,7,8,10,12
  EXPECT_EQ(h2, 7);  // rules 1,2,3,4,5,9,11
  EXPECT_TRUE(rules[9].action_required);  // rule 10 requires u3
}

// --- Mitigation ------------------------------------------------------------------

TEST(Mitigation, H1CutsDelivery) {
  Decision d;
  d.alarm = true;
  d.predicted = HazardType::kH1TooMuchInsulin;
  EXPECT_DOUBLE_EQ(mitigate_rate(d, base_obs()), 0.0);
}

TEST(Mitigation, H2DeliversMax) {
  Decision d;
  d.alarm = true;
  d.predicted = HazardType::kH2TooLittleInsulin;
  EXPECT_DOUBLE_EQ(mitigate_rate(d, base_obs()), 4.0);  // 4 x basal
}

TEST(Mitigation, NoAlarmPassesThrough) {
  Decision d;
  auto obs = base_obs();
  obs.commanded_rate = 2.5;
  EXPECT_DOUBLE_EQ(mitigate_rate(d, obs), 2.5);
}

TEST(Mitigation, ContextScaledStaysWithinBounds) {
  Decision d;
  d.alarm = true;
  d.predicted = HazardType::kH2TooLittleInsulin;
  MitigationConfig config;
  config.policy = MitigationPolicy::kContextScaled;
  auto obs = base_obs();
  obs.bg = 300.0;
  const double rate = mitigate_rate(d, obs, config);
  EXPECT_GE(rate, obs.basal_rate);
  EXPECT_LE(rate, 4.0 * obs.basal_rate);
}

TEST(Mitigation, BasalFactorBelowOneIsRejected) {
  // factor < 1 would put the corrective cap under the basal rate (an
  // inverted clamp range); it is a configuration error, not a policy.
  Decision d;
  d.alarm = true;
  d.predicted = HazardType::kH2TooLittleInsulin;
  MitigationConfig config;
  config.policy = MitigationPolicy::kContextScaled;
  config.max_basal_factor = 0.5;
  EXPECT_THROW((void)mitigate_rate(d, base_obs(), config),
               std::invalid_argument);
  config.max_basal_factor = std::nan("");
  EXPECT_THROW((void)mitigate_rate(d, base_obs(), config),
               std::invalid_argument);
}

TEST(Mitigation, InfiniteBasalFactorIsRejected) {
  // +inf passes a bare >= 1 check; with a zero basal the fixed-max cap
  // would be inf * 0 = NaN, handed to the pump as a delivery rate.
  Decision d;
  d.alarm = true;
  d.predicted = HazardType::kH2TooLittleInsulin;
  auto obs = base_obs();
  obs.basal_rate = 0.0;
  MitigationConfig config;
  config.max_basal_factor = std::numeric_limits<double>::infinity();
  for (const auto policy :
       {MitigationPolicy::kFixedMax, MitigationPolicy::kContextScaled}) {
    config.policy = policy;
    EXPECT_THROW((void)mitigate_rate(d, obs, config), std::invalid_argument);
  }
  // The largest finite factor still yields a finite rate.
  config.policy = MitigationPolicy::kFixedMax;
  config.max_basal_factor = std::numeric_limits<double>::max();
  EXPECT_EQ(mitigate_rate(d, obs, config), 0.0);
}

TEST(Mitigation, FaultedBasalPassesCommandThrough) {
  // A negative or non-finite basal rate leaves no safe corrective range:
  // every alarm passes the controller's command through unmitigated.
  for (const double basal :
       {-1.0, std::nan(""), std::numeric_limits<double>::infinity()}) {
    auto obs = base_obs();
    obs.basal_rate = basal;
    obs.bg = 300.0;
    obs.commanded_rate = 1.7;
    for (const auto policy :
         {MitigationPolicy::kFixedMax, MitigationPolicy::kContextScaled}) {
      MitigationConfig config;
      config.policy = policy;
      for (const auto hazard : {HazardType::kH1TooMuchInsulin,
                                HazardType::kH2TooLittleInsulin}) {
        Decision d;
        d.alarm = true;
        d.predicted = hazard;
        EXPECT_DOUBLE_EQ(mitigate_rate(d, obs, config), 1.7)
            << "basal " << basal;
      }
    }
  }
}

// --- ML monitor plumbing -------------------------------------------------------------

TEST(MlMonitor, DecisionFromClassBinary) {
  auto obs = base_obs();
  obs.bg = 90.0;
  auto d = decision_from_class(1, 2, obs);
  EXPECT_TRUE(d.alarm);
  EXPECT_EQ(d.predicted, HazardType::kH1TooMuchInsulin);
  obs.bg = 200.0;
  d = decision_from_class(1, 2, obs);
  EXPECT_EQ(d.predicted, HazardType::kH2TooLittleInsulin);
  EXPECT_FALSE(decision_from_class(0, 2, obs).alarm);
}

TEST(MlMonitor, DecisionFromClassMulti) {
  const auto obs = base_obs();
  EXPECT_EQ(decision_from_class(1, 3, obs).predicted,
            HazardType::kH1TooMuchInsulin);
  EXPECT_EQ(decision_from_class(2, 3, obs).predicted,
            HazardType::kH2TooLittleInsulin);
}

TEST(MlMonitor, FeatureLayoutIsStable) {
  auto obs = base_obs();
  obs.bg = 111.0;
  obs.commanded_rate = 2.25;
  obs.action = ControlAction::kStopInsulin;
  const auto features = ml_features(obs);
  ASSERT_EQ(features.size(), kMlFeatureCount);
  EXPECT_DOUBLE_EQ(features[0], 111.0);
  EXPECT_DOUBLE_EQ(features[4], 2.25);
  EXPECT_DOUBLE_EQ(features[5], 2.0);  // kStopInsulin ordinal
}

}  // namespace
