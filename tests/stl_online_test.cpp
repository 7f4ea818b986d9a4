// Per-cycle STL rule checks and algebraic-law property sweeps.
#include <gtest/gtest.h>

#include <cmath>

#include "stl/parser.h"

namespace {

using namespace aps::stl;

// --- Rules checked per control cycle -----------------------------------------

TEST(Online, StreamingRuleCheckOverContext) {
  // A Table I-shaped instantaneous rule evaluated at each cycle of a trace.
  const auto rule = parse_formula(
      "(BG > 120 and IOB < {beta}) -> !u3");
  const ParamMap params{{"beta", 1.0}};
  Trace trace(5.0);
  trace.set("BG", {150.0, 150.0, 150.0});
  trace.set("IOB", {0.5, 0.5, 2.0});
  trace.set("u3", {0.0, 1.0, 1.0});

  EXPECT_TRUE(rule->sat(trace, 0, params));
  EXPECT_FALSE(rule->sat(trace, 1, params));  // unsafe stop
  EXPECT_TRUE(rule->sat(trace, 2, params));   // enough IOB
}

// --- Algebraic laws (property sweeps) ----------------------------------------------

class StlLaws : public ::testing::TestWithParam<int> {
 protected:
  [[nodiscard]] Trace random_trace() const {
    const int seed = GetParam();
    std::vector<double> bg, iob;
    double x = 90.0 + 13.0 * seed;
    for (int i = 0; i < 24; ++i) {
      x = 70.0 + std::fmod(x * 1.61 + 7.0, 180.0);
      bg.push_back(x);
      iob.push_back(std::fmod(x, 5.0));
    }
    Trace trace(5.0);
    trace.set("BG", bg);
    trace.set("IOB", iob);
    return trace;
  }
};

TEST_P(StlLaws, DeMorganRobustness) {
  const auto trace = random_trace();
  const auto a = pred("BG", CmpOp::kGt, 120.0);
  const auto b = pred("IOB", CmpOp::kLt, 2.5);
  const auto lhs = negate(conj(a, b));
  const auto rhs = disj(negate(a), negate(b));
  for (int k = 0; k < 24; ++k) {
    EXPECT_DOUBLE_EQ(lhs->robustness(trace, k, {}),
                     rhs->robustness(trace, k, {}))
        << "k=" << k;
  }
}

TEST_P(StlLaws, GloballyEventuallyDuality) {
  const auto trace = random_trace();
  const auto a = pred("BG", CmpOp::kGt, 150.0);
  const Interval iv{0, 6};
  const auto g = globally(iv, a);
  const auto not_f_not = negate(eventually(iv, negate(a)));
  for (int k = 0; k < 24; ++k) {
    EXPECT_DOUBLE_EQ(g->robustness(trace, k, {}),
                     not_f_not->robustness(trace, k, {}))
        << "k=" << k;
  }
}

TEST_P(StlLaws, HistoricallyOnceDuality) {
  const auto trace = random_trace();
  const auto a = pred("IOB", CmpOp::kLt, 3.0);
  const Interval iv{0, 5};
  const auto h = historically(iv, a);
  const auto not_o_not = negate(once(iv, negate(a)));
  for (int k = 0; k < 24; ++k) {
    EXPECT_DOUBLE_EQ(h->robustness(trace, k, {}),
                     not_o_not->robustness(trace, k, {}))
        << "k=" << k;
  }
}

TEST_P(StlLaws, EventuallyIsUntilWithTrue) {
  const auto trace = random_trace();
  const auto a = pred("BG", CmpOp::kGt, 150.0);
  const Interval iv{0, 5};
  const auto f = eventually(iv, a);
  const auto true_until =
      until(iv, std::make_shared<Constant>(true), a);
  for (int k = 0; k < 24; ++k) {
    EXPECT_EQ(f->sat(trace, k), true_until->sat(trace, k)) << "k=" << k;
  }
}

TEST_P(StlLaws, GloballyMonotoneInWindow) {
  // Widening a G window can only lower robustness.
  const auto trace = random_trace();
  const auto a = pred("BG", CmpOp::kGt, 100.0);
  const auto narrow = globally(Interval{0, 3}, a);
  const auto wide = globally(Interval{0, 9}, a);
  for (int k = 0; k < 24; ++k) {
    EXPECT_LE(wide->robustness(trace, k, {}),
              narrow->robustness(trace, k, {}) + 1e-12)
        << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StlLaws, ::testing::Range(0, 10));

}  // namespace

// --- Runtime consistency: the STL form of every rule, checked at each step
// of a real closed-loop trace, must agree with the synthesized CawMonitor
// logic.
#include "core/threshold_pipeline.h"
#include "monitor/caw.h"
#include "sim/stack.h"

namespace {

TEST(Online, AgreesWithSynthesizedMonitorOverRealTrace) {
  using namespace aps;
  const auto stack = sim::glucosym_openaps_stack();
  const auto patient = stack.make_patient(8);
  const auto controller = stack.make_controller(*patient);
  monitor::NullMonitor null_monitor;
  sim::SimConfig config;
  config.initial_bg = 140.0;
  config.fault.type = fi::FaultType::kMax;
  config.fault.target = fi::FaultTarget::kCommandRate;
  config.fault.start_step = 30;
  config.fault.duration_steps = 40;
  const auto run =
      sim::run_simulation(*patient, *controller, null_monitor, config);

  monitor::CawConfig caw_config;
  caw_config.thresholds = monitor::default_thresholds(2.0);
  const monitor::CawMonitor synthesized(caw_config);

  std::vector<FormulaPtr> formulas;
  ParamMap params;
  for (const auto& rule : monitor::caw_rules()) {
    formulas.push_back(monitor::rule_to_stl(rule, caw_config));
    params[rule.param] = caw_config.thresholds.at(rule.param);
  }

  for (std::size_t k = 0; k < run.steps.size(); ++k) {
    const auto obs = sim::observation_from_record(
        run, k, controller->basal_rate(), controller->isf());
    // The cycle's sample as a one-step trace: G[0,end] at its only step is
    // the instantaneous check the monitor executes each cycle.
    Trace step(5.0);
    step.set("BG", {obs.bg});
    step.set("BG_rate", {obs.bg_rate});
    step.set("IOB", {obs.iob});
    step.set("IOB_rate", {obs.iob_rate});
    for (int a = 0; a < 4; ++a) {
      step.set(std::string("u").append(std::to_string(a + 1)),
               {static_cast<int>(obs.action) == a ? 1.0 : 0.0});
    }
    for (std::size_t r = 0; r < formulas.size(); ++r) {
      const auto& rule = monitor::caw_rules()[r];
      EXPECT_EQ(formulas[r]->sat(step, 0, params),
                !synthesized.rule_violated(rule, obs))
          << "rule " << rule.id << " at step " << k;
    }
  }
}

}  // namespace
