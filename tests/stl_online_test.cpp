// Online STL evaluation and algebraic-law property sweeps.
#include <gtest/gtest.h>

#include <cmath>

#include "stl/online.h"
#include "stl/parser.h"

namespace {

using namespace aps::stl;

// --- OnlineEvaluator ------------------------------------------------------------

TEST(Online, MatchesOfflineAtNewestSample) {
  const auto f = parse_formula("H[0,2] (BG < 150)");
  OnlineEvaluator online({"BG"}, /*horizon=*/16);

  const std::vector<double> bg = {120, 130, 140, 160, 140, 130, 120, 110};
  Trace offline(5.0);
  std::vector<double> so_far;
  for (const double v : bg) {
    online.push({{"BG", v}});
    so_far.push_back(v);
    Trace trace(5.0);
    trace.set("BG", so_far);
    EXPECT_EQ(online.sat(*f),
              f->sat(trace, static_cast<int>(so_far.size()) - 1))
        << "after pushing " << v;
  }
}

TEST(Online, BoundedHistoryForgetsOldSamples) {
  // "BG was once above 200" with an unbounded past operator, but only 4
  // samples of history: the spike must age out of the window.
  const auto f = parse_formula("O[0,end] (BG > 200)");
  OnlineEvaluator online({"BG"}, /*horizon=*/4);
  online.push({{"BG", 250.0}});
  EXPECT_TRUE(online.sat(*f));
  for (int i = 0; i < 3; ++i) {
    online.push({{"BG", 120.0}});
    EXPECT_TRUE(online.sat(*f)) << i;  // spike still inside the window
  }
  online.push({{"BG", 120.0}});  // fifth sample: spike evicted
  EXPECT_FALSE(online.sat(*f));
  EXPECT_EQ(online.total_samples(), 5);
  EXPECT_EQ(online.retained(), 4u);
}

TEST(Online, StreamingRuleCheckOverContext) {
  // A Table I-shaped instantaneous rule evaluated per cycle.
  const auto rule = parse_formula(
      "(BG > 120 and IOB < {beta}) -> !u3");
  OnlineEvaluator online({"BG", "IOB", "u3"}, 8);
  const ParamMap params{{"beta", 1.0}};

  online.push({{"BG", 150.0}, {"IOB", 0.5}, {"u3", 0.0}});
  EXPECT_TRUE(online.sat(*rule, params));
  online.push({{"BG", 150.0}, {"IOB", 0.5}, {"u3", 1.0}});  // unsafe stop
  EXPECT_FALSE(online.sat(*rule, params));
  online.push({{"BG", 150.0}, {"IOB", 2.0}, {"u3", 1.0}});  // enough IOB
  EXPECT_TRUE(online.sat(*rule, params));
}

TEST(Online, RejectsBadUsage) {
  OnlineEvaluator online({"BG"}, 4);
  const auto f = parse_formula("BG > 0");
  EXPECT_THROW((void)online.robustness(*f), std::logic_error);
  EXPECT_THROW(online.push({{"wrong", 1.0}}), std::invalid_argument);
  EXPECT_THROW(OnlineEvaluator({"BG"}, 0), std::invalid_argument);
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

// --- Runtime consistency: the streaming STL check over a real closed-loop
// trace must agree step-by-step with the synthesized CawMonitor logic.
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

  // One evaluator per rule; horizon 1 turns G[0,end] into the
  // instantaneous check the monitor executes.
  std::vector<FormulaPtr> formulas;
  ParamMap params;
  for (const auto& rule : monitor::caw_rules()) {
    formulas.push_back(monitor::rule_to_stl(rule, caw_config));
    params[rule.param] = caw_config.thresholds.at(rule.param);
  }
  OnlineEvaluator online(
      {"BG", "BG_rate", "IOB", "IOB_rate", "u1", "u2", "u3", "u4"},
      /*horizon=*/1);

  for (std::size_t k = 0; k < run.steps.size(); ++k) {
    const auto obs = sim::observation_from_record(
        run, k, controller->basal_rate(), controller->isf());
    std::map<std::string, double> sample = {
        {"BG", obs.bg},
        {"BG_rate", obs.bg_rate},
        {"IOB", obs.iob},
        {"IOB_rate", obs.iob_rate}};
    for (int a = 0; a < 4; ++a) {
      sample[std::string("u").append(std::to_string(a + 1))] =
          static_cast<int>(obs.action) == a ? 1.0 : 0.0;
    }
    online.push(sample);
    for (std::size_t r = 0; r < formulas.size(); ++r) {
      const auto& rule = monitor::caw_rules()[r];
      EXPECT_EQ(online.sat(*formulas[r], params),
                !synthesized.rule_violated(rule, obs))
          << "rule " << rule.id << " at step " << k;
    }
  }
}

}  // namespace
