// STL engine: robustness semantics, boolean satisfaction, temporal window
// edges, parameter binding, and parser round-trips.
#include <gtest/gtest.h>

#include <cmath>

#include "stl/formula.h"
#include "stl/parser.h"

namespace {

using namespace aps::stl;

Trace make_trace(std::vector<double> bg, std::vector<double> u1 = {}) {
  Trace trace(5.0);
  if (u1.empty()) u1.assign(bg.size(), 0.0);
  trace.set("BG", std::move(bg));
  trace.set("u1", std::move(u1));
  return trace;
}

TEST(Signal, DifferenceIsIndexAligned) {
  const Signal s(0.0, 5.0, {100.0, 110.0, 105.0});
  const Signal d = s.difference();
  ASSERT_EQ(d.size(), 3u);
  EXPECT_DOUBLE_EQ(d[0], 0.0);
  EXPECT_DOUBLE_EQ(d[1], 10.0);
  EXPECT_DOUBLE_EQ(d[2], -5.0);
}

TEST(Trace, RejectsLengthMismatch) {
  Trace trace(5.0);
  trace.set("a", std::vector<double>{1.0, 2.0});
  EXPECT_THROW(trace.set("b", std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)trace.at("missing"), std::out_of_range);
}

TEST(Predicate, RobustnessIsSignedMargin) {
  const auto trace = make_trace({100.0, 150.0});
  const auto gt = pred("BG", CmpOp::kGt, 120.0);
  EXPECT_DOUBLE_EQ(gt->robustness(trace, 0, {}), -20.0);
  EXPECT_DOUBLE_EQ(gt->robustness(trace, 1, {}), 30.0);
  const auto lt = pred("BG", CmpOp::kLt, 120.0);
  EXPECT_DOUBLE_EQ(lt->robustness(trace, 0, {}), 20.0);
  EXPECT_FALSE(lt->sat(trace, 1));
}

TEST(Predicate, OutOfTraceIsStronglyFalse) {
  const auto trace = make_trace({100.0});
  const auto p = pred("BG", CmpOp::kGt, 0.0);
  EXPECT_LE(p->robustness(trace, 5, {}), -kBoolRobustness);
  EXPECT_LE(p->robustness(trace, -1, {}), -kBoolRobustness);
}

TEST(Predicate, ParameterBinding) {
  const auto trace = make_trace({100.0});
  const auto p = pred_param("BG", CmpOp::kLt, "beta");
  EXPECT_TRUE(p->sat(trace, 0, {{"beta", 110.0}}));
  EXPECT_FALSE(p->sat(trace, 0, {{"beta", 90.0}}));
  EXPECT_THROW((void)p->robustness(trace, 0, {}), std::invalid_argument);
  std::set<std::string> params;
  p->collect_params(params);
  EXPECT_EQ(params, std::set<std::string>{"beta"});
}

TEST(Boolean, MinMaxSemantics) {
  const auto trace = make_trace({130.0});
  const auto a = pred("BG", CmpOp::kGt, 120.0);  // rho = 10
  const auto b = pred("BG", CmpOp::kLt, 150.0);  // rho = 20
  EXPECT_DOUBLE_EQ(conj(a, b)->robustness(trace, 0, {}), 10.0);
  EXPECT_DOUBLE_EQ(disj(a, b)->robustness(trace, 0, {}), 20.0);
  EXPECT_DOUBLE_EQ(negate(a)->robustness(trace, 0, {}), -10.0);
  // a -> b  ==  max(-rho(a), rho(b)).
  EXPECT_DOUBLE_EQ(implies(a, b)->robustness(trace, 0, {}), 20.0);
}

TEST(Temporal, GloballyAndEventually) {
  const auto trace = make_trace({100.0, 130.0, 140.0, 90.0});
  const auto high = pred("BG", CmpOp::kGt, 120.0);
  EXPECT_TRUE(eventually(Interval{0, 3}, high)->sat(trace, 0));
  EXPECT_FALSE(globally(Interval{0, 3}, high)->sat(trace, 0));
  EXPECT_TRUE(globally(Interval{1, 2}, high)->sat(trace, 0));
  // G over an empty window (beyond trace end) is vacuously true.
  EXPECT_TRUE(globally(Interval{10, 12}, high)->sat(trace, 0));
  EXPECT_FALSE(eventually(Interval{10, 12}, high)->sat(trace, 0));
}

TEST(Temporal, PastOperators) {
  const auto trace = make_trace({140.0, 100.0, 100.0});
  const auto high = pred("BG", CmpOp::kGt, 120.0);
  EXPECT_TRUE(once(Interval{0, 2}, high)->sat(trace, 2));
  EXPECT_FALSE(once(Interval{0, 1}, high)->sat(trace, 2));
  EXPECT_FALSE(historically(Interval{0, 2}, high)->sat(trace, 2));
  EXPECT_TRUE(historically(Interval{0, 1},
                           pred("BG", CmpOp::kLt, 120.0))
                  ->sat(trace, 2));
}

TEST(Temporal, UntilSemantics) {
  // BG low until it goes high at step 2.
  const auto trace = make_trace({100.0, 100.0, 140.0});
  const auto low = pred("BG", CmpOp::kLt, 120.0);
  const auto high = pred("BG", CmpOp::kGt, 120.0);
  EXPECT_TRUE(until(Interval{0, 2}, low, high)->sat(trace, 0));
  EXPECT_FALSE(until(Interval{0, 1}, low, high)->sat(trace, 0));
}

TEST(Temporal, SinceSemantics) {
  // "alarm has held since BG went high".
  Trace trace(5.0);
  trace.set("BG", std::vector<double>{100.0, 140.0, 100.0, 100.0});
  trace.set("alarm", std::vector<double>{0.0, 1.0, 1.0, 1.0});
  const auto high = pred("BG", CmpOp::kGt, 120.0);
  const auto alarm = bool_atom("alarm");
  const auto f = since(Interval{0, Interval::kUnbounded}, alarm, high);
  EXPECT_TRUE(f->sat(trace, 3));
  // Without the alarm staying up, since fails.
  Trace broken(5.0);
  broken.set("BG", std::vector<double>{100.0, 140.0, 100.0, 100.0});
  broken.set("alarm", std::vector<double>{0.0, 1.0, 0.0, 1.0});
  EXPECT_FALSE(since(Interval{0, Interval::kUnbounded}, bool_atom("alarm"),
                     pred("BG", CmpOp::kGt, 120.0))
                   ->sat(broken, 3));
}

TEST(TraceRobustness, EqualsWorstSample) {
  const auto trace = make_trace({130.0, 125.0, 121.0});
  const auto high = pred("BG", CmpOp::kGt, 120.0);
  EXPECT_DOUBLE_EQ(trace_robustness(*high, trace), 1.0);
}

// --- Parser ------------------------------------------------------------------

TEST(Parser, ParsesTableOneShape) {
  const auto f = parse_formula(
      "G[0,end]((BG > 120 and BG_rate > 0 and IOB < {beta1}) -> !u1)");
  std::set<std::string> params;
  f->collect_params(params);
  EXPECT_EQ(params, std::set<std::string>{"beta1"});

  Trace safe(5.0);
  safe.set("BG", std::vector<double>{150.0, 150.0});
  safe.set("BG_rate", std::vector<double>{1.0, 1.0});
  safe.set("IOB", std::vector<double>{0.5, 0.5});
  safe.set("u1", std::vector<double>{0.0, 0.0});
  // Safe while u1 is never issued in the unsafe context...
  EXPECT_TRUE(f->sat(safe, 0, {{"beta1", 1.0}}));
  // ...violated (G fails at time 0) once it is issued anywhere.
  Trace violated(5.0);
  violated.set("BG", std::vector<double>{150.0, 150.0});
  violated.set("BG_rate", std::vector<double>{1.0, 1.0});
  violated.set("IOB", std::vector<double>{0.5, 0.5});
  violated.set("u1", std::vector<double>{0.0, 1.0});
  EXPECT_FALSE(f->sat(violated, 0, {{"beta1", 1.0}}));
}

TEST(Parser, OperatorsAndPrecedence) {
  const auto trace = make_trace({130.0});
  EXPECT_TRUE(parse_formula("BG > 100 and BG < 150 or false")->sat(trace, 0));
  EXPECT_TRUE(parse_formula("not (BG < 100)")->sat(trace, 0));
  EXPECT_TRUE(parse_formula("BG < 100 -> false")->sat(trace, 0));
  EXPECT_TRUE(parse_formula("F[0,0] BG > 100")->sat(trace, 0));
  EXPECT_TRUE(parse_formula("true U[0,0] BG > 100")->sat(trace, 0));
}

TEST(Parser, RoundTripsThroughPrinter) {
  const char* text =
      "G[0,end]((BG > 120 and IOB < {beta9}) -> !u3)";
  const auto f = parse_formula(text);
  // Printing then reparsing yields an equivalent formula.
  const auto g = parse_formula(f->to_string());
  Trace trace(5.0);
  trace.set("BG", std::vector<double>{150.0});
  trace.set("IOB", std::vector<double>{0.2});
  trace.set("u3", std::vector<double>{1.0});
  const ParamMap params{{"beta9", 1.0}};
  EXPECT_EQ(f->sat(trace, 0, params), g->sat(trace, 0, params));
}

TEST(Parser, RejectsMalformedInput) {
  EXPECT_THROW(parse_formula("BG >"), ParseError);
  EXPECT_THROW(parse_formula("G[3,1] true"), ParseError);
  EXPECT_THROW(parse_formula("(BG > 1"), ParseError);
  EXPECT_THROW(parse_formula("BG = 100"), ParseError);
  EXPECT_THROW(parse_formula("BG > {unterminated"), ParseError);
  EXPECT_THROW(parse_formula("BG > 100 trailing"), ParseError);
}

// --- Property sweep: boolean satisfaction iff robustness >= 0 ------------------

class RobustnessConsistency : public ::testing::TestWithParam<int> {};

TEST_P(RobustnessConsistency, SignMatchesSatisfaction) {
  const int seed = GetParam();
  // Deterministic pseudo-random trace and threshold from the seed.
  std::vector<double> bg;
  double x = 100.0 + 7.0 * seed;
  for (int i = 0; i < 20; ++i) {
    x = 80.0 + std::fmod(x * 1.37 + 11.0, 140.0);
    bg.push_back(x);
  }
  const auto trace = make_trace(bg);
  const double threshold = 90.0 + 5.0 * seed;
  const auto atom = pred("BG", CmpOp::kGt, threshold);
  const auto formulas = {
      globally(Interval{0, 4}, atom), eventually(Interval{1, 6}, atom),
      once(Interval{0, 3}, atom), historically(Interval{0, 2}, atom),
      implies(atom, eventually(Interval{0, 2}, negate(atom)))};
  for (const auto& f : formulas) {
    for (int k = 0; k < 20; ++k) {
      const double rho = f->robustness(trace, k, {});
      EXPECT_EQ(rho >= 0.0, f->sat(trace, k))
          << "seed=" << seed << " k=" << k << " formula=" << f->to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RobustnessConsistency,
                         ::testing::Range(0, 8));

}  // namespace
