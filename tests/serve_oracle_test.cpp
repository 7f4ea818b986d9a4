// The serving plane against its scalar reference (serve_oracle.h): each
// target replays seeded operation sequences and must match the reference
// decision for decision, outcome for outcome and counter for counter; a
// failure prints the shrunk reproducer. Seeds derive from gtest's random
// seed: 0 without --gtest_shuffle (a fixed set), a fresh printed seed per
// --gtest_repeat iteration with it. Reproduce a failing iteration with
// --gtest_shuffle --gtest_random_seed=<the printed gtest seed>.
#include <gtest/gtest.h>

#include <ostream>

#include "serve_oracle.h"

namespace aps::oracle {
/// Parameters print as their target name in gtest output.
inline void PrintTo(const Spec& spec, std::ostream* os) { *os << spec.name; }
}  // namespace aps::oracle

namespace {

using namespace aps;
using oracle::Caps;
using oracle::Spec;

constexpr std::uint64_t kSequencesPerTarget = 8;

std::vector<Spec> targets() {
  const auto group = [](std::size_t replicas) {
    return [=] { return oracle::group_target(replicas); };
  };
  const Caps group_caps{.shed = true};
  return {
      {"engine", {},
       [] { return oracle::engine_target(monitor::Precision::kF64); }},
      // Zero decision flips at float32; each restore flips the precision.
      {"engine_f32", {.hostile = false},
       [] { return oracle::engine_target(monitor::Precision::kF32, true); }},
      {"group1", group_caps, group(1)},
      {"group2", group_caps, group(2)},
      {"group8", group_caps, group(8)},
      {"tcp_replay",
       {.reload = false, .reset = false, .restore = false, .degrade = false,
        .door = true},
       [] { return std::make_unique<oracle::TcpTarget>(); }},
  };
}

class ServeOracle : public ::testing::TestWithParam<Spec> {};

TEST_P(ServeOracle, MatchesTheScalarReference) {
  const Spec& spec = GetParam();
  const auto base = static_cast<std::uint64_t>(
      ::testing::UnitTest::GetInstance()->random_seed());
  for (std::uint64_t k = 0; k < kSequencesPerTarget; ++k) {
    const std::uint64_t seed = base * kSequencesPerTarget + k;
    const oracle::Ops ops = oracle::generate(seed);
    const std::string failure = oracle::run(ops, spec);
    if (failure.empty()) continue;
    const oracle::Ops minimal =
        oracle::shrink(ops, [&](const oracle::Ops& trial) {
          return !oracle::run(trial, spec).empty();
        });
    FAIL() << spec.name << " diverged (gtest random seed " << base
           << ", sequence seed " << seed << "): " << failure
           << "\nminimal reproducer, " << minimal.size()
           << " ops: " << oracle::run(minimal, spec) << "\n"
           << oracle::describe(minimal);
  }
}

INSTANTIATE_TEST_SUITE_P(Targets, ServeOracle, ::testing::ValuesIn(targets()),
                         [](const auto& info) { return info.param.name; });

/// An f64 engine that flips the decision for one observation (matched on
/// its random bg), wherever in the sequence it arrives.
class FlipOne final : public oracle::PlaneTarget<serve::MonitorEngine> {
 public:
  explicit FlipOne(monitor::Observation trigger)
      : PlaneTarget([](obs::Registry* registry, int) {
          return std::make_unique<serve::MonitorEngine>(
              serve::EngineConfig{.registry = registry});
        }),
        trigger_(trigger) {}
  void feed(std::span<const serve::SessionInput> inputs,
            std::span<monitor::Decision> decisions,
            std::span<serve::TickOutcome> outcomes) override {
    PlaneTarget::feed(inputs, decisions, outcomes);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (inputs[i].obs.bg == trigger_.bg) {
        decisions[i].alarm = !decisions[i].alarm;
      }
    }
  }

 private:
  monitor::Observation trigger_;
};

TEST(ServeOracleSelfTest, ReportsAFlippedDecisionAndShrinksToTwoOps) {
  const oracle::Ops ops = oracle::generate(7);
  // The seeded operation: the 20th feed, whose first input gets flipped.
  std::size_t at = 0;
  for (std::size_t feeds = 0; at < ops.size(); ++at) {
    if (ops[at].kind == oracle::OpKind::kFeed && ++feeds == 20) break;
  }
  ASSERT_LT(at, ops.size());
  ASSERT_FALSE(ops[at].inputs.front().hostile);
  const monitor::Observation trigger = ops[at].inputs.front().obs;
  const Spec spec{"flip", {},
                  [&] { return std::make_unique<FlipOne>(trigger); }};

  const std::string failure = oracle::run(ops, spec);
  EXPECT_EQ(failure.rfind("op " + std::to_string(at) + ": input", 0), 0u)
      << failure;
  EXPECT_NE(failure.find("decision"), std::string::npos) << failure;

  // Minimal: the trigger session's open plus a one-input feed.
  const oracle::Ops minimal = oracle::shrink(ops, [&](const oracle::Ops& t) {
    return !oracle::run(t, spec).empty();
  });
  EXPECT_LE(minimal.size(), 2u) << oracle::describe(minimal);
  EXPECT_FALSE(oracle::run(minimal, spec).empty());
}

}  // namespace
