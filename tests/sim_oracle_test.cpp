// The simulation plane against its reference (sim_oracle.h): each target
// runs seeded campaign cases and must match the reference field for
// field; a failure prints the shrunk reproducer. Seeds derive from gtest's
// random seed: 0 without --gtest_shuffle (a fixed set), a fresh printed
// seed per --gtest_repeat iteration with it. Reproduce a failing iteration
// with --gtest_shuffle --gtest_random_seed=<the printed gtest seed>.
#include <gtest/gtest.h>

#include <array>
#include <ostream>
#include <set>
#include <string>

#include "sim_oracle.h"

namespace aps::sim_oracle {
/// Parameters print as their target name in gtest output.
inline void PrintTo(const Target& target, std::ostream* os) {
  *os << target.name;
}
}  // namespace aps::sim_oracle

namespace {

using namespace aps::sim_oracle;

constexpr std::uint64_t kCasesPerTarget = 16;

std::uint64_t gtest_seed() {
  return static_cast<std::uint64_t>(
      ::testing::UnitTest::GetInstance()->random_seed());
}

Case minimize(const Target& target, const Case& c) {
  return shrink(c, [&](const Case& t) { return !target.check(t).empty(); });
}

class SimOracle : public ::testing::TestWithParam<Target> {};

TEST_P(SimOracle, MatchesTheReference) {
  const Target& target = GetParam();
  for (std::uint64_t k = 0; k < kCasesPerTarget; ++k) {
    const std::uint64_t seed = gtest_seed() * kCasesPerTarget + k;
    const Case c = generate(seed);
    const std::string failure = target.check(c);
    if (failure.empty()) continue;
    const Case minimal = minimize(target, c);
    FAIL() << target.name << " diverged (gtest random seed " << gtest_seed()
           << ", case seed " << seed << "): " << failure
           << "\nminimal reproducer, " << minimal.requests.size()
           << " requests: " << target.check(minimal) << "\n"
           << describe(minimal);
  }
}

INSTANTIATE_TEST_SUITE_P(Targets, SimOracle, ::testing::ValuesIn(targets()),
                         [](const auto& info) { return info.param.name; });

/// A generator change cannot silently drop a corner of the case space.
TEST(SimOracleCoverage, FixedSeedSetReachesEveryCorner) {
  if (gtest_seed() != 0) GTEST_SKIP() << "pinned for the fixed seed set";
  std::set<int> stacks;
  std::set<std::string> monitors;
  bool mitigated = false, mixed_horizons = false, meal = false;
  bool threads4 = false;
  // Per campaign target: some reference campaign with hazards and alarms,
  // so its by-kind, time-to-hazard and alarm fields are really compared.
  std::array<bool, 2> campaign_hazards_and_alarms{};
  for (std::uint64_t seed = 0; seed < kCasesPerTarget; ++seed) {
    const Case c = generate(seed);
    stacks.insert(c.stack);
    monitors.insert(c.monitor);
    threads4 |= c.threads == 4;
    for (std::size_t i = 1; i < c.requests.size(); ++i) {
      mixed_horizons |= i % c.shard_size != 0 &&
                        c.requests[i].config.steps !=
                            c.requests[i - 1].config.steps;
    }
    for (const auto& run : library_runs(c)) {
      for (const aps::sim::MealEvent& m : run.result.config.meals) {
        meal |= m.step < run.result.config.steps;
      }
      for (const aps::sim::StepRecord& s : run.result.steps) {
        mitigated |= s.alarm && s.delivered_rate != s.commanded_rate;
      }
    }
    for (const bool enumerated : {false, true}) {
      const auto stats = campaign(c, enumerated, /*reference=*/true);
      campaign_hazards_and_alarms[enumerated] |=
          stats.hazardous_runs > 0 && stats.alarmed_runs > 0;
    }
  }
  EXPECT_EQ(stacks.size(), std::size_t{kStacks});
  EXPECT_EQ(monitors.size(), std::size_t{kKinds});
  EXPECT_TRUE(mitigated) << "no alarm changed a delivered rate";
  EXPECT_TRUE(mixed_horizons) << "no shard mixed horizons";
  EXPECT_TRUE(meal);
  EXPECT_TRUE(threads4);
  EXPECT_TRUE(campaign_hazards_and_alarms[0]) << "stochastic";
  EXPECT_TRUE(campaign_hazards_and_alarms[1]) << "enumerated";
}

TEST(SimOracleSelfTest, ReportsAPerturbedRunAndShrinksToTwoRequests) {
  const Case c = generate(7);
  ASSERT_GE(c.requests.size(), 4u);
  const std::size_t at = c.requests.size() / 2;
  // for_each_run with one delivered rate changed in the run that carries
  // the seeded request's CGM seed, wherever that request sits.
  const std::uint64_t trigger = c.requests[at].config.cgm_seed;
  const Target target{"perturbed", [&](const Case& t) {
                        auto runs = library_runs(t);
                        for (auto& run : runs) {
                          if (run.result.config.cgm_seed == trigger) {
                            run.result.steps.front().delivered_rate += 0.5;
                          }
                        }
                        return diff_runs(t, runs);
                      }};
  const std::string failure = target.check(c);
  EXPECT_EQ(failure.rfind(str("request ", at, ", line 1: step 0"), 0), 0u)
      << failure;
  EXPECT_NE(failure.find("delivered"), std::string::npos) << failure;
  const Case minimal = minimize(target, c);
  EXPECT_LE(minimal.requests.size(), 2u) << describe(minimal);
  EXPECT_FALSE(target.check(minimal).empty());
}

}  // namespace
