// Scenario engine: spec distributions, deterministic sampling, streaming
// executor vs the materializing grid path, likelihood ratios, and the
// cross-entropy rare-event estimator vs crude Monte Carlo.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "scenario/cross_entropy.h"
#include "scenario/executor.h"
#include "scenario/spec.h"
#include "sim/runner.h"
#include "sim/stack.h"

namespace {

using namespace aps;
using namespace aps::scenario;

// --- Distributions -------------------------------------------------------------------

TEST(Dists, RangeSplitsIntoContiguousCells) {
  const auto dist = ValueDist::range(0.0, 10.0, 4);
  ASSERT_EQ(dist.cells.size(), 4u);
  EXPECT_DOUBLE_EQ(dist.cells.front().lo, 0.0);
  EXPECT_DOUBLE_EQ(dist.cells.back().hi, 10.0);
  for (std::size_t c = 1; c < dist.cells.size(); ++c) {
    EXPECT_DOUBLE_EQ(dist.cells[c].lo, dist.cells[c - 1].hi);
  }
  EXPECT_FALSE(dist.is_points());
  EXPECT_TRUE(ValueDist::points({1.0, 2.0}).is_points());

  const auto ints = IntDist::range(1, 10, 3);
  ASSERT_EQ(ints.cells.size(), 3u);
  EXPECT_EQ(ints.cells.front().lo, 1);
  EXPECT_EQ(ints.cells.back().hi, 10);
  int covered = 0;
  for (const auto& cell : ints.cells) covered += cell.hi - cell.lo + 1;
  EXPECT_EQ(covered, 10);
}

// --- Sampling ------------------------------------------------------------------------

ScenarioSpec small_spec() {
  ScenarioSpec spec = default_stochastic_spec(3);
  spec.steps = 60;
  return spec;
}

TEST(Sampling, DeterministicPerIndexAndOrderIndependent) {
  const auto spec = small_spec();
  const auto a = sample_scenario(spec, 7, 42);
  (void)sample_scenario(spec, 3, 42);  // unrelated draw in between
  const auto b = sample_scenario(spec, 7, 42);
  EXPECT_EQ(a.patient_index, b.patient_index);
  EXPECT_EQ(a.config.fault.name(), b.config.fault.name());
  EXPECT_EQ(a.config.fault.start_step, b.config.fault.start_step);
  EXPECT_EQ(a.config.fault.duration_steps, b.config.fault.duration_steps);
  EXPECT_DOUBLE_EQ(a.config.fault.magnitude, b.config.fault.magnitude);
  EXPECT_DOUBLE_EQ(a.config.initial_bg, b.config.initial_bg);
  EXPECT_EQ(a.config.cgm_seed, b.config.cgm_seed);
  // Different index / different campaign seed -> different streams.
  const auto c = sample_scenario(spec, 8, 42);
  const auto d = sample_scenario(spec, 7, 43);
  EXPECT_TRUE(c.config.cgm_seed != a.config.cgm_seed ||
              c.config.initial_bg != a.config.initial_bg);
  EXPECT_NE(d.config.cgm_seed, a.config.cgm_seed);
}

TEST(Sampling, RespectsSpecSupport) {
  auto spec = small_spec();
  spec.fault_prob = 1.0;
  std::set<int> patients;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const auto s = sample_scenario(spec, i, 11);
    patients.insert(s.patient_index);
    ASSERT_TRUE(s.draw.has_fault);
    ASSERT_TRUE(s.config.fault.enabled());
    EXPECT_GE(s.config.fault.start_step, 10);
    EXPECT_LE(s.config.fault.start_step, 90);
    EXPECT_GE(s.config.fault.duration_steps, 6);
    EXPECT_LE(s.config.fault.duration_steps, 72);
    EXPECT_GE(s.config.initial_bg, 70.0);
    EXPECT_LE(s.config.initial_bg, 220.0);
  }
  EXPECT_EQ(patients.size(), 3u);  // whole cohort drawn

  spec.fault_prob = 0.0;
  spec.meal_prob = 0.0;
  for (std::uint64_t i = 0; i < 20; ++i) {
    const auto s = sample_scenario(spec, i, 11);
    EXPECT_FALSE(s.draw.has_fault);
    EXPECT_FALSE(s.config.fault.enabled());
    EXPECT_TRUE(s.config.meals.empty());
  }
}

void expect_same_scenario(const SampledScenario& a, const SampledScenario& b,
                          std::uint64_t index) {
  ASSERT_EQ(a.index, b.index) << index;
  ASSERT_EQ(a.patient_index, b.patient_index) << index;
  ASSERT_EQ(a.config.steps, b.config.steps) << index;
  ASSERT_EQ(a.config.initial_bg, b.config.initial_bg) << index;
  ASSERT_EQ(a.config.fault.type, b.config.fault.type) << index;
  ASSERT_EQ(a.config.fault.target, b.config.fault.target) << index;
  ASSERT_EQ(a.config.fault.magnitude, b.config.fault.magnitude) << index;
  ASSERT_EQ(a.config.fault.start_step, b.config.fault.start_step) << index;
  ASSERT_EQ(a.config.fault.duration_steps, b.config.fault.duration_steps)
      << index;
  ASSERT_EQ(a.config.cgm_seed, b.config.cgm_seed) << index;
  ASSERT_EQ(a.config.cgm.noise_std_mg_dl, b.config.cgm.noise_std_mg_dl)
      << index;
  ASSERT_EQ(a.config.meals.size(), b.config.meals.size()) << index;
  for (std::size_t m = 0; m < a.config.meals.size(); ++m) {
    ASSERT_EQ(a.config.meals[m].step, b.config.meals[m].step) << index;
    ASSERT_EQ(a.config.meals[m].carbs_g, b.config.meals[m].carbs_g) << index;
  }
  ASSERT_EQ(a.draw.patient_cell, b.draw.patient_cell) << index;
  ASSERT_EQ(a.draw.has_fault, b.draw.has_fault) << index;
  ASSERT_EQ(a.draw.kind, b.draw.kind) << index;
  ASSERT_EQ(a.draw.start_cell, b.draw.start_cell) << index;
  ASSERT_EQ(a.draw.duration_cell, b.draw.duration_cell) << index;
  ASSERT_EQ(a.draw.magnitude_cell, b.draw.magnitude_cell) << index;
  ASSERT_EQ(a.draw.bg_cell, b.draw.bg_cell) << index;
  ASSERT_EQ(a.draw.has_meal, b.draw.has_meal) << index;
  ASSERT_EQ(a.draw.carbs_cell, b.draw.carbs_cell) << index;
  ASSERT_EQ(a.draw.meal_step_cell, b.draw.meal_step_cell) << index;
}

TEST(Sampling, EveryFieldInvariantUnderEvaluationOrder) {
  // Scenario i of seed s is a pure function: drawing the campaign forward,
  // backward, or with interleaved unrelated draws must produce identical
  // configs and identical cell assignments for every index.
  const auto spec = small_spec();
  constexpr std::uint64_t kCount = 300;
  constexpr std::uint64_t kSeed = 99;
  std::vector<SampledScenario> forward;
  forward.reserve(kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) {
    forward.push_back(sample_scenario(spec, i, kSeed));
  }
  for (std::uint64_t i = kCount; i-- > 0;) {
    expect_same_scenario(forward[i], sample_scenario(spec, i, kSeed), i);
  }
  for (std::uint64_t i = 0; i < kCount; i += 3) {
    (void)sample_scenario(spec, i + 1, kSeed ^ 0xdead);  // unrelated draws
    expect_same_scenario(forward[i], sample_scenario(spec, i, kSeed), i);
  }
}

TEST(Sampling, RunIdentityInvariantUnderShardCountAndExecutionOrder) {
  // Through the executor: run i must be the *same run* (same trace, not
  // just the same aggregate) whatever the shard layout or worker count
  // that happened to execute it.
  const auto stack = sim::glucosym_openaps_stack();
  const auto spec = small_spec();
  constexpr std::size_t kCount = 90;
  constexpr std::uint64_t kSeed = 12345;

  // Per run: the BG trace, then the delivered rates.
  const auto collect = [&](std::size_t shard_size, std::size_t threads) {
    std::vector<std::vector<double>> traces(kCount);
    ThreadPool pool(threads);
    sim::for_each_run(
        stack, kCount,
        [&](std::size_t i) {
          const auto scenario = sample_scenario(spec, i, kSeed);
          return sim::RunRequest{scenario.patient_index, scenario.config};
        },
        sim::null_monitor_factory(),
        [&](std::size_t, std::size_t i, const sim::SimResult& run) {
          traces[i] = run.bg_trace();
          for (const auto& step : run.steps) {
            traces[i].push_back(step.delivered_rate);
          }
        },
        threads > 1 ? &pool : nullptr, {.shard_size = shard_size});
    return traces;
  };

  const auto reference = collect(64, 1);
  for (const std::size_t shard_size : {std::size_t{1}, std::size_t{13},
                                       std::size_t{1000}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      EXPECT_EQ(collect(shard_size, threads), reference)
          << "shard=" << shard_size << " threads=" << threads;
    }
  }
}

TEST(Sampling, CoversControllerIobTarget) {
  const auto spec = default_stochastic_spec(2);
  bool saw_iob = false;
  for (std::uint64_t i = 0; i < 400 && !saw_iob; ++i) {
    const auto s = sample_scenario(spec, i, 5);
    saw_iob = s.config.fault.target == fi::FaultTarget::kControllerIob;
  }
  EXPECT_TRUE(saw_iob);
}

// --- Grid equivalence ----------------------------------------------------------------

TEST(GridSpec, EnumerationMatchesCampaignGrid) {
  const auto grid = fi::CampaignGrid::full();
  const auto reference = fi::enumerate_scenarios(grid);
  const auto spec = spec_from_grid(grid, 10);
  ASSERT_TRUE(spec.enumerable());
  const auto enumerated = enumerate_spec(spec);
  ASSERT_EQ(enumerated.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(enumerated[i].config.fault.name(), reference[i].fault.name());
    EXPECT_EQ(enumerated[i].config.fault.start_step,
              reference[i].fault.start_step);
    EXPECT_EQ(enumerated[i].config.fault.duration_steps,
              reference[i].fault.duration_steps);
    EXPECT_DOUBLE_EQ(enumerated[i].config.fault.magnitude,
                     reference[i].fault.magnitude);
    EXPECT_DOUBLE_EQ(enumerated[i].config.initial_bg,
                     reference[i].initial_bg);
  }
}

TEST(GridSpec, ExtendedGridCoversIobTarget) {
  const auto grid = fi::CampaignGrid::extended();
  const auto scenarios = fi::enumerate_scenarios(grid);
  EXPECT_EQ(scenarios.size(), 1323u);  // 21 kinds x 9 windows x 7 BGs
  bool saw_iob = false;
  for (const auto& s : scenarios) {
    if (s.fault.target == fi::FaultTarget::kControllerIob) {
      saw_iob = true;
      EXPECT_DOUBLE_EQ(s.fault.magnitude, grid.iob_magnitude);
    }
  }
  EXPECT_TRUE(saw_iob);
}

// --- Streaming executor --------------------------------------------------------------

TEST(Executor, ShardingDoesNotChangeAggregates) {
  const auto stack = sim::glucosym_openaps_stack();
  auto spec = small_spec();
  spec.patients = {2, 8};
  StochasticCampaignConfig config;
  config.runs = 120;
  config.seed = 7;
  config.streaming.shard_size = 1;
  ThreadPool pool(2);
  const auto fine = run_stochastic_campaign(stack, spec, config,
                                            sim::null_monitor_factory(),
                                            &pool);
  config.streaming.shard_size = 1000;
  const auto coarse = run_stochastic_campaign(stack, spec, config,
                                              sim::null_monitor_factory(),
                                              nullptr);
  EXPECT_EQ(fine.runs, coarse.runs);
  EXPECT_EQ(fine.hazardous_runs, coarse.hazardous_runs);
  EXPECT_EQ(fine.alarmed_runs, coarse.alarmed_runs);
  EXPECT_EQ(fine.severe_hypo_runs, coarse.severe_hypo_runs);
  EXPECT_NEAR(fine.min_bg.mean(), coarse.min_bg.mean(), 1e-9);
  EXPECT_NEAR(fine.min_bg.variance(), coarse.min_bg.variance(), 1e-9);
  EXPECT_NEAR(fine.severity.mean(), coarse.severity.mean(), 1e-9);
  EXPECT_EQ(fine.time_to_hazard_min.total(), coarse.time_to_hazard_min.total());
  EXPECT_EQ(fine.time_to_hazard_min.counts(),
            coarse.time_to_hazard_min.counts());
  ASSERT_EQ(fine.by_kind.size(), coarse.by_kind.size());
  for (const auto& [name, stats] : fine.by_kind) {
    const auto it = coarse.by_kind.find(name);
    ASSERT_NE(it, coarse.by_kind.end()) << name;
    EXPECT_EQ(stats.hazards, it->second.hazards) << name;
    EXPECT_EQ(stats.tp + stats.fp + stats.fn + stats.tn, stats.runs);
  }
}

TEST(Executor, EnumeratedMatchesMaterializedCampaign) {
  const auto stack = sim::glucosym_openaps_stack();
  auto grid = fi::CampaignGrid::quick();
  grid.types = {fi::FaultType::kMax, fi::FaultType::kTruncate};
  const std::vector<int> patients = {1, 5};

  const auto campaign = sim::run_campaign(
      stack, fi::enumerate_scenarios(grid), sim::null_monitor_factory(), {},
      nullptr, patients);
  std::size_t expected_hazards = 0;
  for (const auto* run : campaign.flat()) {
    if (run->label.hazardous) ++expected_hazards;
  }

  auto spec = spec_from_grid(grid, 10);
  spec.patients = patients;
  const auto stats = run_enumerated_campaign(stack, spec, {},
                                             sim::null_monitor_factory());
  EXPECT_EQ(stats.runs, campaign.total_runs());
  EXPECT_EQ(stats.hazardous_runs, expected_hazards);
}

// --- Likelihood ratios ---------------------------------------------------------------

TEST(LikelihoodRatio, UnityForIdenticalSpecs) {
  const auto spec = small_spec();
  for (std::uint64_t i = 0; i < 50; ++i) {
    const auto s = sample_scenario(spec, i, 3);
    EXPECT_DOUBLE_EQ(likelihood_ratio(spec, spec, s.draw), 1.0);
  }
}

TEST(LikelihoodRatio, TiltedWeightsAverageToOne) {
  const auto nominal = small_spec();
  auto tilted = nominal;
  // Skew duration and kind mass; E_q[p/q] must stay 1.
  tilted.duration_steps.cells.front().weight = 5.0;
  tilted.kind_weights.front() = 10.0;
  tilted.fault_prob = 0.95;
  double sum = 0.0;
  const std::uint64_t n = 20000;
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto s = sample_scenario(tilted, i, 123);
    sum += likelihood_ratio(nominal, tilted, s.draw);
  }
  EXPECT_NEAR(sum / static_cast<double>(n), 1.0, 0.05);
}

TEST(LikelihoodRatio, StructuralMismatchThrows) {
  const auto nominal = small_spec();
  auto other = nominal;
  other.duration_steps = IntDist::range(6, 72, 3);  // different boundaries
  const auto s = sample_scenario(nominal, 0, 1);
  EXPECT_THROW((void)likelihood_ratio(other, nominal, s.draw),
               std::invalid_argument);
}

// --- Cross-entropy estimator (acceptance) --------------------------------------------

TEST(CrossEntropy, AgreesWithCrudeMonteCarloWithinCi) {
  const auto stack = sim::glucosym_openaps_stack();
  ThreadPool pool;

  // Mild-fault nominal distribution: hazards are uncommon (~3%) so crude
  // MC needs several thousand runs for a stable reference.
  auto nominal = default_stochastic_spec(stack.cohort_size);
  nominal.fault_prob = 0.4;
  nominal.duration_steps = IntDist::range(2, 30, 4);
  nominal.magnitude_scale = ValueDist::range(0.1, 1.0, 4);
  nominal.initial_bg = ValueDist::range(90.0, 180.0, 5);
  nominal.meal_prob = 0.0;
  nominal.cgm_noise_std = 0.0;

  StochasticCampaignConfig crude;
  crude.runs = 6000;
  crude.seed = 99;
  const auto mc = run_stochastic_campaign(stack, nominal, crude,
                                          sim::null_monitor_factory(), &pool);
  const double mc_p = mc.hazard_rate();
  const double mc_se = mc.weighted_std_error();
  ASSERT_GT(mc_p, 0.0);
  ASSERT_LT(mc_p, 0.2);

  CrossEntropyConfig ce;
  ce.iterations = 3;
  ce.pilot_runs = 500;
  ce.final_runs = 2000;
  ce.seed = 7;
  const auto estimate = estimate_hazard_probability(
      stack, nominal, sim::null_monitor_factory(), ce, &pool);

  // The tilted campaign must actually oversample the event region...
  EXPECT_GT(estimate.final_stats.hazard_rate(), 2.0 * mc_p);
  EXPECT_GT(estimate.effective_sample_size, 50.0);
  // ...while the likelihood-ratio estimate stays unbiased: the two
  // estimates agree within their joint 95% interval (acceptance criterion).
  const double joint =
      1.96 * std::sqrt(mc_se * mc_se + estimate.std_error * estimate.std_error);
  EXPECT_NEAR(estimate.probability, mc_p, joint);
  // And the crude estimate falls inside the CE estimate's reported CI
  // widened by the crude estimate's own uncertainty.
  EXPECT_GE(mc_p, estimate.ci_low - 1.96 * mc_se);
  EXPECT_LE(mc_p, estimate.ci_high + 1.96 * mc_se);
  EXPECT_EQ(estimate.total_runs,
            ce.pilot_runs * static_cast<std::size_t>(ce.iterations) +
                ce.final_runs);
}

}  // namespace
