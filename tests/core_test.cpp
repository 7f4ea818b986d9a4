// Core framework: SCS structure and STL export, violation-data extraction,
// threshold pipeline, monitor synthesis, and ML dataset builders.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/monitor_factory.h"
#include "core/scs.h"
#include "core/threshold_pipeline.h"
#include "monitor/ml_monitor.h"
#include "sim/stack.h"
#include "stl/parser.h"

namespace {

using namespace aps;

// --- SCS ------------------------------------------------------------------------

TEST(Scs, ApsInstantiationStructure) {
  const auto scs = core::aps_scs();
  EXPECT_EQ(scs.accidents().size(), 2u);
  EXPECT_EQ(scs.hazards().size(), 2u);
  EXPECT_EQ(scs.ucas().size(), 12u);
  EXPECT_EQ(scs.hms().size(), 2u);
  // Each hazard maps to a known accident.
  for (const auto& hazard : scs.hazards()) {
    EXPECT_TRUE(hazard.accident_id == "A1" || hazard.accident_id == "A2");
  }
}

TEST(Scs, TwelveFreeParameters) {
  const auto scs = core::aps_scs();
  const auto params = scs.free_parameters();
  EXPECT_EQ(params.size(), 12u);  // beta1..beta11 + beta21
}

TEST(Scs, UcasFormulasPrintAndReparse) {
  const auto scs = core::aps_scs();
  for (std::size_t i = 0; i < scs.ucas().size(); ++i) {
    const auto formula = scs.ucas_formula(i);
    ASSERT_NE(formula, nullptr);
    const std::string text = formula->to_string();
    EXPECT_NE(text.find("G["), std::string::npos) << text;
    // The printed formula must itself be parseable (round-trip property),
    // except for the "end" bound which the printer renders as G[0,end].
    EXPECT_NO_THROW((void)stl::parse_formula(text)) << text;
  }
  EXPECT_THROW((void)scs.ucas_formula(99), std::out_of_range);
}

TEST(Scs, HmsFormulaHasSinceShape) {
  const auto scs = core::aps_scs();
  const auto formula = scs.hms_formula(0);
  const std::string text = formula->to_string();
  EXPECT_NE(text.find(" S["), std::string::npos) << text;
  EXPECT_NE(text.find("F[0,1]"), std::string::npos) << text;
}

// --- Extraction & learning pipeline ------------------------------------------------

class PipelineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    stack_ = new sim::Stack(sim::glucosym_openaps_stack());
    // Small campaign on one fragile patient with overdose + starvation
    // faults so both H1 and H2 rules receive violation data.
    fi::CampaignGrid grid;
    grid.types = {fi::FaultType::kMax, fi::FaultType::kTruncate,
                  fi::FaultType::kSub};
    grid.targets = {fi::FaultTarget::kCommandRate};
    grid.start_steps = {20, 50};
    grid.duration_steps = {40};
    grid.initial_bgs = {100.0, 150.0};
    campaign_ = new sim::CampaignResult(
        sim::run_campaign(*stack_, fi::enumerate_scenarios(grid),
                          sim::null_monitor_factory(), {}, nullptr, {8}));
  }
  static void TearDownTestSuite() {
    delete campaign_;
    delete stack_;
  }

  static sim::Stack* stack_;
  static sim::CampaignResult* campaign_;
};

sim::Stack* PipelineFixture::stack_ = nullptr;
sim::CampaignResult* PipelineFixture::campaign_ = nullptr;

TEST_F(PipelineFixture, CampaignProducesBothHazardClasses) {
  bool h1 = false, h2 = false;
  for (const auto* run : campaign_->flat()) {
    if (!run->label.hazardous) continue;
    h1 |= run->label.type == HazardType::kH1TooMuchInsulin;
    h2 |= run->label.type == HazardType::kH2TooLittleInsulin;
  }
  EXPECT_TRUE(h1);
  EXPECT_TRUE(h2);
}

TEST_F(PipelineFixture, ExtractionFindsViolationData) {
  const auto profiles = core::stack_profiles(*stack_);
  monitor::CawConfig config;
  std::vector<const sim::SimResult*> runs;
  for (const auto& r : campaign_->by_patient[0]) runs.push_back(&r);
  const auto datasets = core::extract_rule_datasets(
      runs, config, profiles[8].basal_rate, profiles[8].isf);
  EXPECT_FALSE(datasets.empty());
  for (const auto& [param, values] : datasets) {
    EXPECT_FALSE(values.empty()) << param;
    for (const double v : values) EXPECT_GE(v, 0.0) << param;
  }
}

TEST_F(PipelineFixture, LearnedThresholdsCoverViolations) {
  const auto profiles = core::stack_profiles(*stack_);
  monitor::CawConfig config;
  std::vector<const sim::SimResult*> runs;
  for (const auto& r : campaign_->by_patient[0]) runs.push_back(&r);
  const auto datasets = core::extract_rule_datasets(
      runs, config, profiles[8].basal_rate, profiles[8].isf);
  const auto defaults = monitor::default_thresholds(2.0);
  const auto learned = core::learn_thresholds(datasets, defaults);
  for (const auto& rule : monitor::caw_rules()) {
    const auto it = datasets.find(rule.param);
    if (it == datasets.end()) continue;
    const auto diag = learned.diagnostics.find(rule.param);
    ASSERT_NE(diag, learned.diagnostics.end()) << rule.param;
    // The box may clamp rule 10's BG threshold; IOB rules must cover.
    if (rule.subject == monitor::RuleSubject::kIob) {
      EXPECT_GE(diag->second.min_margin, -1e-6) << rule.param;
    }
  }
}

TEST_F(PipelineFixture, UnevidencedRulesAreSilenced) {
  const auto defaults = monitor::default_thresholds(2.0);
  const auto learned = core::learn_thresholds({}, defaults);
  // With no data at all, every rule is parked beyond its firing side.
  monitor::CawConfig config;
  config.thresholds = learned.values;
  monitor::CawMonitor cawt(config);
  monitor::Observation obs;
  obs.bg = 150.0;
  obs.bg_rate = 3.0;
  obs.iob = 1.0;
  obs.iob_rate = -0.1;
  obs.action = ControlAction::kDecreaseInsulin;
  obs.basal_rate = 1.0;
  EXPECT_FALSE(cawt.observe(obs).alarm);
  EXPECT_EQ(learned.defaulted.size(), 12u);
}

TEST_F(PipelineFixture, ObservationReconstructionMatchesRecords) {
  const auto& run = campaign_->by_patient[0][0];
  const auto obs = sim::observation_from_record(run, 10, 1.0, 40.0);
  EXPECT_DOUBLE_EQ(obs.bg, run.steps[10].cgm_bg);
  EXPECT_DOUBLE_EQ(obs.iob, run.steps[10].iob);
  EXPECT_DOUBLE_EQ(obs.commanded_rate, run.steps[10].commanded_rate);
  EXPECT_DOUBLE_EQ(obs.bg_rate,
                   run.steps[10].cgm_bg - run.steps[9].cgm_bg);
  EXPECT_EQ(obs.action, run.steps[10].action);
}

// --- ML dataset builders -------------------------------------------------------------

TEST_F(PipelineFixture, TabularDatasetLabelsFollowEqSeven) {
  const auto profiles = core::stack_profiles(*stack_);
  core::FlatCampaign flat;
  for (const auto& r : campaign_->by_patient[0]) {
    flat.runs.push_back(&r);
    flat.run_patient.push_back(8);
  }
  core::MlDataOptions options;
  options.stride = 1;
  const auto data =
      core::build_tabular_dataset(flat.runs, profiles, flat.run_patient,
                                  options);
  ASSERT_GT(data.size(), 0u);
  EXPECT_EQ(data.features(), monitor::kMlFeatureCount);
  // Positives exist (hazardous runs) and negatives exist (safe samples).
  EXPECT_GT(data.positive_fraction(), 0.0);
  EXPECT_LT(data.positive_fraction(), 1.0);
}

TEST_F(PipelineFixture, SequenceDatasetWindowsAreAligned) {
  const auto profiles = core::stack_profiles(*stack_);
  core::FlatCampaign flat;
  flat.runs.push_back(&campaign_->by_patient[0][0]);
  flat.run_patient.push_back(8);
  core::MlDataOptions options;
  options.stride = 1;
  const auto data = core::build_sequence_dataset(flat.runs, profiles,
                                                 flat.run_patient, options);
  ASSERT_GT(data.size(), 0u);
  EXPECT_EQ(data.steps(), monitor::kLstmWindow);
  EXPECT_EQ(data.features(), monitor::kMlFeatureCount);
  // One window per step from window-1 to the end.
  EXPECT_EQ(data.size(),
            campaign_->by_patient[0][0].steps.size() -
                monitor::kLstmWindow + 1);
}

// --- Monitor synthesis ---------------------------------------------------------------

TEST(MonitorFactories, GuidelinePercentilesFromTraces) {
  const auto stack = sim::glucosym_openaps_stack();
  fi::CampaignGrid grid;
  const auto fault_free = sim::run_campaign(
      stack, fi::fault_free_scenarios(grid), sim::null_monitor_factory(),
      {}, nullptr, {0});
  std::vector<const sim::SimResult*> runs;
  for (const auto& r : fault_free.by_patient[0]) runs.push_back(&r);
  const auto config = core::guideline_config_from_traces(runs);
  EXPECT_GT(config.lambda10, 40.0);
  EXPECT_LT(config.lambda10, config.lambda90);
  EXPECT_LT(config.lambda90, 400.0);
}

TEST(MonitorFactories, ByNameRejectsUnknown) {
  aps::ThreadPool pool(2);
  core::ExperimentConfig config;
  config.train_ml = false;
  const auto context = core::prepare_experiment(
      sim::glucosym_openaps_stack(), config, pool);
  EXPECT_THROW(core::monitor_factory_by_name(context, "nope"),
               std::invalid_argument);
  EXPECT_THROW(core::monitor_factory_by_name(context, "dt"),
               std::runtime_error);  // ML not trained
  // All non-ML names resolve and build per-patient monitors.
  for (const std::string name :
       {"guideline", "mpc", "cawot", "cawt", "cawt-population", "none"}) {
    const auto factory = core::monitor_factory_by_name(context, name);
    EXPECT_NE(factory(0), nullptr) << name;
  }
}

}  // namespace
