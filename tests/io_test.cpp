// Serialization round-trips: a loaded artifact must drive a monitor to a
// bit-identical Decision stream, and malformed files must fail loudly.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "io/artifact_io.h"
#include "monitor/guideline.h"
#include "obs/drift.h"
#include "synthetic_util.h"

namespace {

using namespace aps;
namespace fs = std::filesystem;

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "aps_io_test";
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

TEST_F(IoTest, DecisionTreeRoundTrip) {
  ml::DecisionTreeConfig config;
  config.max_depth = 5;
  ml::DecisionTree tree(config);
  tree.fit(testutil::synth_dataset(600, 11));
  ASSERT_TRUE(tree.trained());

  io::save_decision_tree(tree, path("dt.aps"));
  const ml::DecisionTree loaded = io::load_decision_tree(path("dt.aps"));

  EXPECT_EQ(loaded.node_count(), tree.node_count());
  EXPECT_EQ(loaded.depth(), tree.depth());

  monitor::DtMonitor original(
      std::make_shared<const ml::DecisionTree>(tree), 2);
  monitor::DtMonitor reloaded(
      std::make_shared<const ml::DecisionTree>(loaded), 2);
  EXPECT_TRUE(testutil::same_decision_stream(
      original, reloaded, testutil::synth_stream(500, 21)));
}

TEST_F(IoTest, MlpRoundTrip) {
  ml::MlpConfig config;
  config.hidden_units = {8, 4};
  config.max_epochs = 3;
  ml::Mlp mlp(config);
  mlp.fit(testutil::synth_dataset(400, 13));
  ASSERT_TRUE(mlp.trained());

  io::save_mlp(mlp, path("mlp.aps"));
  const ml::Mlp loaded = io::load_mlp(path("mlp.aps"));

  EXPECT_EQ(loaded.parameter_count(), mlp.parameter_count());
  // Exact probabilities, not just argmax: weights round-trip bit-for-bit.
  const auto stream = testutil::synth_stream(200, 23);
  for (const auto& obs : stream) {
    const auto features = monitor::ml_features(obs);
    const auto p0 = mlp.predict_proba(features);
    const auto p1 = loaded.predict_proba(features);
    ASSERT_EQ(p0.size(), p1.size());
    for (std::size_t c = 0; c < p0.size(); ++c) EXPECT_EQ(p0[c], p1[c]);
  }

  monitor::MlpMonitor original(std::make_shared<const ml::Mlp>(mlp), 2);
  monitor::MlpMonitor reloaded(std::make_shared<const ml::Mlp>(loaded), 2);
  EXPECT_TRUE(testutil::same_decision_stream(original, reloaded, stream));
}

TEST_F(IoTest, LstmRoundTrip) {
  ml::LstmConfig config;
  config.hidden_units = {6};
  config.max_epochs = 2;
  config.batch_size = 16;
  ml::Lstm lstm(config);
  lstm.fit(testutil::synth_sequences(120, 17));
  ASSERT_TRUE(lstm.trained());

  io::save_lstm(lstm, path("lstm.aps"));
  const ml::Lstm loaded = io::load_lstm(path("lstm.aps"));
  EXPECT_EQ(loaded.parameter_count(), lstm.parameter_count());

  // Stateful monitor: the sliding window must behave identically too.
  monitor::LstmMonitor original(std::make_shared<const ml::Lstm>(lstm), 2);
  monitor::LstmMonitor reloaded(std::make_shared<const ml::Lstm>(loaded), 2);
  EXPECT_TRUE(testutil::same_decision_stream(
      original, reloaded, testutil::synth_stream(300, 29)));
}

TEST_F(IoTest, TrainingArtifactsRoundTrip) {
  const core::TrainingArtifacts artifacts = testutil::synth_artifacts(4);
  io::save_training_artifacts(artifacts, path("artifacts.aps"));
  const core::TrainingArtifacts loaded =
      io::load_training_artifacts(path("artifacts.aps"));

  ASSERT_EQ(loaded.profiles.size(), artifacts.profiles.size());
  for (std::size_t p = 0; p < loaded.profiles.size(); ++p) {
    EXPECT_EQ(loaded.profiles[p].basal_rate, artifacts.profiles[p].basal_rate);
    EXPECT_EQ(loaded.profiles[p].isf, artifacts.profiles[p].isf);
    EXPECT_EQ(loaded.profiles[p].steady_state_iob,
              artifacts.profiles[p].steady_state_iob);
  }
  EXPECT_EQ(loaded.patient_thresholds, artifacts.patient_thresholds);
  EXPECT_EQ(loaded.population_thresholds, artifacts.population_thresholds);
  EXPECT_EQ(loaded.target_bg, artifacts.target_bg);
  ASSERT_EQ(loaded.guideline_configs.size(),
            artifacts.guideline_configs.size());
  EXPECT_EQ(loaded.guideline_configs[1].lambda10,
            artifacts.guideline_configs[1].lambda10);
  EXPECT_EQ(loaded.guideline_configs[1].lambda90,
            artifacts.guideline_configs[1].lambda90);

  // CAWT built from loaded thresholds decides identically.
  const auto original_factory = core::cawt_factory(artifacts);
  const auto loaded_factory = core::cawt_factory(loaded);
  const auto stream = testutil::synth_stream(500, 31);
  for (int p = 0; p < 4; ++p) {
    auto a = original_factory(p);
    auto b = loaded_factory(p);
    EXPECT_TRUE(testutil::same_decision_stream(*a, *b, stream));
  }
}

TEST_F(IoTest, BundleRoundTripAllMonitors) {
  core::ArtifactBundle bundle;
  bundle.artifacts = testutil::synth_artifacts(3);
  {
    ml::DecisionTree tree;
    tree.fit(testutil::synth_dataset(400, 41));
    bundle.dt = std::make_shared<const ml::DecisionTree>(std::move(tree));
  }
  {
    ml::MlpConfig config;
    config.hidden_units = {6};
    config.max_epochs = 2;
    ml::Mlp mlp(config);
    mlp.fit(testutil::synth_dataset(300, 43));
    bundle.mlp = std::make_shared<const ml::Mlp>(std::move(mlp));
  }
  {
    ml::LstmConfig config;
    config.hidden_units = {4};
    config.max_epochs = 1;
    ml::Lstm lstm(config);
    lstm.fit(testutil::synth_sequences(80, 47));
    bundle.lstm = std::make_shared<const ml::Lstm>(std::move(lstm));
  }

  io::save_bundle(bundle, path("bundle.aps"));
  const core::ArtifactBundle loaded = io::load_bundle(path("bundle.aps"));

  EXPECT_EQ(core::bundle_monitor_names(loaded),
            core::bundle_monitor_names(bundle));
  const auto stream = testutil::synth_stream(400, 53);
  for (const auto& name : core::bundle_monitor_names(bundle)) {
    auto a = core::factory_from_bundle(bundle, name)(0);
    auto b = core::factory_from_bundle(loaded, name)(0);
    EXPECT_TRUE(testutil::same_decision_stream(*a, *b, stream))
        << "monitor '" << name << "' diverged after bundle round-trip";
  }
}

TEST_F(IoTest, BundleTrainingStatsRoundTrip) {
  core::ArtifactBundle bundle;
  bundle.artifacts = testutil::synth_artifacts(2);
  obs::TrainingStats stats;
  for (int f = 0; f < 6; ++f) {
    obs::FeatureSummary feature;
    feature.add(static_cast<double>(f) - 0.25);
    feature.add(static_cast<double>(f) * 3.5);
    feature.add(1e6 + f);
    stats.features.push_back(feature);
  }
  bundle.training_stats =
      std::make_shared<const obs::TrainingStats>(std::move(stats));

  io::save_bundle(bundle, path("with_stats.aps"));
  const core::ArtifactBundle loaded = io::load_bundle(path("with_stats.aps"));
  ASSERT_NE(loaded.training_stats, nullptr);
  ASSERT_EQ(loaded.training_stats->features.size(), 6u);
  for (std::size_t f = 0; f < 6; ++f) {
    const auto& want = bundle.training_stats->features[f];
    const auto& got = loaded.training_stats->features[f];
    EXPECT_EQ(got.count, want.count);
    EXPECT_EQ(got.mean(), want.mean());  // bit-exact f64 round-trip
    EXPECT_EQ(got.m2, want.m2);
    EXPECT_EQ(got.min, want.min);
    EXPECT_EQ(got.max, want.max);
  }
}

TEST_F(IoTest, VersionOneTrainingStatsStillLoad) {
  // Version 1 of the stats section stored raw sums (sum, sum of squares)
  // where version 2 stores Welford moments. Rewrite a saved section back
  // into the version 1 layout and check the moments come back.
  core::ArtifactBundle bundle;
  bundle.artifacts = testutil::synth_artifacts(2);
  obs::TrainingStats stats;
  obs::FeatureSummary feature;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    feature.add(x);
  }
  stats.features.push_back(feature);
  bundle.training_stats =
      std::make_shared<const obs::TrainingStats>(std::move(stats));
  io::save_bundle(bundle, path("v2_stats.aps"));

  std::string bytes;
  {
    std::ifstream in(path("v2_stats.aps"), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  // Section: u32 marker "STAT", u32 version, u64 features, then per
  // feature u64 count, f64, f64, f64 min, f64 max.
  const std::size_t marker = bytes.rfind("TATS");
  ASSERT_NE(marker, std::string::npos);
  const std::uint32_t v1 = 1;
  const double sum = 40.0;
  const double sum_sq = 232.0;
  std::memcpy(bytes.data() + marker + 4, &v1, sizeof v1);
  std::memcpy(bytes.data() + marker + 24, &sum, sizeof sum);
  std::memcpy(bytes.data() + marker + 32, &sum_sq, sizeof sum_sq);
  {
    std::ofstream out(path("v1_stats.aps"), std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const core::ArtifactBundle loaded = io::load_bundle(path("v1_stats.aps"));
  ASSERT_NE(loaded.training_stats, nullptr);
  ASSERT_EQ(loaded.training_stats->features.size(), 1u);
  const auto& got = loaded.training_stats->features[0];
  EXPECT_EQ(got.count, 8u);
  EXPECT_DOUBLE_EQ(got.mean(), 5.0);
  EXPECT_DOUBLE_EQ(got.variance(), 4.0);
  EXPECT_EQ(got.min, 2.0);
  EXPECT_EQ(got.max, 9.0);
}

// ---- CRC-32 -----------------------------------------------------------------

/// Bit-at-a-time CRC-32 (IEEE, reflected), the definition the table
/// implementation must reproduce.
std::uint32_t reference_crc32(const std::uint8_t* data, std::size_t n,
                              std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(IoCrc32, CheckValueAndEmptyInput) {
  const std::string check = "123456789";
  EXPECT_EQ(io::crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(io::crc32(nullptr, 0), 0u);
}

TEST(IoCrc32, ChainedSeedEqualsOneShot) {
  std::vector<std::uint8_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131u + 7u);
  }
  const std::uint32_t whole = io::crc32(data.data(), data.size());
  for (const std::size_t cut : {0u, 1u, 7u, 8u, 9u, 500u, 999u, 1000u}) {
    const std::uint32_t head = io::crc32(data.data(), cut);
    EXPECT_EQ(io::crc32(data.data() + cut, data.size() - cut, head), whole)
        << "cut at " << cut;
  }
}

TEST(IoCrc32, SlicedFormMatchesBitwiseReference) {
  std::vector<std::uint8_t> data(320);
  std::uint32_t x = 0x9E3779B9u;
  for (auto& b : data) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::uint8_t* p = data.data() + offset;
      ASSERT_EQ(io::crc32(p, len), reference_crc32(p, len))
          << "offset " << offset << ", length " << len;
      ASSERT_EQ(io::crc32(p, len, 0x12345678u),
                reference_crc32(p, len, 0x12345678u))
          << "seeded, offset " << offset << ", length " << len;
    }
  }
}

TEST_F(IoTest, StatLessBundleBytesAreLegacyIdentical) {
  // The stats section is written ONLY when stats exist: a stat-less bundle
  // must be byte-identical to one whose stats pointer holds an empty set —
  // i.e. the legacy format, so pre-section files keep loading.
  core::ArtifactBundle bundle;
  bundle.artifacts = testutil::synth_artifacts(2);
  io::save_bundle(bundle, path("null_stats.aps"));
  bundle.training_stats = std::make_shared<const obs::TrainingStats>();
  io::save_bundle(bundle, path("empty_stats.aps"));
  const auto read_all = [](const std::string& file) {
    std::ifstream in(file, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  EXPECT_EQ(read_all(path("null_stats.aps")),
            read_all(path("empty_stats.aps")));
  EXPECT_EQ(io::load_bundle(path("null_stats.aps")).training_stats, nullptr);
}

TEST_F(IoTest, BundleWithoutModelsLoadsNullPointers) {
  core::ArtifactBundle bundle;
  bundle.artifacts = testutil::synth_artifacts(2);
  io::save_bundle(bundle, path("rules_only.aps"));
  const core::ArtifactBundle loaded = io::load_bundle(path("rules_only.aps"));
  EXPECT_EQ(loaded.dt, nullptr);
  EXPECT_EQ(loaded.mlp, nullptr);
  EXPECT_EQ(loaded.lstm, nullptr);
  EXPECT_EQ(loaded.training_stats, nullptr);
  EXPECT_THROW((void)core::factory_from_bundle(loaded, "dt"),
               std::runtime_error);
  EXPECT_NO_THROW((void)core::factory_from_bundle(loaded, "cawt"));
}

TEST_F(IoTest, MissingFileFails) {
  try {
    (void)io::load_decision_tree(path("nope.aps"));
    FAIL() << "expected IoError";
  } catch (const io::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos);
  }
}

TEST_F(IoTest, TruncatedFileFails) {
  ml::DecisionTree tree;
  tree.fit(testutil::synth_dataset(300, 59));
  io::save_decision_tree(tree, path("trunc.aps"));

  const auto full_size = fs::file_size(path("trunc.aps"));
  fs::resize_file(path("trunc.aps"), full_size / 2);
  try {
    (void)io::load_decision_tree(path("trunc.aps"));
    FAIL() << "expected IoError";
  } catch (const io::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST_F(IoTest, CorruptMagicFails) {
  io::save_training_artifacts(testutil::synth_artifacts(1),
                              path("magic.aps"));
  {
    std::fstream f(path("magic.aps"),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.write("JUNK", 4);
  }
  try {
    (void)io::load_training_artifacts(path("magic.aps"));
    FAIL() << "expected IoError";
  } catch (const io::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("not an APS artifact"),
              std::string::npos);
  }
}

TEST_F(IoTest, VersionMismatchFails) {
  io::save_training_artifacts(testutil::synth_artifacts(1),
                              path("version.aps"));
  {
    std::fstream f(path("version.aps"),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(4);  // version field follows the magic
    const std::uint32_t future_version = 999;
    f.write(reinterpret_cast<const char*>(&future_version),
            sizeof future_version);
  }
  try {
    (void)io::load_training_artifacts(path("version.aps"));
    FAIL() << "expected IoError";
  } catch (const io::IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version"), std::string::npos);
    EXPECT_NE(what.find("999"), std::string::npos);
  }
}

TEST_F(IoTest, WrongArtifactKindFails) {
  ml::MlpConfig config;
  config.hidden_units = {4};
  config.max_epochs = 1;
  ml::Mlp mlp(config);
  mlp.fit(testutil::synth_dataset(200, 61));
  io::save_mlp(mlp, path("kind.aps"));
  try {
    (void)io::load_decision_tree(path("kind.aps"));
    FAIL() << "expected IoError";
  } catch (const io::IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("kind mismatch"), std::string::npos);
    EXPECT_NE(what.find("mlp"), std::string::npos);
    EXPECT_NE(what.find("decision-tree"), std::string::npos);
  }
}

}  // namespace
