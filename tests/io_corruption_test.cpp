// Corruption robustness of the ArtifactBundle loader: truncation at every
// byte boundary and random byte flips must surface as a clear IoError (or,
// for flips that land in don't-care bytes, a clean load) — never a crash,
// hang, or unbounded allocation. Runs under the ASan/UBSan CI job, which
// would flag any out-of-bounds read the malformed inputs provoke.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "io/artifact_io.h"
#include "obs/drift.h"
#include "serve/engine.h"
#include "synthetic_util.h"

namespace {

using namespace aps;
namespace fs = std::filesystem;

class IoCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-process directory: concurrent suite runs (e.g. a Release and a
    // sanitizer build testing side by side) must not trample each other.
    dir_ = fs::temp_directory_path() /
           ("aps_io_corruption_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// A small but fully populated bundle (thresholds + all three models).
  [[nodiscard]] std::vector<char> bundle_bytes() {
    const std::string file = path("bundle.aps");
    io::save_bundle(testutil::tiny_bundle(), file);
    std::ifstream in(file, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  void write_bytes(const std::string& file, const std::vector<char>& bytes) {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  fs::path dir_;
};

TEST_F(IoCorruptionTest, TruncationAtEveryByteBoundaryThrowsIoError) {
  const std::vector<char> bytes = bundle_bytes();
  ASSERT_GT(bytes.size(), 100u);
  const std::string file = path("truncated.aps");
  // The loader consumes the file exactly, so every strict prefix must fail
  // loudly — header reads, length fields, and payloads alike.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    write_bytes(file, {bytes.begin(), bytes.begin() + len});
    EXPECT_THROW((void)io::load_bundle(file), io::IoError)
        << "truncation at byte " << len << " of " << bytes.size();
  }
  // The untruncated file still loads.
  write_bytes(file, bytes);
  EXPECT_NO_THROW((void)io::load_bundle(file));
}

TEST_F(IoCorruptionTest, RandomByteFlipsNeverCrash) {
  const std::vector<char> bytes = bundle_bytes();
  const std::string file = path("flipped.aps");
  Rng rng(20260731);
  std::size_t loaded = 0;
  std::size_t rejected = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<char> corrupted = bytes;
    const int flips = rng.uniform_int(1, 3);
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<int>(corrupted.size()) - 1));
      const char mask = static_cast<char>(rng.uniform_int(1, 255));
      corrupted[static_cast<std::size_t>(pos)] ^= mask;
    }
    write_bytes(file, corrupted);
    try {
      (void)io::load_bundle(file);
      ++loaded;  // flip landed in a don't-care byte (e.g. a weight)
    } catch (const io::IoError&) {
      ++rejected;  // the contract: a clear error, nothing else
    }
    // Any other exception type (bad_alloc, length_error, ...) or a signal
    // fails the test / trips the sanitizers.
  }
  EXPECT_EQ(loaded + rejected, 400u);
  // Sanity: structural bytes exist, so at least some flips must reject.
  EXPECT_GT(rejected, 0u);
}

TEST_F(IoCorruptionTest, HostileLengthFieldsAreRejectedBeforeAllocating) {
  // A bundle whose training-artifact profile count claims 2^24 entries in
  // a tiny file must fail on the remaining-bytes check, not allocate.
  const std::vector<char> bytes = bundle_bytes();
  std::vector<char> corrupted = bytes;
  // Header is magic + version + kind (12 bytes) + ml_classes/lstm_classes
  // (8 bytes); the next 8 bytes are the profile count.
  const std::size_t count_offset = 20;
  ASSERT_GT(corrupted.size(), count_offset + 8);
  corrupted[count_offset] = static_cast<char>(0xff);
  corrupted[count_offset + 1] = static_cast<char>(0xff);
  corrupted[count_offset + 2] = static_cast<char>(0xff);
  const std::string file = path("hostile.aps");
  write_bytes(file, corrupted);
  EXPECT_THROW((void)io::load_bundle(file), io::IoError);
}

TEST_F(IoCorruptionTest, HotReloadOfCorruptBundleLeavesLiveEngineUntouched) {
  // A truncated or byte-flipped bundle handed to a LIVE serving engine via
  // register_bundle_file must surface as IoError with the registry —
  // generation, monitor list — and every open session untouched: the
  // sessions keep serving the previous model generation bit-identically.
  const std::vector<char> bytes = bundle_bytes();
  const std::string good = path("live.aps");
  write_bytes(good, bytes);

  serve::MonitorEngine engine;
  engine.register_bundle_file(good);
  const auto generation = engine.generation();
  const auto monitors = engine.registered_monitors();

  // A mixed live population, including the stateful LSTM, fed mid-stream.
  const std::vector<std::string> kinds = {"cawt", "guideline", "dt", "mlp",
                                          "lstm"};
  const auto stream = testutil::synth_stream(60, 31);
  std::vector<serve::SessionId> ids;
  std::vector<std::unique_ptr<monitor::Monitor>> references;
  const core::ArtifactBundle loaded = io::load_bundle(good);
  for (std::size_t s = 0; s < kinds.size(); ++s) {
    ids.push_back(engine.open_session("p" + std::to_string(s), kinds[s],
                                      static_cast<int>(s) % 2));
    references.push_back(
        core::factory_from_bundle(loaded, kinds[s])(static_cast<int>(s) % 2));
  }
  const auto feed_and_check = [&](std::size_t k) {
    for (std::size_t s = 0; s < kinds.size(); ++s) {
      const serve::SessionInput input{ids[s], stream[k]};
      const auto got = testutil::feed(engine, {&input, 1})[0];
      const auto want = references[s]->observe(stream[k]);
      ASSERT_TRUE(testutil::decisions_equal(want, got))
          << kinds[s] << " cycle " << k;
    }
  };
  for (std::size_t k = 0; k < 20; ++k) feed_and_check(k);

  const std::string corrupt = path("corrupt.aps");
  // Truncations at several structural depths always reject...
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{5}, std::size_t{25}, bytes.size() / 2,
        bytes.size() - 1}) {
    write_bytes(corrupt, {bytes.begin(), bytes.begin() + len});
    EXPECT_THROW(engine.register_bundle_file(corrupt), io::IoError)
        << "truncation at " << len;
    EXPECT_EQ(engine.generation(), generation);
    EXPECT_EQ(engine.registered_monitors(), monitors);
  }
  // ...and random byte flips either reject (IoError, registry untouched)
  // or load cleanly (a don't-care byte: the registry advances) — never
  // crash, and live sessions keep their generation either way.
  Rng rng(4242);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<char> flipped = bytes;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(flipped.size()) - 1));
    flipped[pos] ^= static_cast<char>(rng.uniform_int(1, 255));
    write_bytes(corrupt, flipped);
    try {
      engine.register_bundle_file(corrupt);
    } catch (const io::IoError&) {
      // rejected: the engine must still be on some fully valid generation
    }
  }

  // The live sessions never noticed any of it.
  for (std::size_t k = 20; k < stream.size(); ++k) feed_and_check(k);

  // And a valid reload still works afterwards.
  engine.register_bundle_file(good);
  EXPECT_GT(engine.generation(), generation);
  for (const auto& kind : kinds) {
    EXPECT_NO_THROW(
        (void)engine.open_session("fresh-" + kind, kind, 0));
  }
}

TEST_F(IoCorruptionTest, TrainingStatsSectionTruncationAndHostileLengths) {
  // Twin bundles, identical except for the optional trailing training-stats
  // section, pin down the section's exact byte span: marker + version +
  // count (16 bytes) then 40 bytes per feature.
  core::ArtifactBundle bundle;
  bundle.artifacts = testutil::synth_artifacts(2);
  const std::string legacy_file = path("legacy.aps");
  io::save_bundle(bundle, legacy_file);

  constexpr std::size_t kFeatures = 6;
  obs::TrainingStats stats;
  for (std::size_t f = 0; f < kFeatures; ++f) {
    obs::FeatureSummary feature;
    feature.add(static_cast<double>(f));
    feature.add(static_cast<double>(f) + 10.0);
    stats.features.push_back(feature);
  }
  bundle.training_stats = std::make_shared<const obs::TrainingStats>(stats);
  const std::string stats_file = path("stats.aps");
  io::save_bundle(bundle, stats_file);

  const auto read_all = [](const std::string& file) {
    std::ifstream in(file, std::ios::binary);
    return std::vector<char>{std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()};
  };
  const std::vector<char> legacy = read_all(legacy_file);
  const std::vector<char> full = read_all(stats_file);
  const std::size_t legacy_len = legacy.size();
  ASSERT_EQ(full.size(), legacy_len + 16 + 40 * kFeatures);
  ASSERT_TRUE(std::equal(legacy.begin(), legacy.end(), full.begin()));

  // The legacy boundary is the ONE prefix that must load — as an old-format
  // bundle with no stats. Every other strict prefix cuts a read short.
  const std::string file = path("stats_truncated.aps");
  for (std::size_t len = legacy_len; len < full.size(); ++len) {
    write_bytes(file, {full.begin(), full.begin() + len});
    if (len == legacy_len) {
      const core::ArtifactBundle loaded = io::load_bundle(file);
      EXPECT_EQ(loaded.training_stats, nullptr);
    } else {
      EXPECT_THROW((void)io::load_bundle(file), io::IoError)
          << "stats section truncated at byte " << len << " of "
          << full.size();
    }
  }
  write_bytes(file, full);
  const core::ArtifactBundle reloaded = io::load_bundle(file);
  ASSERT_NE(reloaded.training_stats, nullptr);
  EXPECT_EQ(reloaded.training_stats->features.size(), kFeatures);

  // Junk after a complete section must reject: the loader consumes files
  // exactly, stats or no stats.
  std::vector<char> padded = full;
  padded.push_back(0);
  write_bytes(file, padded);
  EXPECT_THROW((void)io::load_bundle(file), io::IoError);

  // A hostile feature count (marker + version are the first 8 section
  // bytes; the u64 count follows) must fail the remaining-bytes check
  // before allocating anything.
  std::vector<char> hostile = full;
  const std::size_t count_offset = legacy_len + 8;
  hostile[count_offset] = static_cast<char>(0xff);
  hostile[count_offset + 1] = static_cast<char>(0xff);
  hostile[count_offset + 2] = static_cast<char>(0xff);
  write_bytes(file, hostile);
  EXPECT_THROW((void)io::load_bundle(file), io::IoError);
}

TEST_F(IoCorruptionTest, GarbageAndEmptyFilesThrowIoError) {
  const std::string file = path("garbage.aps");
  write_bytes(file, {});
  EXPECT_THROW((void)io::load_bundle(file), io::IoError);

  Rng rng(7);
  std::vector<char> noise(4096);
  for (auto& b : noise) b = static_cast<char>(rng.uniform_int(0, 255));
  write_bytes(file, noise);
  EXPECT_THROW((void)io::load_bundle(file), io::IoError);

  EXPECT_THROW((void)io::load_bundle(path("missing.aps")), io::IoError);
}

}  // namespace
