// Float32 serving tolerance: MLP/LSTM probabilities from the float32
// kernels stay within 1e-4 of float64, and an engine configured with
// monitor::Precision::kF32 serves every monitor kind. Stream equality at
// kF32 (zero decision flips against the f64 scalar reference, snapshots
// portable across precision modes) is pinned by serve_oracle_test's
// engine_f32 target.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "monitor/ml_monitor.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "synthetic_util.h"

namespace {

using namespace aps;

TEST(ServeF32Equivalence, ModelProbabilitiesWithinTolerance) {
  // The quantitative half of the contract: per-class probabilities from
  // the float32 paths stay within 1e-4 of float64 across the golden
  // cohort's feature distribution.
  const auto& bundle = testutil::tiny_bundle();
  double max_mlp = 0.0, max_lstm = 0.0;
  const std::size_t kSteps = 80;
  for (std::size_t session = 0; session < 8; ++session) {
    const auto stream = testutil::synth_stream(kSteps, 9000 + session);
    std::vector<std::vector<double>> rows;
    for (const auto& obs : stream) rows.push_back(monitor::ml_features(obs));
    for (const auto& row : rows) {
      const auto want = bundle.mlp->predict_proba(row);
      const auto got = bundle.mlp->predict_proba_f32(row);
      ASSERT_EQ(want.size(), got.size());
      for (std::size_t c = 0; c < want.size(); ++c) {
        max_mlp = std::max(max_mlp, std::abs(want[c] - got[c]));
      }
    }
    // Sliding raw windows for the LSTM.
    for (std::size_t start = 0; start + monitor::kLstmWindow <= rows.size();
         start += 3) {
      ml::Matrix window(monitor::kLstmWindow, monitor::kMlFeatureCount);
      for (std::size_t t = 0; t < monitor::kLstmWindow; ++t) {
        for (std::size_t j = 0; j < monitor::kMlFeatureCount; ++j) {
          window.at(t, j) = rows[start + t][j];
        }
      }
      const auto want = bundle.lstm->predict_proba(window);
      const auto got = bundle.lstm->predict_proba_f32(window);
      ASSERT_EQ(want.size(), got.size());
      for (std::size_t c = 0; c < want.size(); ++c) {
        max_lstm = std::max(max_lstm, std::abs(want[c] - got[c]));
      }
    }
  }
  RecordProperty("max_abs_proba_delta_mlp_e9",
                 static_cast<int>(max_mlp * 1e9));
  RecordProperty("max_abs_proba_delta_lstm_e9",
                 static_cast<int>(max_lstm * 1e9));
  EXPECT_LE(max_mlp, 1e-4);
  EXPECT_LE(max_lstm, 1e-4);
}

TEST(ServeF32Equivalence, PrecisionReportedPerShard) {
  // The engine's precision config lands on every shard it creates, is
  // exported per shard, and serving at kF32 works for monitors with and
  // without a float32 path.
  obs::Registry registry;
  serve::MonitorEngine f32(
      {.registry = &registry, .precision = monitor::Precision::kF32});
  f32.register_bundle(testutil::tiny_bundle());
  const auto mlp = f32.open_session("p-mlp", "mlp", 0);
  const auto guideline = f32.open_session("p-guideline", "guideline", 0);
  for (const auto& obs : testutil::synth_stream(10, 9003)) {
    const std::vector<serve::SessionInput> batch = {{mlp, obs},
                                                    {guideline, obs}};
    (void)testutil::feed(f32, batch);
  }
  for (const char* shard : {"mlp@g1", "guideline@g1"}) {
    EXPECT_EQ(registry.gauge_value("serve_shard_precision",
                                   {{"shard", shard}, {"precision", "f32"}}),
              1.0)
        << shard;
  }
  EXPECT_EQ(f32.stats(mlp).cycles, 10u);
}

}  // namespace
