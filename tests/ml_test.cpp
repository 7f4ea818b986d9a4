// ML library: matrix, standardizer, decision tree, MLP, LSTM.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "io/artifact_io.h"
#include "io/serial.h"
#include "ml/decision_tree.h"
#include "ml/kernels/kernels.h"
#include "ml/lstm.h"
#include "ml/mlp.h"

namespace {

using namespace aps::ml;

// --- Matrix -----------------------------------------------------------------

TEST(Matrix, XavierIsDeterministicAndBounded) {
  const Matrix a = Matrix::xavier(10, 10, 3);
  const Matrix b = Matrix::xavier(10, 10, 3);
  EXPECT_EQ(a.raw(), b.raw());
  const double limit = std::sqrt(6.0 / 20.0);
  for (const double v : a.raw()) {
    EXPECT_LE(std::abs(v), limit);
  }
}

// --- Dataset / standardizer -----------------------------------------------------

TEST(Standardizer, ZeroMeanUnitVariance) {
  Matrix x(4, 2);
  x.at(0, 0) = 1; x.at(1, 0) = 2; x.at(2, 0) = 3; x.at(3, 0) = 4;
  x.at(0, 1) = 10; x.at(1, 1) = 10; x.at(2, 1) = 10; x.at(3, 1) = 10;
  Standardizer std_;
  std_.fit(x);
  const Matrix z = std_.transform(x);
  double mean0 = 0.0;
  for (std::size_t r = 0; r < 4; ++r) mean0 += z.at(r, 0);
  EXPECT_NEAR(mean0 / 4.0, 0.0, 1e-12);
  // Constant column: guarded against divide-by-zero.
  EXPECT_DOUBLE_EQ(z.at(0, 1), 0.0);
}

TEST(ClassWeights, InverseFrequency) {
  Dataset data;
  data.classes = 2;
  data.y = {0, 0, 0, 1};
  data.x = Matrix(4, 1);
  const auto w = class_weights(data);
  EXPECT_NEAR(w[0], 4.0 / (2.0 * 3.0), 1e-12);
  EXPECT_NEAR(w[1], 4.0 / (2.0 * 1.0), 1e-12);
}

// --- Decision tree ----------------------------------------------------------------

Dataset axis_separable(int n, aps::Rng& rng) {
  Dataset data;
  data.classes = 2;
  data.x = Matrix(static_cast<std::size_t>(n), 2);
  for (int i = 0; i < n; ++i) {
    const double a = rng.uniform(0.0, 1.0);
    const double b = rng.uniform(0.0, 1.0);
    data.x.at(static_cast<std::size_t>(i), 0) = a;
    data.x.at(static_cast<std::size_t>(i), 1) = b;
    data.y.push_back(a > 0.5 ? 1 : 0);
  }
  return data;
}

TEST(DecisionTree, LearnsAxisAlignedSplit) {
  aps::Rng rng(11);
  const auto data = axis_separable(400, rng);
  DecisionTree tree;
  tree.fit(data);
  ASSERT_TRUE(tree.trained());
  int correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double f[2] = {data.x.at(i, 0), data.x.at(i, 1)};
    if (tree.predict(f) == data.y[i]) ++correct;
  }
  EXPECT_GT(correct, 390);
}

TEST(DecisionTree, LearnsXor) {
  aps::Rng rng(13);
  Dataset data;
  data.classes = 2;
  data.x = Matrix(400, 2);
  for (std::size_t i = 0; i < 400; ++i) {
    const double a = rng.uniform(0.0, 1.0);
    const double b = rng.uniform(0.0, 1.0);
    data.x.at(i, 0) = a;
    data.x.at(i, 1) = b;
    data.y.push_back((a > 0.5) != (b > 0.5) ? 1 : 0);
  }
  DecisionTree tree;
  tree.fit(data);
  int correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double f[2] = {data.x.at(i, 0), data.x.at(i, 1)};
    if (tree.predict(f) == data.y[i]) ++correct;
  }
  EXPECT_GT(correct, 360);  // XOR needs depth 2; easily within budget
}

TEST(DecisionTree, DepthLimitIsRespected) {
  aps::Rng rng(17);
  const auto data = axis_separable(200, rng);
  DecisionTreeConfig config;
  config.max_depth = 1;
  DecisionTree stump(config);
  stump.fit(data);
  EXPECT_LE(stump.depth(), 1);
}

TEST(DecisionTree, ProbabilitiesSumToOne) {
  aps::Rng rng(19);
  const auto data = axis_separable(100, rng);
  DecisionTree tree;
  tree.fit(data);
  const double f[2] = {0.3, 0.9};
  const auto probs = tree.predict_proba(f);
  EXPECT_NEAR(probs[0] + probs[1], 1.0, 1e-9);
}

// --- MLP --------------------------------------------------------------------------

TEST(Mlp, LearnsLinearlySeparable) {
  aps::Rng rng(23);
  const auto data = axis_separable(600, rng);
  MlpConfig config;
  config.hidden_units = {16};
  config.max_epochs = 30;
  config.dropout = 0.0;
  Mlp mlp(config);
  mlp.fit(data);
  int correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double f[2] = {data.x.at(i, 0), data.x.at(i, 1)};
    if (mlp.predict(f) == data.y[i]) ++correct;
  }
  EXPECT_GT(correct, 560);
}

TEST(Mlp, LearnsXor) {
  aps::Rng rng(29);
  Dataset data;
  data.classes = 2;
  data.x = Matrix(600, 2);
  for (std::size_t i = 0; i < 600; ++i) {
    const double a = rng.uniform(-1.0, 1.0);
    const double b = rng.uniform(-1.0, 1.0);
    data.x.at(i, 0) = a;
    data.x.at(i, 1) = b;
    data.y.push_back(a * b > 0.0 ? 1 : 0);
  }
  MlpConfig config;
  config.hidden_units = {32, 16};
  config.max_epochs = 60;
  config.dropout = 0.0;
  config.early_stopping_patience = 10;
  Mlp mlp(config);
  mlp.fit(data);
  int correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double f[2] = {data.x.at(i, 0), data.x.at(i, 1)};
    if (mlp.predict(f) == data.y[i]) ++correct;
  }
  EXPECT_GT(correct, 540);
}

TEST(Mlp, ProbabilitiesFormDistribution) {
  aps::Rng rng(31);
  const auto data = axis_separable(200, rng);
  MlpConfig config;
  config.hidden_units = {8};
  config.max_epochs = 5;
  Mlp mlp(config);
  mlp.fit(data);
  const double f[2] = {0.2, 0.8};
  const auto probs = mlp.predict_proba(f);
  ASSERT_EQ(probs.size(), 2u);
  EXPECT_NEAR(probs[0] + probs[1], 1.0, 1e-9);
  EXPECT_GE(probs[0], 0.0);
  EXPECT_GE(probs[1], 0.0);
}

TEST(Mlp, DeterministicPerSeed) {
  aps::Rng rng(37);
  const auto data = axis_separable(200, rng);
  MlpConfig config;
  config.hidden_units = {8};
  config.max_epochs = 5;
  Mlp a(config), b(config);
  a.fit(data);
  b.fit(data);
  const double f[2] = {0.6, 0.4};
  EXPECT_EQ(a.predict_proba(f), b.predict_proba(f));
}

// --- LSTM -------------------------------------------------------------------------

/// Label = whether the mean of the first feature over the window is
/// positive: requires integrating over time steps.
SequenceDataset window_mean_task(int n, aps::Rng& rng) {
  SequenceDataset data;
  data.classes = 2;
  for (int i = 0; i < n; ++i) {
    Matrix seq(6, 2);
    double sum = 0.0;
    const double bias = rng.uniform(-0.5, 0.5);
    for (std::size_t t = 0; t < 6; ++t) {
      const double v = bias + rng.uniform(-0.4, 0.4);
      seq.at(t, 0) = v;
      seq.at(t, 1) = rng.uniform(-1.0, 1.0);  // distractor
      sum += v;
    }
    data.sequences.push_back(std::move(seq));
    data.labels.push_back(sum > 0.0 ? 1 : 0);
  }
  return data;
}

TEST(Lstm, LearnsWindowMeanTask) {
  aps::Rng rng(41);
  const auto data = window_mean_task(500, rng);
  LstmConfig config;
  config.hidden_units = {12};
  config.max_epochs = 12;
  Lstm lstm(config);
  lstm.fit(data);
  int correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (lstm.predict(data.sequences[i]) == data.labels[i]) ++correct;
  }
  EXPECT_GT(correct, 425);  // 85%+
}

TEST(Lstm, StackedLayersTrain) {
  aps::Rng rng(43);
  const auto data = window_mean_task(200, rng);
  LstmConfig config;
  config.hidden_units = {8, 4};
  config.max_epochs = 6;
  Lstm lstm(config);
  const double val_loss = lstm.fit(data);
  EXPECT_TRUE(lstm.trained());
  EXPECT_LT(val_loss, std::log(2.0) + 0.3);  // better than chance-ish
  EXPECT_GT(lstm.parameter_count(), 0u);
}

TEST(Lstm, ProbabilitiesFormDistribution) {
  aps::Rng rng(47);
  const auto data = window_mean_task(120, rng);
  LstmConfig config;
  config.hidden_units = {6};
  config.max_epochs = 3;
  Lstm lstm(config);
  lstm.fit(data);
  const auto probs = lstm.predict_proba(data.sequences[0]);
  ASSERT_EQ(probs.size(), 2u);
  EXPECT_NEAR(probs[0] + probs[1], 1.0, 1e-9);
}

// --- Batched inference -------------------------------------------------------

/// A trained LSTM's weights, read back from its serialized form.
struct LstmWeights {
  struct Layer {
    std::size_t hidden = 0;
    Matrix w, u, b;
  };
  std::vector<Layer> layers;
  Matrix head_w, head_b;
};

Matrix read_matrix(aps::io::BinaryReader& in) {
  const std::uint64_t rows = in.u64();
  const std::uint64_t cols = in.u64();
  Matrix m(rows, cols);
  m.raw() = in.vec_f64();
  return m;
}

LstmWeights weights_of(const Lstm& lstm) {
  aps::io::BinaryWriter out;
  aps::io::write_lstm(out, lstm);
  aps::io::BinaryReader in(out.bytes(), "lstm");
  // Skip the config: hidden units, classes, Adam (four doubles), epochs,
  // batch size, validation fraction, patience, two flags and the seed.
  for (std::uint64_t n = in.u64(); n > 0; --n) (void)in.u64();
  (void)in.i32();
  for (int k = 0; k < 4; ++k) (void)in.f64();
  (void)in.i32();
  (void)in.u64();
  (void)in.f64();
  (void)in.i32();
  (void)in.u8();
  (void)in.u8();
  (void)in.u64();
  LstmWeights weights;
  weights.layers.resize(in.u64());
  for (auto& layer : weights.layers) {
    layer.hidden = in.u64();
    layer.w = read_matrix(in);
    layer.u = read_matrix(in);
    layer.b = read_matrix(in);
  }
  weights.head_w = read_matrix(in);
  weights.head_b = read_matrix(in);
  return weights;
}

/// z[j] += x[k] * w(k, j) for ascending k, skipping zero multipliers: the
/// kernels' float64 product, as a plain loop.
void accumulate(const double* x, const Matrix& w, std::vector<double>& z) {
  for (std::size_t k = 0; k < w.rows(); ++k) {
    if (x[k] == 0.0) continue;
    for (std::size_t j = 0; j < w.cols(); ++j) z[j] += x[k] * w.at(k, j);
  }
}

/// One window through the stack alone, with plain loops and the in-repo
/// transcendentals: per step z = b + x_t W + h U, the gates, then the head
/// on the last hidden state and a max-shifted softmax.
std::vector<double> reference_proba(const Lstm& lstm,
                                    const LstmWeights& weights,
                                    const Matrix& window) {
  const std::size_t steps = window.rows();
  std::size_t width = window.cols();
  std::vector<double> in = window.raw();
  for (std::size_t t = 0; t < steps; ++t) {
    lstm.standardize_row(std::span<double>(in.data() + t * width, width));
  }
  for (const auto& layer : weights.layers) {
    const std::size_t hs = layer.hidden;
    std::vector<double> h(hs, 0.0), c(hs, 0.0), z(4 * hs), out(steps * hs);
    for (std::size_t t = 0; t < steps; ++t) {
      z = layer.b.raw();
      accumulate(in.data() + t * width, layer.w, z);
      accumulate(h.data(), layer.u, z);
      for (std::size_t j = 0; j < hs; ++j) {
        const double gi = kernels::sigmoid_f64(z[j]);
        const double gf = kernels::sigmoid_f64(z[hs + j]);
        const double gg = kernels::tanh_f64(z[2 * hs + j]);
        const double go = kernels::sigmoid_f64(z[3 * hs + j]);
        c[j] = gf * c[j] + gi * gg;
        h[j] = go * kernels::tanh_f64(c[j]);
        out[t * hs + j] = h[j];
      }
    }
    in = std::move(out);
    width = hs;
  }
  std::vector<double> probs = weights.head_b.raw();
  accumulate(in.data() + (steps - 1) * width, weights.head_w, probs);
  double max_v = -std::numeric_limits<double>::infinity();
  for (const double v : probs) max_v = std::max(max_v, v);
  double sum = 0.0;
  for (double& v : probs) {
    v = kernels::exp_f64(v - max_v);
    sum += v;
  }
  for (double& v : probs) v /= sum;
  return probs;
}

TEST(Lstm, PredictBatchMatchesSequential) {
  // Mirrors the Mlp::predict_batch pin in serve_test: the SoA pass that
  // steps every window's hidden/cell state together must reproduce a
  // plain per-window forward bit for bit, probabilities and classes.
  aps::Rng rng(53);
  const auto data = window_mean_task(300, rng);
  LstmConfig config;
  config.hidden_units = {10, 5};
  config.max_epochs = 5;
  Lstm lstm(config);
  lstm.fit(data);
  const LstmWeights weights = weights_of(lstm);
  const auto batched = lstm.predict_batch(data.sequences);
  ASSERT_EQ(batched.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto want = reference_proba(lstm, weights, data.sequences[i]);
    EXPECT_EQ(lstm.predict_proba(data.sequences[i]), want) << "window " << i;
    EXPECT_EQ(batched[i], static_cast<int>(std::max_element(want.begin(),
                                                            want.end()) -
                                           want.begin()))
        << "window " << i;
  }
}

TEST(DecisionTree, PredictBatchMatchesSequential) {
  aps::Rng rng(51);
  const auto data = axis_separable(400, rng);
  DecisionTree tree;
  tree.fit(data);
  const auto batched = tree.predict_batch(data.x);
  ASSERT_EQ(batched.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::span<const double> row(data.x.data() + i * data.x.cols(),
                                      data.x.cols());
    EXPECT_EQ(batched[i], tree.predict(row)) << "row " << i;
  }
}

// --- Data-parallel training determinism --------------------------------------
//
// Minibatch gradients are computed over fixed-size chunks with per-chunk
// dropout streams and reduced in chunk order, so the trained weights must
// be bit-identical for every thread count (including none).

TEST(Mlp, TrainingIsThreadCountInvariant) {
  aps::Rng rng(57);
  const auto data = axis_separable(600, rng);
  const auto train = [&](aps::ThreadPool* pool) {
    MlpConfig config;
    config.hidden_units = {24, 12};
    config.max_epochs = 6;
    config.seed = 99;
    Mlp mlp(config);
    const double val = mlp.fit(data, pool);
    std::vector<double> probe;
    for (std::size_t i = 0; i < 50; ++i) {
      const std::span<const double> row(data.x.data() + i * data.x.cols(),
                                        data.x.cols());
      const auto probs = mlp.predict_proba(row);
      probe.insert(probe.end(), probs.begin(), probs.end());
    }
    return std::pair{val, probe};
  };
  const auto sequential = train(nullptr);
  aps::ThreadPool pool3(3);
  const auto threaded = train(&pool3);
  EXPECT_EQ(sequential.first, threaded.first);
  ASSERT_EQ(sequential.second.size(), threaded.second.size());
  for (std::size_t i = 0; i < sequential.second.size(); ++i) {
    EXPECT_EQ(sequential.second[i], threaded.second[i]) << "probe " << i;
  }
}

TEST(Lstm, TrainingIsThreadCountInvariant) {
  aps::Rng rng(61);
  const auto data = window_mean_task(240, rng);
  const auto train = [&](aps::ThreadPool* pool) {
    LstmConfig config;
    config.hidden_units = {8};
    config.max_epochs = 4;
    config.seed = 77;
    Lstm lstm(config);
    const double val = lstm.fit(data, pool);
    std::vector<double> probe;
    for (std::size_t i = 0; i < 40; ++i) {
      const auto probs = lstm.predict_proba(data.sequences[i]);
      probe.insert(probe.end(), probs.begin(), probs.end());
    }
    return std::pair{val, probe};
  };
  const auto sequential = train(nullptr);
  aps::ThreadPool pool3(3);
  const auto threaded = train(&pool3);
  EXPECT_EQ(sequential.first, threaded.first);
  ASSERT_EQ(sequential.second.size(), threaded.second.size());
  for (std::size_t i = 0; i < sequential.second.size(); ++i) {
    EXPECT_EQ(sequential.second[i], threaded.second[i]) << "probe " << i;
  }
}

// --- Golden loss trajectories through the kernel layer -----------------------
//
// First recorded from the pre-kernel ml::Matrix implementation (same
// configs as the thread-invariance tests above, -ffp-contract=off build),
// then re-recorded once from the scalar backend when the gates and the
// softmax moved from libm to the kernel layer's own exp/sigmoid/tanh.
// fit() routes every matmul and transcendental through src/ml/kernels; the
// bit-identity contract says training must land on the SAME per-epoch
// validation losses, for every thread count and on every host — a drift
// here means a kernel reordered arithmetic.

TEST(Mlp, FitMatchesPreKernelGoldenTrajectory) {
  const std::vector<double> kGolden = {
      0.61400378581246584, 0.58266995613054673, 0.55047582291153485,
      0.51641441009888689, 0.48013607365082456, 0.44278222200018258};
  aps::Rng rng(57);
  const auto data = axis_separable(600, rng);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    MlpConfig config;
    config.hidden_units = {24, 12};
    config.max_epochs = 6;
    config.seed = 99;
    Mlp mlp(config);
    aps::ThreadPool pool(threads);
    (void)mlp.fit(data, &pool);
    const auto& losses = mlp.epoch_losses();
    ASSERT_EQ(losses.size(), kGolden.size()) << "threads=" << threads;
    for (std::size_t e = 0; e < kGolden.size(); ++e) {
      EXPECT_EQ(losses[e], kGolden[e])
          << "threads=" << threads << " epoch " << e;
    }
  }
}

// SGD-like updates (see TwoLayerSgdFitMatchesRecordedGoldens below): with
// beta1 = 0 and an epsilon far above every |g|, each step carries every
// gradient bit into the weights, so these goldens pin the MLP's forward,
// dropout and backward arithmetic, not just its Adam-normalized drift.
// 250 rows leave 213 for training: the last minibatch holds 21 rows and its
// last 16-row gradient chunk holds 5, and the 37 validation rows end on a
// 5-row chunk too. The 40-unit layer spans a 32-column GEMM tile plus its
// tail, and ReLU plus dropout feed the kernels' zero skip. Recorded exactly
// (17 significant digits round-trip), last from the scalar backend once the
// softmax ran on the kernel layer's exp_f64; training must reproduce them
// bit for bit on every kernel backend, with no pool and with pools of 1
// and 4.
TEST(Mlp, SgdFitMatchesRecordedGoldens) {
  const std::vector<double> kGoldenLosses = {
      0.22692998388852992, 0.19303901533522091, 0.065917522444839102,
      0.039277195975804098, 0.12051177433225395};
  const std::vector<double> kGoldenProbes = {
      4.2199682968370884e-06, 0.9999957800317032, 0.99296752076916095,
      0.0070324792308389759, 3.1157940189871696e-05, 0.99996884205981018,
      0.98032599884873395, 0.019674001151265993, 0.99481768573579721,
      0.0051823142642027625, 9.4909721009931686e-05, 0.99990509027898999,
      3.0746227724574094e-06, 0.99999692537722762, 0.00034430219297287374,
      0.99965569780702701, 0.99453707335641339, 0.0054629266435865746,
      0.0022086598072255737, 0.99779134019277438, 3.6309259063251548e-06,
      0.99999636907409362, 0.92592192875707402, 0.074078071242926105};
  aps::Rng rng(67);
  const auto data = axis_separable(250, rng);
  struct BackendGuard {
    kernels::Backend saved = kernels::active_backend();
    ~BackendGuard() { kernels::set_backend(saved); }
  } guard;
  for (const auto backend : kernels::compiled_backends()) {
    kernels::set_backend(backend);
    for (const std::size_t threads :
         {std::size_t{0}, std::size_t{1}, std::size_t{4}}) {
      MlpConfig config;
      config.hidden_units = {40, 12};
      config.max_epochs = 5;
      config.seed = 91;
      config.adam.beta1 = 0.0;
      config.adam.epsilon = 1e3;
      config.adam.learning_rate = 1e3;
      Mlp mlp(config);
      std::unique_ptr<aps::ThreadPool> pool;
      if (threads > 0) pool = std::make_unique<aps::ThreadPool>(threads);
      (void)mlp.fit(data, pool.get());
      std::vector<double> probes;
      for (std::size_t i = 0; i < 12; ++i) {
        const std::span<const double> row(data.x.data() + i * data.x.cols(),
                                          data.x.cols());
        const auto probs = mlp.predict_proba(row);
        probes.insert(probes.end(), probs.begin(), probs.end());
      }
      const std::string where = std::string("backend=") +
                                kernels::to_string(backend) +
                                " threads=" + std::to_string(threads);
      ASSERT_EQ(mlp.epoch_losses().size(), kGoldenLosses.size()) << where;
      for (std::size_t e = 0; e < kGoldenLosses.size(); ++e) {
        EXPECT_EQ(mlp.epoch_losses()[e], kGoldenLosses[e])
            << where << " epoch " << e;
      }
      ASSERT_EQ(probes.size(), kGoldenProbes.size()) << where;
      for (std::size_t i = 0; i < kGoldenProbes.size(); ++i) {
        EXPECT_EQ(probes[i], kGoldenProbes[i]) << where << " probe " << i;
      }
    }
  }
}

TEST(Lstm, FitMatchesPreKernelGoldenTrajectory) {
  const std::vector<double> kGolden = {
      0.73168346344007273, 0.69858709441433431, 0.66704086703239729,
      0.63750532317177877};
  aps::Rng rng(61);
  const auto data = window_mean_task(240, rng);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    LstmConfig config;
    config.hidden_units = {8};
    config.max_epochs = 4;
    config.seed = 77;
    Lstm lstm(config);
    aps::ThreadPool pool(threads);
    (void)lstm.fit(data, &pool);
    const auto& losses = lstm.epoch_losses();
    ASSERT_EQ(losses.size(), kGolden.size()) << "threads=" << threads;
    for (std::size_t e = 0; e < kGolden.size(); ++e) {
      EXPECT_EQ(losses[e], kGolden[e])
          << "threads=" << threads << " epoch " << e;
    }
  }
}

// Two stacked layers, so the gradient reaching the bottom layer goes
// through the upper layer's input (dx) propagation. 250 windows leave 213
// for training: the last minibatch holds 21 samples and its last 8-sample
// gradient chunk holds 5, and the 37 validation windows end on a 5-sample
// chunk too. Goldens were recorded exactly (17 significant digits
// round-trip), last from the scalar backend once the gates and the softmax
// ran on the kernel layer's exp/sigmoid/tanh; training must reproduce them
// bit for bit on every kernel backend, with no pool and with pools of 1
// and 4.
void expect_two_layer_fit_matches(const AdamConfig& adam,
                                  const std::vector<double>& golden_losses,
                                  const std::vector<double>& golden_probes) {
  aps::Rng rng(67);
  const auto data = window_mean_task(250, rng);
  // Restores the ambient dispatch choice even when an ASSERT returns early.
  struct BackendGuard {
    kernels::Backend saved = kernels::active_backend();
    ~BackendGuard() { kernels::set_backend(saved); }
  } guard;
  for (const auto backend : kernels::compiled_backends()) {
    kernels::set_backend(backend);
    for (const std::size_t threads :
         {std::size_t{0}, std::size_t{1}, std::size_t{4}}) {
      LstmConfig config;
      config.hidden_units = {8, 4};
      config.max_epochs = 5;
      config.seed = 91;
      config.adam = adam;
      Lstm lstm(config);
      std::unique_ptr<aps::ThreadPool> pool;
      if (threads > 0) pool = std::make_unique<aps::ThreadPool>(threads);
      (void)lstm.fit(data, pool.get());
      std::vector<double> probes;
      for (std::size_t i = 0; i < 12; ++i) {
        const auto probs = lstm.predict_proba(data.sequences[i]);
        probes.insert(probes.end(), probs.begin(), probs.end());
      }
      const std::string where = std::string("backend=") +
                                kernels::to_string(backend) +
                                " threads=" + std::to_string(threads);
      ASSERT_EQ(lstm.epoch_losses().size(), golden_losses.size()) << where;
      for (std::size_t e = 0; e < golden_losses.size(); ++e) {
        EXPECT_EQ(lstm.epoch_losses()[e], golden_losses[e])
            << where << " epoch " << e;
      }
      ASSERT_EQ(probes.size(), golden_probes.size()) << where;
      for (std::size_t i = 0; i < golden_probes.size(); ++i) {
        EXPECT_EQ(probes[i], golden_probes[i]) << where << " probe " << i;
      }
    }
  }
}

TEST(Lstm, TwoLayerFitMatchesRecordedGoldens) {
  expect_two_layer_fit_matches(
      AdamConfig{},
      {
      0.8165064356604933, 0.79283569800372933, 0.7703857685889014,
      0.74943133792859928, 0.73014672999421315},
      {
      0.54917627069324715, 0.4508237293067528, 0.54261364867733919,
      0.45738635132266076, 0.50277380843065544, 0.49722619156934461,
      0.51934561424055359, 0.4806543857594463, 0.53802108159723672,
      0.46197891840276323, 0.51581532654283191, 0.48418467345716815,
      0.46301840472926492, 0.53698159527073508, 0.5493546935971626,
      0.45064530640283745, 0.52592583033722629, 0.47407416966277366,
      0.52194408736526032, 0.47805591263473962, 0.51651927158048594,
      0.48348072841951406, 0.51678213702493803, 0.48321786297506203});
}

// Adam normalizes each step to about lr * sign(g), which absorbs a last-bit
// change in a gradient before it reaches the weights. With beta1 = 0 and an
// epsilon far above every |g|, the update is lr / epsilon * g: plain SGD
// (step size ~1 here) that carries every gradient bit into the weights, so
// these goldens pin the BPTT arithmetic itself.
TEST(Lstm, TwoLayerSgdFitMatchesRecordedGoldens) {
  AdamConfig sgd;
  sgd.beta1 = 0.0;
  sgd.epsilon = 1e3;
  sgd.learning_rate = 1e3;
  expect_two_layer_fit_matches(
      sgd,
      {
        0.60658256765771212, 0.17797621238176325, 0.37351611010220498,
        0.076166447863194806, 0.074785236730734145},
      {
        0.020961906871700495, 0.97903809312829959, 0.020991835325054282,
        0.97900816467494578, 0.97864946726300339, 0.021350532736996664,
        0.12966872732175966, 0.87033127267824029, 0.023414943926054248,
        0.97658505607394563, 0.036112967132899375, 0.96388703286710053,
        0.93765719265515179, 0.062342807344848157, 0.022814721655159517,
        0.97718527834484059, 0.42284448484767551, 0.57715551515232444,
        0.96183545141586935, 0.038164548584130542, 0.97962012722284209,
        0.020379872777157925, 0.94507817143231743, 0.054921828567682518});
}

// --- Float32 inference path ---------------------------------------------------

TEST(Mlp, F32PredictionsAgreeWithF64WithinTolerance) {
  aps::Rng rng(57);
  const auto data = axis_separable(300, rng);
  MlpConfig config;
  config.hidden_units = {16, 8};
  config.max_epochs = 4;
  config.seed = 5;
  Mlp mlp(config);
  (void)mlp.fit(data);
  mlp.warm_f32_cache();
  double max_delta = 0.0;
  std::size_t flips = 0;
  for (std::size_t i = 0; i < data.x.rows(); ++i) {
    const std::span<const double> row(data.x.data() + i * data.x.cols(),
                                      data.x.cols());
    const auto want = mlp.predict_proba(row);
    const auto got = mlp.predict_proba_f32(row);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t c = 0; c < want.size(); ++c) {
      max_delta = std::max(max_delta, std::abs(want[c] - got[c]));
    }
    if (mlp.predict(row) !=
        static_cast<int>(std::max_element(got.begin(), got.end()) -
                         got.begin())) {
      ++flips;
    }
  }
  EXPECT_LE(max_delta, 1e-4);
  EXPECT_EQ(flips, 0u);
}

TEST(Lstm, F32PredictionsAgreeWithF64WithinTolerance) {
  aps::Rng rng(61);
  const auto data = window_mean_task(200, rng);
  LstmConfig config;
  config.hidden_units = {6};
  config.max_epochs = 2;
  config.seed = 21;
  Lstm lstm(config);
  (void)lstm.fit(data);
  lstm.warm_f32_cache();
  double max_delta = 0.0;
  std::size_t flips = 0;
  for (const auto& window : data.sequences) {
    const auto want = lstm.predict_proba(window);
    const auto got = lstm.predict_proba_f32(window);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t c = 0; c < want.size(); ++c) {
      max_delta = std::max(max_delta, std::abs(want[c] - got[c]));
    }
    if (lstm.predict(window) !=
        static_cast<int>(std::max_element(got.begin(), got.end()) -
                         got.begin())) {
      ++flips;
    }
  }
  EXPECT_LE(max_delta, 1e-4);
  EXPECT_EQ(flips, 0u);
}

TEST(Lstm, F32CacheInvalidatedByRefit) {
  // fit() bumps the model generation: the float32 mirror must be rebuilt,
  // not served stale.
  aps::Rng rng(61);
  const auto data = window_mean_task(120, rng);
  LstmConfig config;
  config.hidden_units = {4};
  config.max_epochs = 1;
  config.seed = 3;
  Lstm lstm(config);
  (void)lstm.fit(data);
  lstm.warm_f32_cache();
  const auto before = lstm.predict_proba_f32(data.sequences[0]);
  LstmConfig config2 = config;
  config2.max_epochs = 3;
  Lstm lstm2(config2);
  (void)lstm2.fit(data);
  lstm = lstm2;  // copy resets the cache slot
  const auto after = lstm.predict_proba_f32(data.sequences[0]);
  const auto want = lstm.predict_proba(data.sequences[0]);
  for (std::size_t c = 0; c < want.size(); ++c) {
    EXPECT_NEAR(after[c], want[c], 1e-4) << c;
  }
  // The two trainings genuinely differ, so a stale cache would show up.
  EXPECT_NE(before, after);
}

// Float32 probabilities, recorded exactly (17 significant digits round-
// trip) on the scalar backend before the LSTM's hand-written float32 head
// loop and the MLP's allocating float32 forward were folded into the
// shared batched passes. The float32 kernels keep one operation order on
// every backend, so every compiled backend must reproduce them bit for
// bit. The fixtures are the two-layer LSTM of TwoLayerFitMatchesRecorded-
// Goldens and the MLP of SgdFitMatchesRecordedGoldens.

Lstm two_layer_lstm_fixture(const SequenceDataset& data) {
  LstmConfig config;
  config.hidden_units = {8, 4};
  config.max_epochs = 5;
  config.seed = 91;
  Lstm lstm(config);
  (void)lstm.fit(data);
  return lstm;
}

Mlp sgd_mlp_fixture(const Dataset& data) {
  MlpConfig config;
  config.hidden_units = {40, 12};
  config.max_epochs = 5;
  config.seed = 91;
  config.adam.beta1 = 0.0;
  config.adam.epsilon = 1e3;
  config.adam.learning_rate = 1e3;
  Mlp mlp(config);
  (void)mlp.fit(data);
  return mlp;
}

/// Restores the ambient dispatch choice even when an ASSERT returns early.
struct BackendGuard {
  kernels::Backend saved = kernels::active_backend();
  ~BackendGuard() { kernels::set_backend(saved); }
};

TEST(Lstm, F32ProbabilitiesMatchRecordedGoldens) {
  const std::vector<double> kGolden = {
      0.54917626812006981, 0.45082373187993019, 0.54261364666377765,
      0.4573863533362223,  0.50277381338670601, 0.49722618661329393,
      0.51934561252582057, 0.48065438747417949, 0.53802110171071638,
      0.46197889828928357, 0.51581531694361693, 0.48418468305638307,
      0.4630183821868421,  0.5369816178131579,  0.54935470181680701,
      0.45064529818319299, 0.52592581990753184, 0.47407418009246821,
      0.52194408621441213, 0.47805591378558787, 0.51651926342603216,
      0.48348073657396784, 0.51678213725615385, 0.48321786274384609};
  aps::Rng rng(67);
  const auto data = window_mean_task(250, rng);
  const Lstm lstm = two_layer_lstm_fixture(data);
  BackendGuard guard;
  for (const auto backend : kernels::compiled_backends()) {
    kernels::set_backend(backend);
    std::vector<double> probes;
    for (std::size_t i = 0; i < 12; ++i) {
      const auto probs = lstm.predict_proba_f32(data.sequences[i]);
      probes.insert(probes.end(), probs.begin(), probs.end());
    }
    ASSERT_EQ(probes.size(), kGolden.size());
    for (std::size_t i = 0; i < kGolden.size(); ++i) {
      EXPECT_EQ(probes[i], kGolden[i])
          << "backend=" << kernels::to_string(backend) << " probe " << i;
    }
  }
}

TEST(Mlp, F32ProbabilitiesMatchRecordedGoldens) {
  const std::vector<double> kGolden = {
      4.2199690703080685e-06, 0.99999578003092959,   0.99296752207639427,
      0.0070324779236058069,  3.1157919123856804e-05, 0.99996884208087622,
      0.98032600258872504,    0.019673997411274968,  0.99481768575417828,
      0.0051823142458217019,  9.490973906723178e-05, 0.99990509026093277,
      3.0746217676313716e-06, 0.99999692537823237,   0.00034430229376865496,
      0.99965569770623142,    0.99453707238528188,   0.0054629276147180493,
      0.0022086598975006979,  0.99779134010249926,   3.6309264302386403e-06,
      0.99999636907356981,    0.92592192347288316,   0.074078076527116787};
  aps::Rng rng(67);
  const auto data = axis_separable(250, rng);
  const Mlp mlp = sgd_mlp_fixture(data);
  BackendGuard guard;
  for (const auto backend : kernels::compiled_backends()) {
    kernels::set_backend(backend);
    std::vector<double> probes;
    for (std::size_t i = 0; i < 12; ++i) {
      const std::span<const double> row(data.x.data() + i * data.x.cols(),
                                        data.x.cols());
      const auto probs = mlp.predict_proba_f32(row);
      probes.insert(probes.end(), probs.begin(), probs.end());
    }
    ASSERT_EQ(probes.size(), kGolden.size());
    for (std::size_t i = 0; i < kGolden.size(); ++i) {
      EXPECT_EQ(probes[i], kGolden[i])
          << "backend=" << kernels::to_string(backend) << " probe " << i;
    }
  }
}

// Lane invariance of the float32 passes: row i of a 16-lane batch equals
// the batch-of-one pass over input i, bitwise, on every backend (the AVX2
// GEMM blocks six rows at a time, so 16 lanes cover full blocks and a
// tail).
TEST(Lstm, F32BatchRowsMatchSingleWindowPasses) {
  aps::Rng rng(67);
  const auto data = window_mean_task(250, rng);
  const Lstm lstm = two_layer_lstm_fixture(data);
  constexpr std::size_t kLanes = 16;
  const std::size_t steps = data.steps();
  const std::size_t width = data.features();
  std::vector<float> x(steps * kLanes * width);
  for (std::size_t i = 0; i < kLanes; ++i) {
    for (std::size_t t = 0; t < steps; ++t) {
      std::vector<double> row(data.sequences[i].data() + t * width,
                              data.sequences[i].data() + (t + 1) * width);
      lstm.standardize_row(row);
      std::copy(row.begin(), row.end(), x.begin() + (t * kLanes + i) * width);
    }
  }
  BackendGuard guard;
  for (const auto backend : kernels::compiled_backends()) {
    kernels::set_backend(backend);
    Lstm::InferenceWorkspace ws;
    std::vector<int> classes;
    lstm.predict_batch_standardized_f32(x, kLanes, steps, classes, ws);
    const std::size_t n_classes = ws.probs.size() / kLanes;
    for (std::size_t i = 0; i < kLanes; ++i) {
      const std::vector<double> row(ws.probs.begin() + i * n_classes,
                                    ws.probs.begin() + (i + 1) * n_classes);
      EXPECT_EQ(row, lstm.predict_proba_f32(data.sequences[i]))
          << "backend=" << kernels::to_string(backend) << " lane " << i;
    }
  }
}

TEST(Mlp, F32BatchRowsMatchSingleRowPasses) {
  aps::Rng rng(67);
  const auto data = axis_separable(250, rng);
  const Mlp mlp = sgd_mlp_fixture(data);
  constexpr std::size_t kLanes = 16;
  Matrix rows(kLanes, data.x.cols());
  std::copy_n(data.x.data(), rows.size(), rows.data());
  BackendGuard guard;
  for (const auto backend : kernels::compiled_backends()) {
    kernels::set_backend(backend);
    Mlp::InferenceWorkspace ws;
    std::vector<int> classes;
    mlp.predict_batch_f32(rows, classes, ws);
    const std::size_t n_classes = ws.probs.size() / kLanes;
    for (std::size_t i = 0; i < kLanes; ++i) {
      const std::vector<double> row(ws.probs.begin() + i * n_classes,
                                    ws.probs.begin() + (i + 1) * n_classes);
      const std::span<const double> input(rows.data() + i * rows.cols(),
                                          rows.cols());
      EXPECT_EQ(row, mlp.predict_proba_f32(input))
          << "backend=" << kernels::to_string(backend) << " lane " << i;
    }
  }
}

// --- Deterministic reservoir subsampling --------------------------------------
//
// Bottom-k selection keyed on (seed, run, step) is a pure function of the
// candidate set: any insertion order, shard partition, or merge tree must
// produce the same training set.

namespace {

struct RawSample {
  std::uint64_t run;
  std::uint64_t step;
  std::vector<double> row;
  int label;
};

std::vector<RawSample> make_samples(std::size_t n, std::uint64_t seed) {
  aps::Rng rng(seed);
  std::vector<RawSample> samples;
  samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    RawSample s;
    s.run = i / 37;
    s.step = i % 37;
    s.row = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    s.label = rng.uniform_int(0, 1);
    samples.push_back(std::move(s));
  }
  return samples;
}

bool datasets_identical(const Dataset& a, const Dataset& b) {
  return a.classes == b.classes && a.y == b.y && a.x.rows() == b.x.rows() &&
         a.x.cols() == b.x.cols() && a.x.raw() == b.x.raw();
}

}  // namespace

TEST(DatasetBuilder, ReservoirInvariantUnderOrderAndSharding) {
  constexpr std::size_t kCandidates = 1500;
  constexpr std::size_t kCapacity = 400;
  const auto samples = make_samples(kCandidates, 23);

  const auto build_one = [&](const std::vector<RawSample>& stream) {
    DatasetBuilder builder(2, 2, kCapacity, 42);
    for (const auto& s : stream) builder.add(s.run, s.step, s.row, s.label);
    return builder.build();
  };

  const Dataset reference = build_one(samples);
  EXPECT_EQ(reference.size(), kCapacity);

  // Reversed insertion order.
  auto reversed = samples;
  std::reverse(reversed.begin(), reversed.end());
  EXPECT_TRUE(datasets_identical(reference, build_one(reversed)));

  // Arbitrary shard partitions, merged in any order.
  for (const std::size_t shards : {2u, 3u, 7u}) {
    std::vector<DatasetBuilder> parts;
    for (std::size_t s = 0; s < shards; ++s) {
      parts.emplace_back(2, 2, kCapacity, 42);
    }
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const auto& s = samples[i];
      parts[i % shards].add(s.run, s.step, s.row, s.label);
    }
    // Merge back-to-front to stress order independence.
    DatasetBuilder total(2, 2, kCapacity, 42);
    for (std::size_t s = shards; s-- > 0;) {
      total.merge(std::move(parts[s]));
    }
    EXPECT_TRUE(datasets_identical(reference, total.build()))
        << shards << " shards";
  }
}

TEST(DatasetBuilder, KeepsEverythingUnderCapacityAndSortsByRunStep) {
  const auto samples = make_samples(120, 29);
  DatasetBuilder builder(2, 2, 1000, 42);
  for (const auto& s : samples) builder.add(s.run, s.step, s.row, s.label);
  const Dataset data = builder.build();
  EXPECT_EQ(data.size(), samples.size());
  // Sorted presentation: (run, step) order == original generation order.
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(data.y[i], samples[i].label) << i;
    EXPECT_EQ(data.x.at(i, 0), samples[i].row[0]) << i;
  }
}

TEST(SequenceDatasetBuilder, ReservoirInvariantUnderSharding) {
  aps::Rng rng(31);
  const auto windows = window_mean_task(300, rng);
  constexpr std::size_t kCapacity = 90;

  const auto as_probe = [](SequenceDataset data) {
    std::vector<double> probe;
    for (const auto& seq : data.sequences) {
      probe.insert(probe.end(), seq.raw().begin(), seq.raw().end());
    }
    probe.push_back(static_cast<double>(data.size()));
    return probe;
  };

  SequenceDatasetBuilder whole(2, kCapacity, 7);
  SequenceDatasetBuilder even(2, kCapacity, 7);
  SequenceDatasetBuilder odd(2, kCapacity, 7);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    whole.add(i, 0, windows.sequences[i], windows.labels[i]);
    (i % 2 == 0 ? even : odd)
        .add(i, 0, windows.sequences[i], windows.labels[i]);
  }
  even.merge(std::move(odd));
  const auto a = as_probe(whole.build());
  const auto b = as_probe(even.build());
  EXPECT_EQ(a, b);
}

}  // namespace
