// Kernel-layer equivalence suite: every compiled backend (scalar, and
// AVX2/NEON where the binary + CPU support them) must produce float64
// results BIT-IDENTICAL to naive reference loops that replicate the
// pre-kernel ml::Matrix source verbatim, across awkward shapes (every
// dimension 1..17, the vector-width straddle 31..33, 64, 257), odd and
// even inner dimensions, misaligned operand pointers, and zero densities
// from none to all (the SIMD zero skip is compacted). adam_update is held
// to the same bit-identity against the optimizer's scalar loop. The float32
// kernels must be bitwise backend-invariant and tolerance-close to a
// float64 reference (max ulp distance is recorded per test). The in-repo
// float64 exp/sigmoid/tanh behind the gate pass and the softmax, and the
// polynomial fast_expf/fast_tanhf, carry their own accuracy and edge pins.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "ml/kernels/kernels.h"

namespace {

using namespace aps;
namespace kernels = aps::ml::kernels;

// ---- reference loops (verbatim semantics of the pre-kernel ml::Matrix) -----

void ref_gemm_accum(const double* a, const double* b, double* c,
                    std::size_t m, std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double av = a[i * k + kk];
      if (av == 0.0) continue;
      for (std::size_t j = 0; j < n; ++j) {
        c[i * n + j] += av * b[kk * n + j];
      }
    }
  }
}

void ref_gemm_tn_accum(const double* a, const double* b, double* c,
                       std::size_t rows, std::size_t m, std::size_t n) {
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t i = 0; i < m; ++i) {
      const double av = a[r * m + i];
      if (av == 0.0) continue;
      for (std::size_t j = 0; j < n; ++j) {
        c[i * n + j] += av * b[r * n + j];
      }
    }
  }
}

void ref_gemm_nt(const double* a, const double* b, double* c, std::size_t m,
                 std::size_t k, std::size_t bn) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < bn; ++j) {
      double s = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        s += a[i * k + kk] * b[j * k + kk];
      }
      c[i * bn + j] = s;
    }
  }
}

// The gate update as a naive per-element loop over the kernel layer's
// scalar transcendentals: the reference every backend's vectorized gate
// pass must reproduce bit for bit.
void ref_lstm_gates(const double* z, double* c, double* h, double* out,
                    std::size_t lanes, std::size_t hidden) {
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const double* zr = z + lane * 4 * hidden;
    double* cr = c + lane * hidden;
    double* hr = h + lane * hidden;
    double* outr = out + lane * hidden;
    for (std::size_t j = 0; j < hidden; ++j) {
      const double gi = kernels::sigmoid_f64(zr[j]);
      const double gf = kernels::sigmoid_f64(zr[hidden + j]);
      const double gg = kernels::tanh_f64(zr[2 * hidden + j]);
      const double go = kernels::sigmoid_f64(zr[3 * hidden + j]);
      cr[j] = gf * cr[j] + gi * gg;
      hr[j] = go * kernels::tanh_f64(cr[j]);
      outr[j] = hr[j];
    }
  }
}

// ---- helpers ---------------------------------------------------------------

/// The shape set: every size 1..17 (all tail lengths of every vector
/// width), the 32-straddle, and two larger panels.
const std::vector<std::size_t> kDims = {1,  2,  3,  4,  5,  6,  7,  8,
                                        9,  10, 11, 12, 13, 14, 15, 16,
                                        17, 31, 32, 33, 64, 257};

std::vector<double> random_vec(std::size_t n, Rng& rng, double zero_prob) {
  std::vector<double> v(n);
  for (auto& x : v) {
    // Sprinkle exact zeros so the legacy zero-skip branch is exercised.
    x = rng.uniform(0.0, 1.0) < zero_prob ? 0.0 : rng.gaussian(0.0, 1.0);
  }
  return v;
}

std::vector<float> random_vecf(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.gaussian(0.0, 1.0));
  return v;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool bitwise_equalf(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Ulp distance between two finite floats (0 when bit-identical).
std::int64_t ulp_distance(float a, float b) {
  std::int32_t ia = 0, ib = 0;
  std::memcpy(&ia, &a, sizeof(float));
  std::memcpy(&ib, &b, sizeof(float));
  if (ia < 0) ia = std::numeric_limits<std::int32_t>::min() - ia;
  if (ib < 0) ib = std::numeric_limits<std::int32_t>::min() - ib;
  return std::abs(static_cast<std::int64_t>(ia) - static_cast<std::int64_t>(ib));
}

/// Restore the ambient dispatch choice when a test returns or fails.
class BackendGuard {
 public:
  BackendGuard() : saved_(kernels::active_backend()) {}
  ~BackendGuard() { kernels::set_backend(saved_); }

 private:
  kernels::Backend saved_;
};

// ---- dispatch --------------------------------------------------------------

TEST(KernelDispatch, CompiledBackendsAlwaysIncludeScalar) {
  const auto backends = kernels::compiled_backends();
  ASSERT_FALSE(backends.empty());
  bool has_scalar = false;
  for (const auto b : backends) {
    if (b == kernels::Backend::kScalar) has_scalar = true;
    EXPECT_NE(std::string(kernels::to_string(b)), "unknown");
  }
  EXPECT_TRUE(has_scalar);
}

TEST(KernelDispatch, SetBackendClampsToRunnableAndReports) {
  BackendGuard guard;
  // Scalar is always settable.
  EXPECT_EQ(kernels::set_backend(kernels::Backend::kScalar),
            kernels::Backend::kScalar);
  EXPECT_EQ(kernels::active_backend(), kernels::Backend::kScalar);
  EXPECT_STREQ(kernels::backend_name(), "scalar");
  // Every compiled backend round-trips through set_backend.
  for (const auto b : kernels::compiled_backends()) {
    EXPECT_EQ(kernels::set_backend(b), b);
    EXPECT_EQ(kernels::active_backend(), b);
    EXPECT_STREQ(kernels::backend_name(), kernels::to_string(b));
  }
}

// ---- float64 bit-identity across shapes, backends, alignments --------------

TEST(KernelGemmF64, AccumBitIdenticalToLegacyLoopsAllBackends) {
  BackendGuard guard;
  Rng rng(20260808);
  for (const std::size_t m : kDims) {
    for (const std::size_t n : kDims) {
      for (const std::size_t k : {std::size_t{15}, std::size_t{16}}) {
        const auto a = random_vec(m * k, rng, 0.15);
        const auto b = random_vec(k * n, rng, 0.0);
        auto want = random_vec(m * n, rng, 0.0);  // nonzero accum start
        const auto seed = want;
        ref_gemm_accum(a.data(), b.data(), want.data(), m, k, n);
        for (const auto backend : kernels::compiled_backends()) {
          kernels::set_backend(backend);
          auto got = seed;
          kernels::gemm_accum(a.data(), b.data(), got.data(), m, k, n);
          ASSERT_TRUE(bitwise_equal(want, got))
              << "gemm_accum " << m << "x" << k << "x" << n << " backend "
              << kernels::to_string(backend);
        }
      }
    }
  }
}

TEST(KernelGemmF64, InnerDimSweepBitIdentical) {
  // k across the full shape set (odd and even), modest panels.
  BackendGuard guard;
  Rng rng(4242);
  for (const std::size_t k : kDims) {
    const std::size_t m = 5, n = 33;
    const auto a = random_vec(m * k, rng, 0.2);
    const auto b = random_vec(k * n, rng, 0.0);
    std::vector<double> want(m * n, 0.0);
    ref_gemm_accum(a.data(), b.data(), want.data(), m, k, n);
    for (const auto backend : kernels::compiled_backends()) {
      kernels::set_backend(backend);
      std::vector<double> got(m * n, 0.0);
      kernels::gemm_accum(a.data(), b.data(), got.data(), m, k, n);
      ASSERT_TRUE(bitwise_equal(want, got))
          << "k=" << k << " backend " << kernels::to_string(backend);
    }
  }
}

TEST(KernelGemmF64, TnAccumAndNtBitIdenticalAllBackends) {
  BackendGuard guard;
  Rng rng(777);
  for (const std::size_t m : kDims) {
    for (const std::size_t n : {std::size_t{7}, std::size_t{32},
                                std::size_t{33}}) {
      for (const std::size_t rows : {std::size_t{9}, std::size_t{16}}) {
        const auto at = random_vec(rows * m, rng, 0.15);
        const auto b = random_vec(rows * n, rng, 0.0);
        std::vector<double> want_tn(m * n, 0.5);
        ref_gemm_tn_accum(at.data(), b.data(), want_tn.data(), rows, m, n);
        // gemm_nt: a(m x k) * b(bn x k)^T with k = rows.
        const auto a = random_vec(m * rows, rng, 0.1);
        const auto bt = random_vec(n * rows, rng, 0.0);
        std::vector<double> want_nt(m * n);
        ref_gemm_nt(a.data(), bt.data(), want_nt.data(), m, rows, n);
        for (const auto backend : kernels::compiled_backends()) {
          kernels::set_backend(backend);
          std::vector<double> got_tn(m * n, 0.5);
          kernels::gemm_tn_accum(at.data(), b.data(), got_tn.data(), rows, m,
                                 n);
          ASSERT_TRUE(bitwise_equal(want_tn, got_tn))
              << "gemm_tn_accum rows=" << rows << " " << m << "x" << n
              << " backend " << kernels::to_string(backend);
          std::vector<double> got_nt(m * n);
          kernels::gemm_nt(a.data(), bt.data(), got_nt.data(), m, rows, n);
          ASSERT_TRUE(bitwise_equal(want_nt, got_nt))
              << "gemm_nt " << m << "x" << rows << "x" << n << " backend "
              << kernels::to_string(backend);
        }
      }
    }
  }
}

TEST(KernelGemmF64, MisalignedOperandsBitIdentical) {
  // Offset every operand by 1..3 doubles from its allocation so SIMD
  // backends see pointers off every 32-byte phase; results must not move.
  BackendGuard guard;
  Rng rng(31337);
  const std::size_t m = 13, k = 17, n = 33;
  for (std::size_t off = 1; off <= 3; ++off) {
    auto a = random_vec(m * k + off, rng, 0.1);
    auto b = random_vec(k * n + off, rng, 0.0);
    auto c = random_vec(m * n + off, rng, 0.0);
    std::vector<double> want(c.begin() + static_cast<long>(off), c.end());
    ref_gemm_accum(a.data() + off, b.data() + off, want.data(), m, k, n);
    for (const auto backend : kernels::compiled_backends()) {
      kernels::set_backend(backend);
      auto got = c;
      kernels::gemm_accum(a.data() + off, b.data() + off, got.data() + off,
                          m, k, n);
      ASSERT_TRUE(bitwise_equal(
          want, {got.begin() + static_cast<long>(off), got.end()}))
          << "offset " << off << " backend " << kernels::to_string(backend);
    }
  }
}

// The SIMD backends take the zero skip through a compacted list of nonzero
// indices (rows of a for gemm_accum, columns for gemm_tn_accum) and run
// rows/columns without a zero through a skip-free path. Sweep the zero
// density from none to all, with one all-zero and one zero-free row in
// every operand, signed zeros as multipliers, -0.0 accumulator starts
// (which only a skipped term leaves negative), n across the 32-column tile
// and its tails, and k = 257 so the index list outgrows 256 entries.
TEST(KernelGemmF64, CompactedZeroSkipBitIdenticalAcrossDensities) {
  BackendGuard guard;
  Rng rng(9001);
  const std::size_t m = 6;
  for (const double density : {0.0, 0.5, 0.9, 1.0}) {
    for (const std::size_t k : {std::size_t{7}, std::size_t{64},
                                std::size_t{257}}) {
      for (const std::size_t n :
           {std::size_t{1}, std::size_t{4}, std::size_t{31}, std::size_t{32},
            std::size_t{33}, std::size_t{63}, std::size_t{64},
            std::size_t{65}, std::size_t{128}}) {
        // a (m x k) and its transpose at (k x m) for gemm_tn_accum.
        std::vector<double> a(m * k), at(k * m);
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t kk = 0; kk < k; ++kk) {
            double v = rng.gaussian(0.0, 1.0);
            const bool zero =
                i == 0 || (i != 1 && rng.uniform(0.0, 1.0) < density);
            if (zero) v = rng.uniform(0.0, 1.0) < 0.5 ? 0.0 : -0.0;
            a[i * k + kk] = v;
            at[kk * m + i] = v;
          }
        }
        auto seed = random_vec(m * n, rng, 0.0);
        for (std::size_t i = 0; i < seed.size(); i += 3) seed[i] = -0.0;
        const auto b = random_vec(k * n, rng, 0.0);
        auto want = seed;
        ref_gemm_accum(a.data(), b.data(), want.data(), m, k, n);
        auto want_tn = seed;
        ref_gemm_tn_accum(at.data(), b.data(), want_tn.data(), k, m, n);
        for (const auto backend : kernels::compiled_backends()) {
          kernels::set_backend(backend);
          const std::string where =
              "density=" + std::to_string(density) + " k=" +
              std::to_string(k) + " n=" + std::to_string(n) + " backend " +
              kernels::to_string(backend);
          auto got = seed;
          kernels::gemm_accum(a.data(), b.data(), got.data(), m, k, n);
          ASSERT_TRUE(bitwise_equal(want, got)) << "gemm_accum " << where;
          auto got_tn = seed;
          kernels::gemm_tn_accum(at.data(), b.data(), got_tn.data(), k, m, n);
          ASSERT_TRUE(bitwise_equal(want_tn, got_tn))
              << "gemm_tn_accum " << where;
        }
        // Row 0 is all zeros: its accumulator starts, -0.0 included, must
        // come back untouched.
        ASSERT_TRUE(std::signbit(want[0]));
      }
    }
  }
}

// A term whose multiplier is zero is skipped, not computed: an inf or NaN
// in the right-hand operand under a zero (+0.0 or -0.0) multiplier must
// never reach the output, exactly as in the legacy loop. A NaN multiplier
// is not zero, so it is not skipped: its row comes out NaN.
TEST(KernelGemmF64, NonFiniteOperandUnderZeroMultiplierStaysSkipped) {
  BackendGuard guard;
  Rng rng(4711);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::size_t n : {std::size_t{5}, std::size_t{33},
                              std::size_t{64}}) {
    const std::size_t m = 4, k = 9, poisoned = 3;
    auto a = random_vec(m * k, rng, 0.3);
    std::vector<double> at(k * m);
    a[(m - 1) * k] = nan;
    for (std::size_t i = 0; i < m; ++i) {
      a[i * k + poisoned] = i % 2 == 0 ? 0.0 : -0.0;
      for (std::size_t kk = 0; kk < k; ++kk) at[kk * m + i] = a[i * k + kk];
    }
    auto b = random_vec(k * n, rng, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      b[poisoned * n + j] = j % 3 == 0 ? inf : (j % 3 == 1 ? -inf : nan);
    }
    for (const auto backend : kernels::compiled_backends()) {
      kernels::set_backend(backend);
      std::vector<double> got(m * n, 0.0);
      kernels::gemm_accum(a.data(), b.data(), got.data(), m, k, n);
      std::vector<double> got_tn(m * n, 0.0);
      kernels::gemm_tn_accum(at.data(), b.data(), got_tn.data(), k, m, n);
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (i >= (m - 1) * n) {
          ASSERT_TRUE(std::isnan(got[i]) && std::isnan(got_tn[i]));
          continue;
        }
        ASSERT_TRUE(std::isfinite(got[i]))
            << "gemm_accum n=" << n << " backend "
            << kernels::to_string(backend);
        ASSERT_TRUE(std::isfinite(got_tn[i]))
            << "gemm_tn_accum n=" << n << " backend "
            << kernels::to_string(backend);
      }
      std::vector<double> want(m * n, 0.0);
      ref_gemm_accum(a.data(), b.data(), want.data(), m, k, n);
      ASSERT_TRUE(bitwise_equal(want, got));
      ASSERT_TRUE(bitwise_equal(want, got_tn));
    }
  }
}

/// Widths around where the SIMD backends start blocking rows (k >= 16 and
/// b at least 48 KB): the first multiple of 8 columns past that size, one
/// column short of it, and the 4-column and scalar tails after it.
std::vector<std::size_t> block_widths(std::size_t k, std::size_t elem) {
  const std::size_t first = (48 * 1024 / (k * elem) + 7) / 8 * 8;
  return {first - 1, first, first + 1, first + 3, first + 4, first + 7};
}

/// Row counts for the blocks: one and two full six-row blocks, four- and
/// five-row tail blocks, and the one to three rows left after either.
const std::vector<std::size_t> kBlockRowCounts = {1, 2,  3,  4,  5,  6, 7,
                                                  9, 10, 11, 13, 17, 64};

// The dense row blocks: dense rows (no zero multiplier) share every load of
// b. Fully dense a at every width; then a zero (+0.0 or -0.0) in every 3rd
// or 5th row, so blocks gather across the sparse rows and the dense rows
// left at the end vary.
TEST(KernelGemmF64, DenseRowBlocksBitIdenticalAllBackends) {
  BackendGuard guard;
  Rng rng(31337);
  const auto check = [&](std::size_t m, std::size_t k, std::size_t n,
                         std::size_t sparse_every) {
    auto a = random_vec(m * k, rng, 0.0);
    for (std::size_t i = 0; sparse_every != 0 && i < m; ++i) {
      if (i % sparse_every != sparse_every - 1) continue;
      a[i * k + rng.uniform_int(0, static_cast<int>(k) - 1)] =
          i % 2 == 0 ? 0.0 : -0.0;
    }
    const auto b = random_vec(k * n, rng, 0.0);
    auto want = random_vec(m * n, rng, 0.0);
    const auto seed = want;
    ref_gemm_accum(a.data(), b.data(), want.data(), m, k, n);
    for (const auto backend : kernels::compiled_backends()) {
      kernels::set_backend(backend);
      auto got = seed;
      kernels::gemm_accum(a.data(), b.data(), got.data(), m, k, n);
      ASSERT_TRUE(bitwise_equal(want, got))
          << "gemm_accum " << m << "x" << k << "x" << n << " zero every "
          << sparse_every << " rows, backend " << kernels::to_string(backend);
    }
  };
  for (const std::size_t k : {std::size_t{16}, std::size_t{17},
                              std::size_t{64}, std::size_t{128}}) {
    const auto widths = block_widths(k, sizeof(double));
    for (const std::size_t m : kBlockRowCounts) {
      for (const std::size_t n : widths) check(m, k, n, 0);
      for (const std::size_t sparse_every : {3, 5}) {
        if (sparse_every <= m) check(m, k, widths[1], sparse_every);
      }
    }
  }
}

// A row with a zero multiplier between dense rows keeps its skip inside
// the blocked path: the inf and NaN of b under that zero never reach the
// output, and the dense rows on either side come out as in the legacy
// loop.
TEST(KernelGemmF64, NonFiniteUnderZeroBetweenDenseRowBlocks) {
  BackendGuard guard;
  Rng rng(2024);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::size_t m = 13, k = 64, poisoned = 11, sparse_row = 6;
  for (const std::size_t n : block_widths(k, sizeof(double))) {
    auto a = random_vec(m * k, rng, 0.0);
    a[sparse_row * k + poisoned] = -0.0;
    auto b = random_vec(k * n, rng, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      b[poisoned * n + j] = j % 2 == 0 ? inf : nan;
    }
    std::vector<double> want(m * n, 0.0);
    ref_gemm_accum(a.data(), b.data(), want.data(), m, k, n);
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_TRUE(std::isfinite(want[sparse_row * n + j]));
    }
    for (const auto backend : kernels::compiled_backends()) {
      kernels::set_backend(backend);
      std::vector<double> got(m * n, 0.0);
      kernels::gemm_accum(a.data(), b.data(), got.data(), m, k, n);
      ASSERT_TRUE(bitwise_equal(want, got))
          << "n=" << n << " backend " << kernels::to_string(backend);
    }
  }
}

TEST(KernelElementwiseF64, PassesMatchReferenceAllBackends) {
  BackendGuard guard;
  Rng rng(5150);
  const std::size_t rows = 9, cols = 33;
  const auto bias = random_vec(cols, rng, 0.0);
  const auto base = random_vec(rows * cols, rng, 0.0);
  for (const auto backend : kernels::compiled_backends()) {
    kernels::set_backend(backend);
    // add_bias_rows / fill_bias_rows.
    auto z = base;
    kernels::add_bias_rows(z.data(), bias.data(), rows, cols);
    auto zf = base;
    kernels::fill_bias_rows(zf.data(), bias.data(), rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        ASSERT_EQ(z[r * cols + c], base[r * cols + c] + bias[c]);
        ASSERT_EQ(zf[r * cols + c], bias[c]);
      }
    }
    // relu keeps -0.0 and NaN (legacy `v < 0 ? unchanged-to-0 : v`
    // semantics); 9 elements so vector bodies and tails both see them.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> x = {-1.5, -0.0, 0.0, 2.5, -1e-300,
                             3.0,  nan,  -0.0, -7.0};
    kernels::relu(x.data(), x.size());
    EXPECT_EQ(x[0], 0.0);
    EXPECT_FALSE(std::signbit(x[0]));
    EXPECT_TRUE(std::signbit(x[1]));  // -0.0 is not < 0: passes through
    EXPECT_EQ(x[3], 2.5);
    EXPECT_EQ(x[4], 0.0);
    EXPECT_TRUE(std::isnan(x[6]));  // NaN is not < 0: passes through
    EXPECT_TRUE(std::signbit(x[7]));
    EXPECT_EQ(x[8], 0.0);
    std::vector<float> xf = {-1.5f, -0.0f, 2.5f, std::nanf(""), -3.0f,
                             0.0f,  4.0f,  -0.0f, -1e-30f};
    kernels::relu_f32(xf.data(), xf.size());
    EXPECT_EQ(xf[0], 0.0f);
    EXPECT_TRUE(std::signbit(xf[1]));
    EXPECT_EQ(xf[2], 2.5f);
    EXPECT_TRUE(std::isnan(xf[3]));
    EXPECT_EQ(xf[4], 0.0f);
    EXPECT_TRUE(std::signbit(xf[7]));
    EXPECT_EQ(xf[8], 0.0f);
    // affine is the exact subtraction rewrite used by learn/.
    const auto mu = random_vec(257, rng, 0.0);
    std::vector<double> margins(mu.size());
    const double beta = 1.25;
    kernels::affine(mu.data(), -1.0, beta, margins.data(), mu.size());
    for (std::size_t i = 0; i < mu.size(); ++i) {
      ASSERT_EQ(margins[i], beta - mu[i]) << i;
    }
    // transpose round-trips.
    const std::size_t tr = 33, tc = 17;
    const auto src = random_vec(tr * tc, rng, 0.0);
    std::vector<double> dst(tc * tr), back(tr * tc);
    kernels::transpose(src.data(), dst.data(), tr, tc);
    kernels::transpose(dst.data(), back.data(), tc, tr);
    ASSERT_TRUE(bitwise_equal(src, back));
    for (std::size_t r = 0; r < tr; ++r) {
      for (std::size_t c = 0; c < tc; ++c) {
        ASSERT_EQ(dst[c * tr + r], src[r * tc + c]);
      }
    }
  }
}

// adam_update vectorizes the optimizer's expression sequence with vector
// mul/add/div/sqrt, all correctly rounded: every backend must match the
// legacy per-element loop bit for bit, over lengths that leave every
// partial-vector tail, for Adam and for the SGD-like setting the training
// goldens use.
TEST(KernelAdamF64, UpdateBitIdenticalToScalarLoopAllBackends) {
  BackendGuard guard;
  Rng rng(2718);
  struct Config {
    double lr, beta1, beta2, epsilon;
  };
  for (const Config cfg : {Config{0.001, 0.9, 0.999, 1e-8},
                           Config{1e3, 0.0, 0.999, 1e3}}) {
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
          std::size_t{5}, std::size_t{7}, std::size_t{9}, std::size_t{33},
          std::size_t{257}}) {
      for (const long t : {1L, 2L, 37L}) {
        const auto p0 = random_vec(n, rng, 0.0);
        const auto m0 = random_vec(n, rng, 0.2);
        auto v0 = random_vec(n, rng, 0.2);
        for (auto& x : v0) x = x * x;
        const auto g = random_vec(n, rng, 0.2);
        kernels::AdamStep step;
        step.learning_rate = cfg.lr;
        step.beta1 = cfg.beta1;
        step.beta2 = cfg.beta2;
        step.epsilon = cfg.epsilon;
        step.bc1 = 1.0 - std::pow(cfg.beta1, static_cast<double>(t));
        step.bc2 = 1.0 - std::pow(cfg.beta2, static_cast<double>(t));
        auto want_p = p0, want_m = m0, want_v = v0;
        for (std::size_t i = 0; i < n; ++i) {
          want_m[i] = cfg.beta1 * want_m[i] + (1.0 - cfg.beta1) * g[i];
          want_v[i] = cfg.beta2 * want_v[i] + (1.0 - cfg.beta2) * g[i] * g[i];
          const double mhat = want_m[i] / step.bc1;
          const double vhat = want_v[i] / step.bc2;
          want_p[i] -= cfg.lr * mhat / (std::sqrt(vhat) + cfg.epsilon);
        }
        for (const auto backend : kernels::compiled_backends()) {
          kernels::set_backend(backend);
          auto p = p0, mm = m0, v = v0;
          kernels::adam_update(p.data(), mm.data(), v.data(), g.data(), n,
                               step);
          const std::string where = "n=" + std::to_string(n) +
                                    " t=" + std::to_string(t) + " backend " +
                                    kernels::to_string(backend);
          ASSERT_TRUE(bitwise_equal(want_p, p)) << "param " << where;
          ASSERT_TRUE(bitwise_equal(want_m, mm)) << "m " << where;
          ASSERT_TRUE(bitwise_equal(want_v, v)) << "v " << where;
        }
      }
    }
  }
}

TEST(KernelLstmGatesF64, BitIdenticalToNaiveGateLoopAllBackends) {
  BackendGuard guard;
  Rng rng(808);
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}}) {
    for (const std::size_t hidden : {std::size_t{3}, std::size_t{8},
                                     std::size_t{17}}) {
      // Pre-activations up to about +-24, past where the gates saturate.
      auto z = random_vec(lanes * 4 * hidden, rng, 0.05);
      for (auto& v : z) v *= 6.0;
      const auto c0 = random_vec(lanes * hidden, rng, 0.0);
      const auto h0 = random_vec(lanes * hidden, rng, 0.0);
      auto cw = c0, hw = h0;
      std::vector<double> outw(lanes * hidden);
      ref_lstm_gates(z.data(), cw.data(), hw.data(), outw.data(), lanes,
                     hidden);
      for (const auto backend : kernels::compiled_backends()) {
        kernels::set_backend(backend);
        auto cg = c0, hg = h0;
        std::vector<double> outg(lanes * hidden);
        kernels::lstm_gates(z.data(), cg.data(), hg.data(), outg.data(),
                            lanes, hidden);
        ASSERT_TRUE(bitwise_equal(cw, cg) && bitwise_equal(hw, hg) &&
                    bitwise_equal(outw, outg))
            << "lanes=" << lanes << " hidden=" << hidden << " backend "
            << kernels::to_string(backend);
      }
    }
  }
}

// The training pass caches what the inference pass computes: the same
// c and h bit for bit, with i/f/g/o/tanh_c from the same scalar functions,
// and a null c_prev (t = 0) reads as a zero cell state.
TEST(KernelLstmGatesF64, CachedPassMatchesInferencePassAllBackends) {
  BackendGuard guard;
  Rng rng(909);
  const std::size_t lanes = 9, hidden = 13, n = lanes * hidden;
  auto z = random_vec(lanes * 4 * hidden, rng, 0.05);
  for (auto& v : z) v *= 6.0;
  const auto c_prev = random_vec(n, rng, 0.0);
  for (const bool first : {true, false}) {
    std::vector<double> cw = first ? std::vector<double>(n, 0.0) : c_prev;
    std::vector<double> hw(n), outw(n);
    ref_lstm_gates(z.data(), cw.data(), hw.data(), outw.data(), lanes,
                   hidden);
    for (const auto backend : kernels::compiled_backends()) {
      kernels::set_backend(backend);
      // Outputs start as NaN, so an output the pass reads before writing
      // it, or never writes, shows up as a mismatch.
      const double nan = std::numeric_limits<double>::quiet_NaN();
      std::vector<double> i(n, nan), f(n, nan), g(n, nan), o(n, nan),
          c(n, nan), tanh_c(n, nan), h(n, nan);
      kernels::lstm_gates_cached(
          z.data(), first ? nullptr : c_prev.data(),
          {i.data(), f.data(), g.data(), o.data(), c.data(), tanh_c.data(),
           h.data()},
          lanes, hidden);
      const std::string where = std::string("backend ") +
                                kernels::to_string(backend) +
                                (first ? " t=0" : " t>0");
      ASSERT_TRUE(bitwise_equal(cw, c) && bitwise_equal(hw, h)) << where;
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        for (std::size_t j = 0; j < hidden; ++j) {
          const double* zr = z.data() + lane * 4 * hidden;
          const std::size_t at = lane * hidden + j;
          ASSERT_EQ(i[at], kernels::sigmoid_f64(zr[j])) << where;
          ASSERT_EQ(f[at], kernels::sigmoid_f64(zr[hidden + j])) << where;
          ASSERT_EQ(g[at], kernels::tanh_f64(zr[2 * hidden + j])) << where;
          ASSERT_EQ(o[at], kernels::sigmoid_f64(zr[3 * hidden + j]))
              << where;
          ASSERT_EQ(tanh_c[at], kernels::tanh_f64(c[at])) << where;
        }
      }
    }
  }
}

// ---- float32: backend-invariant bitwise, tolerance vs float64 --------------

TEST(KernelGemmF32, BackendInvariantBitwiseAndUlpCloseToF64) {
  BackendGuard guard;
  Rng rng(2718);
  std::int64_t max_ulp = 0;
  for (const std::size_t m : {std::size_t{1}, std::size_t{7},
                              std::size_t{33}, std::size_t{64}}) {
    for (const std::size_t n : {std::size_t{5}, std::size_t{32},
                                std::size_t{257}}) {
      for (const std::size_t k : {std::size_t{15}, std::size_t{16}}) {
        const auto a = random_vecf(m * k, rng);
        const auto b = random_vecf(k * n, rng);
        // Scalar backend is the bitwise reference for f32.
        kernels::set_backend(kernels::Backend::kScalar);
        std::vector<float> want(m * n, 0.0f);
        kernels::gemm_accum_f32(a.data(), b.data(), want.data(), m, k, n);
        for (const auto backend : kernels::compiled_backends()) {
          kernels::set_backend(backend);
          std::vector<float> got(m * n, 0.0f);
          kernels::gemm_accum_f32(a.data(), b.data(), got.data(), m, k, n);
          ASSERT_TRUE(bitwise_equalf(want, got))
              << "gemm_accum_f32 " << m << "x" << k << "x" << n
              << " backend " << kernels::to_string(backend);
        }
        // Error vs the same product accumulated in double. Raw ulp
        // distance blows up on cancelling sums (a tiny result has tiny
        // ulps), so the asserted bound is conditioned on sum(|a||b|);
        // max ulp is recorded for the log only.
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            double s = 0.0, mag = 0.0;
            for (std::size_t kk = 0; kk < k; ++kk) {
              const double prod = static_cast<double>(a[i * k + kk]) *
                                  static_cast<double>(b[kk * n + j]);
              s += prod;
              mag += std::abs(prod);
            }
            max_ulp = std::max(
                max_ulp,
                ulp_distance(want[i * n + j], static_cast<float>(s)));
            const double err =
                std::abs(static_cast<double>(want[i * n + j]) - s);
            ASSERT_LE(err, 1e-5 * (mag + 1.0))
                << m << "x" << k << "x" << n << " element (" << i << ","
                << j << ")";
          }
        }
      }
    }
  }
  RecordProperty("max_ulp_vs_f64", static_cast<int>(max_ulp));
}

// The float32 row blocks (float32 has no zero skip, so every run of rows
// is a block): bitwise equal to the scalar backend with a nonzero
// accumulator start.
TEST(KernelGemmF32, RowBlocksBackendInvariantBitwise) {
  BackendGuard guard;
  Rng rng(16180);
  for (const std::size_t k : {std::size_t{17}, std::size_t{64},
                              std::size_t{128}}) {
    for (const std::size_t n : block_widths(k, sizeof(float))) {
      for (const std::size_t m : kBlockRowCounts) {
        const auto a = random_vecf(m * k, rng);
        const auto b = random_vecf(k * n, rng);
        const auto seed = random_vecf(m * n, rng);
        kernels::set_backend(kernels::Backend::kScalar);
        auto want = seed;
        kernels::gemm_accum_f32(a.data(), b.data(), want.data(), m, k, n);
        for (const auto backend : kernels::compiled_backends()) {
          kernels::set_backend(backend);
          auto got = seed;
          kernels::gemm_accum_f32(a.data(), b.data(), got.data(), m, k, n);
          ASSERT_TRUE(bitwise_equalf(want, got))
              << "gemm_accum_f32 " << m << "x" << k << "x" << n
              << " backend " << kernels::to_string(backend);
        }
      }
    }
  }
}

TEST(KernelLstmGatesF32, BackendInvariantBitwise) {
  BackendGuard guard;
  Rng rng(161803);
  const std::size_t lanes = 33, hidden = 17;
  const auto z = random_vecf(lanes * 4 * hidden, rng);
  const auto c0 = random_vecf(lanes * hidden, rng);
  const auto h0 = random_vecf(lanes * hidden, rng);
  kernels::set_backend(kernels::Backend::kScalar);
  auto cw = c0, hw = h0;
  std::vector<float> outw(lanes * hidden);
  kernels::lstm_gates_f32(z.data(), cw.data(), hw.data(), outw.data(), lanes,
                          hidden);
  for (const auto backend : kernels::compiled_backends()) {
    kernels::set_backend(backend);
    auto cg = c0, hg = h0;
    std::vector<float> outg(lanes * hidden);
    kernels::lstm_gates_f32(z.data(), cg.data(), hg.data(), outg.data(),
                            lanes, hidden);
    ASSERT_TRUE(bitwise_equalf(cw, cg) && bitwise_equalf(hw, hg) &&
                bitwise_equalf(outw, outg))
        << "backend " << kernels::to_string(backend);
  }
}

TEST(KernelFastMath, PolynomialExpAndTanhAccuracyPins) {
  // Dense sweep of the serving-relevant range plus the clamp edges. The
  // Cephes-style polynomial is good to ~2e-7 relative; pin at 1e-6 so a
  // coefficient regression trips long before the 1e-4 serving tolerance.
  double max_rel_exp = 0.0, max_err_tanh = 0.0;
  for (int i = -20000; i <= 20000; ++i) {
    const float x = static_cast<float>(i) * 1e-3f;  // [-20, 20]
    const double e = std::exp(static_cast<double>(x));
    const double rel =
        std::abs(static_cast<double>(kernels::fast_expf(x)) - e) / e;
    max_rel_exp = std::max(max_rel_exp, rel);
    const double t = std::tanh(static_cast<double>(x));
    max_err_tanh = std::max(
        max_err_tanh,
        std::abs(static_cast<double>(kernels::fast_tanhf(x)) - t));
  }
  RecordProperty("max_rel_err_expf_e9", static_cast<int>(max_rel_exp * 1e9));
  EXPECT_LT(max_rel_exp, 1e-6);
  EXPECT_LT(max_err_tanh, 1e-6);
  // Clamp edges: no inf/NaN anywhere near the float range limits. The
  // argument clamp bottoms out at ~exp(-87.3) (the smallest normal), not
  // exactly zero — what matters is that it underflows monotonically.
  EXPECT_LE(kernels::fast_expf(-200.0f), 1.2e-38f);
  EXPECT_TRUE(std::isfinite(kernels::fast_expf(88.0f)));
  EXPECT_TRUE(std::isfinite(kernels::fast_expf(1000.0f)));
  EXPECT_EQ(kernels::fast_tanhf(40.0f), 1.0f);
  EXPECT_EQ(kernels::fast_tanhf(-40.0f), -1.0f);
  EXPECT_EQ(kernels::fast_expf(0.0f), 1.0f);
  EXPECT_EQ(kernels::fast_tanhf(0.0f), 0.0f);
}

// ---- float64 transcendentals: accuracy and edge cases ----------------------

/// Error of `got` in units in the last place of the double nearest the
/// long double reference (subnormal ulps below the normal range).
double ulp_error(double got, long double ref) {
  int e = 0;
  (void)std::frexp(ref, &e);
  const long double ulp = std::ldexp(1.0L, std::max(e - 53, -1074));
  return static_cast<double>(std::fabs(static_cast<long double>(got) - ref) /
                             ulp);
}

// Stated bounds: exp_f64 <= 2 ulp, sigmoid_f64 <= 2.5 ulp, tanh_f64 <= 1.5
// ulp against a long double reference, over a grid that spans the whole
// finite domain: a fine sweep of [-40, 40] (both sigmoid tails saturate
// there), a coarser sweep of exp's full [-746, 710] range including the
// subnormal results below -708, and subnormal and tiny arguments. Measured
// on x86-64 (80-bit long double): 1.57, 2.22 and 1.02 ulp on this grid, and
// 1.68, 2.43 and 1.33 on a sweep of [-20, 20] at 1e-5 plus [-800, 800] at
// 1e-3.
TEST(KernelMathF64, UlpBoundsAgainstLongDoubleReference) {
  if (std::numeric_limits<long double>::digits <= 53) {
    GTEST_SKIP() << "long double has no extra precision here";
  }
  std::vector<double> xs;
  for (int i = -40000; i <= 40000; ++i) xs.push_back(i * 1e-3);
  for (int i = -74600; i <= 71000; ++i) xs.push_back(i * 1e-2 + 3.7e-5);
  for (int k = -1074; k <= -1000; ++k) {
    xs.push_back(std::ldexp(1.0, k));
    xs.push_back(-std::ldexp(1.0, k));
    xs.push_back(std::ldexp(1.0, k / 2));
    xs.push_back(-std::ldexp(1.0, k / 2));
  }
  double max_exp = 0.0, max_sig = 0.0, max_tanh = 0.0;
  for (const double x : xs) {
    const long double lx = x;
    // Results past the double range are pinned exactly below.
    if (x < 709.7) {
      max_exp = std::max(max_exp, ulp_error(kernels::exp_f64(x), expl(lx)));
    }
    max_sig = std::max(max_sig, ulp_error(kernels::sigmoid_f64(x),
                                          1.0L / (1.0L + expl(-lx))));
    max_tanh = std::max(max_tanh, ulp_error(kernels::tanh_f64(x), tanhl(lx)));
    ASSERT_EQ(kernels::tanh_f64(-x), -kernels::tanh_f64(x)) << x;
  }
  RecordProperty("max_ulp_exp_e3", static_cast<int>(max_exp * 1e3));
  RecordProperty("max_ulp_sigmoid_e3", static_cast<int>(max_sig * 1e3));
  RecordProperty("max_ulp_tanh_e3", static_cast<int>(max_tanh * 1e3));
  EXPECT_LE(max_exp, 2.0);
  EXPECT_LE(max_sig, 2.5);
  EXPECT_LE(max_tanh, 1.5);
}

TEST(KernelMathF64, EdgeCasesNaNZerosInfinitiesSaturation) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(std::isnan(kernels::exp_f64(kNaN)));
  EXPECT_TRUE(std::isnan(kernels::sigmoid_f64(kNaN)));
  EXPECT_TRUE(std::isnan(kernels::tanh_f64(kNaN)));
  EXPECT_TRUE(std::isnan(kernels::tanh_f64(-kNaN)));

  EXPECT_EQ(kernels::exp_f64(0.0), 1.0);
  EXPECT_EQ(kernels::exp_f64(-0.0), 1.0);
  EXPECT_EQ(kernels::exp_f64(kInf), kInf);
  EXPECT_EQ(kernels::exp_f64(710.0), kInf);
  EXPECT_TRUE(std::isfinite(kernels::exp_f64(709.78)));
  EXPECT_EQ(kernels::exp_f64(-kInf), 0.0);
  EXPECT_EQ(kernels::exp_f64(-746.0), 0.0);
  // Gradual underflow: the smallest subnormal, not a flush to zero.
  EXPECT_EQ(kernels::exp_f64(-745.13), std::ldexp(1.0, -1074));

  EXPECT_EQ(kernels::sigmoid_f64(0.0), 0.5);
  EXPECT_EQ(kernels::sigmoid_f64(-0.0), 0.5);
  EXPECT_EQ(kernels::sigmoid_f64(40.0), 1.0);
  EXPECT_EQ(kernels::sigmoid_f64(kInf), 1.0);
  EXPECT_EQ(kernels::sigmoid_f64(-750.0), 0.0);
  EXPECT_EQ(kernels::sigmoid_f64(-kInf), 0.0);
  EXPECT_GT(kernels::sigmoid_f64(-740.0), 0.0);  // subnormal, not 0

  EXPECT_EQ(kernels::tanh_f64(0.0), 0.0);
  EXPECT_FALSE(std::signbit(kernels::tanh_f64(0.0)));
  EXPECT_EQ(kernels::tanh_f64(-0.0), 0.0);
  EXPECT_TRUE(std::signbit(kernels::tanh_f64(-0.0)));
  EXPECT_EQ(kernels::tanh_f64(20.0), 1.0);
  EXPECT_EQ(kernels::tanh_f64(-20.0), -1.0);
  EXPECT_EQ(kernels::tanh_f64(kInf), 1.0);
  EXPECT_EQ(kernels::tanh_f64(-kInf), -1.0);
  EXPECT_EQ(kernels::tanh_f64(1e-300), 1e-300);
  EXPECT_EQ(kernels::tanh_f64(-1e-300), -1e-300);
}

// The float32 serving transcendentals get the same edge pins. fast_expf
// clamps its argument to the normal range, so it never reaches 0 or inf.
TEST(KernelFastMath, EdgeCasesNaNZerosInfinitiesSaturation) {
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(std::isnan(kernels::fast_expf(kNaN)));
  EXPECT_TRUE(std::isnan(kernels::fast_tanhf(kNaN)));
  EXPECT_EQ(kernels::fast_expf(-0.0f), 1.0f);
  EXPECT_TRUE(std::isfinite(kernels::fast_expf(kInf)));
  EXPECT_GE(kernels::fast_expf(-kInf), 0.0f);
  EXPECT_LE(kernels::fast_expf(-kInf), 1.2e-38f);
  EXPECT_FALSE(std::signbit(kernels::fast_tanhf(0.0f)));
  EXPECT_EQ(kernels::fast_tanhf(-0.0f), 0.0f);
  EXPECT_TRUE(std::signbit(kernels::fast_tanhf(-0.0f)));
  EXPECT_EQ(kernels::fast_tanhf(kInf), 1.0f);
  EXPECT_EQ(kernels::fast_tanhf(-kInf), -1.0f);
  // A NaN pre-activation (inf - inf in the f32 GEMM) stays NaN through the
  // fused gate pass on every backend instead of reaching undefined
  // behaviour in the exponent arithmetic.
  BackendGuard guard;
  const std::vector<float> z = {kNaN, 0.5f, -0.25f, 1.0f};
  for (const auto backend : kernels::compiled_backends()) {
    kernels::set_backend(backend);
    std::vector<float> c = {0.5f}, h = {0.0f}, out = {0.0f};
    kernels::lstm_gates_f32(z.data(), c.data(), h.data(), out.data(), 1, 1);
    EXPECT_TRUE(std::isnan(c[0]) && std::isnan(h[0]) && std::isnan(out[0]))
        << kernels::to_string(backend);
  }
}

// ---- concurrency ("threads" label; TSan job rides this suite) --------------

TEST(KernelThreads, ConcurrentGemmCallsAreIndependent) {
  // Four threads hammer gemm_accum + gemm_nt (the one kernel with
  // thread_local pack scratch) on different shapes; every result must
  // match its single-threaded reference. Backend stays fixed (the dispatch
  // slot is read-only concurrently — set_backend is not called here).
  constexpr int kThreads = 4;
  constexpr int kIters = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &failures] {
      Rng rng(1000 + static_cast<std::uint64_t>(t));
      const std::size_t m = 3 + static_cast<std::size_t>(t) * 5;
      const std::size_t k = 11 + static_cast<std::size_t>(t);
      const std::size_t n = 17 + static_cast<std::size_t>(t) * 8;
      for (int it = 0; it < kIters; ++it) {
        const auto a = random_vec(m * k, rng, 0.1);
        const auto b = random_vec(k * n, rng, 0.0);
        std::vector<double> want(m * n, 0.0), got(m * n, 0.0);
        ref_gemm_accum(a.data(), b.data(), want.data(), m, k, n);
        kernels::gemm_accum(a.data(), b.data(), got.data(), m, k, n);
        if (!bitwise_equal(want, got)) failures.fetch_add(1);
        const auto bt = random_vec(n * k, rng, 0.0);
        std::vector<double> want_nt(m * n), got_nt(m * n);
        ref_gemm_nt(a.data(), bt.data(), want_nt.data(), m, k, n);
        kernels::gemm_nt(a.data(), bt.data(), got_nt.data(), m, k, n);
        if (!bitwise_equal(want_nt, got_nt)) failures.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
