// Dispatch plus the scalar backend. The scalar kernels below are the
// reference the SIMD backends are pinned against, and tests/kernels_test.cpp
// pins them bit-identical to hand-written naive loops.
#include "ml/kernels/kernels.h"

#include <atomic>
#include <cstdlib>
#include <limits>
#include <string>

#include "ml/kernels/kernels_detail.h"

namespace aps::ml::kernels {

namespace {

bool runnable(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
#if defined(APS_HAVE_AVX2)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Backend::kNeon:
#if defined(__aarch64__)
      return true;
#else
      return false;
#endif
  }
  return false;
}

Backend best_available() {
  if (runnable(Backend::kAvx2)) return Backend::kAvx2;
  if (runnable(Backend::kNeon)) return Backend::kNeon;
  return Backend::kScalar;
}

Backend initial_backend() {
  if (const char* env = std::getenv("APS_KERNELS")) {
    const std::string v(env);
    if (v == "scalar") return Backend::kScalar;
    if (v == "avx2") return runnable(Backend::kAvx2) ? Backend::kAvx2
                                                     : Backend::kScalar;
    if (v == "neon") return runnable(Backend::kNeon) ? Backend::kNeon
                                                     : Backend::kScalar;
    // Unknown value: fall through to auto-detection.
  }
  return best_available();
}

std::atomic<Backend>& backend_slot() {
  static std::atomic<Backend> slot{initial_backend()};
  return slot;
}

// ---- scalar backend --------------------------------------------------------

namespace scalar {

// i-outer, ascending k with the zero skip, j innermost.
void gemm_accum(const double* a, const double* b, double* c, std::size_t m,
                std::size_t kd, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a + i * kd;
    double* crow = c + i * n;
    for (std::size_t k = 0; k < kd; ++k) {
      const double aik = arow[k];
      if (aik == 0.0) continue;
      const double* brow = b + k * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

// r-outer (rows of a/b), i middle with the zero skip on a(r, i), j
// innermost.
void gemm_tn_accum(const double* a, const double* b, double* c,
                   std::size_t rows, std::size_t m, std::size_t n) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* arow = a + r * m;
    const double* brow = b + r * n;
    for (std::size_t i = 0; i < m; ++i) {
      const double ari = arow[i];
      if (ari == 0.0) continue;
      double* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += ari * brow[j];
    }
  }
}

// Per-element dot product in ascending k, local accumulator, no zero
// skip.
void gemm_nt(const double* a, const double* b, double* c, std::size_t m,
             std::size_t kd, std::size_t bn) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a + i * kd;
    double* crow = c + i * bn;
    for (std::size_t j = 0; j < bn; ++j) {
      const double* brow = b + j * kd;
      double s = 0.0;
      for (std::size_t k = 0; k < kd; ++k) s += arow[k] * brow[k];
      crow[j] = s;
    }
  }
}

void gemm_accum_f32(const float* a, const float* b, float* c, std::size_t m,
                    std::size_t kd, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * kd;
    float* crow = c + i * n;
    for (std::size_t k = 0; k < kd; ++k) {
      const float aik = arow[k];
      const float* brow = b + k * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

}  // namespace scalar

}  // namespace

const char* to_string(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kNeon:
      return "neon";
  }
  return "unknown";
}

std::vector<Backend> compiled_backends() {
  std::vector<Backend> backends{Backend::kScalar};
  if (runnable(Backend::kAvx2)) backends.push_back(Backend::kAvx2);
  if (runnable(Backend::kNeon)) backends.push_back(Backend::kNeon);
  return backends;
}

Backend active_backend() {
  return backend_slot().load(std::memory_order_relaxed);
}

const char* backend_name() { return to_string(active_backend()); }

Backend set_backend(Backend backend) {
  const Backend chosen = runnable(backend) ? backend : Backend::kScalar;
  backend_slot().store(chosen, std::memory_order_relaxed);
  return chosen;
}

// ---- dispatched entry points -----------------------------------------------

void gemm_accum(const double* a, const double* b, double* c, std::size_t m,
                std::size_t k, std::size_t n) {
  switch (active_backend()) {
#if defined(APS_HAVE_AVX2)
    case Backend::kAvx2:
      avx2::gemm_accum(a, b, c, m, k, n);
      return;
#endif
#if defined(__aarch64__)
    case Backend::kNeon:
      neon::gemm_accum(a, b, c, m, k, n);
      return;
#endif
    default:
      scalar::gemm_accum(a, b, c, m, k, n);
      return;
  }
}

void gemm_tn_accum(const double* a, const double* b, double* c,
                   std::size_t rows, std::size_t m, std::size_t n) {
  switch (active_backend()) {
#if defined(APS_HAVE_AVX2)
    case Backend::kAvx2:
      avx2::gemm_tn_accum(a, b, c, rows, m, n);
      return;
#endif
#if defined(__aarch64__)
    case Backend::kNeon:
      neon::gemm_tn_accum(a, b, c, rows, m, n);
      return;
#endif
    default:
      scalar::gemm_tn_accum(a, b, c, rows, m, n);
      return;
  }
}

void gemm_nt(const double* a, const double* b, double* c, std::size_t m,
             std::size_t k, std::size_t bn) {
  switch (active_backend()) {
#if defined(APS_HAVE_AVX2)
    case Backend::kAvx2:
      avx2::gemm_nt(a, b, c, m, k, bn);
      return;
#endif
#if defined(__aarch64__)
    case Backend::kNeon:
      neon::gemm_nt(a, b, c, m, k, bn);
      return;
#endif
    default:
      scalar::gemm_nt(a, b, c, m, k, bn);
      return;
  }
}

void gemm_accum_f32(const float* a, const float* b, float* c, std::size_t m,
                    std::size_t k, std::size_t n) {
  switch (active_backend()) {
#if defined(APS_HAVE_AVX2)
    case Backend::kAvx2:
      avx2::gemm_accum_f32(a, b, c, m, k, n);
      return;
#endif
#if defined(__aarch64__)
    case Backend::kNeon:
      neon::gemm_accum_f32(a, b, c, m, k, n);
      return;
#endif
    default:
      scalar::gemm_accum_f32(a, b, c, m, k, n);
      return;
  }
}

void lstm_gates(const double* z, double* c, double* h, double* out,
                std::size_t lanes, std::size_t hidden) {
  switch (active_backend()) {
#if defined(APS_HAVE_AVX2)
    case Backend::kAvx2:
      avx2::lstm_gates(z, c, h, out, lanes, hidden);
      return;
#endif
#if defined(__aarch64__)
    case Backend::kNeon:
      neon::lstm_gates(z, c, h, out, lanes, hidden);
      return;
#endif
    default:
      lstm_gates_portable(z, c, h, out, lanes, hidden);
      return;
  }
}

void lstm_gates_cached(const double* z, const double* c_prev,
                       const LstmGateCache& cache, std::size_t lanes,
                       std::size_t hidden) {
  switch (active_backend()) {
#if defined(APS_HAVE_AVX2)
    case Backend::kAvx2:
      avx2::lstm_gates_cached(z, c_prev, cache, lanes, hidden);
      return;
#endif
#if defined(__aarch64__)
    case Backend::kNeon:
      neon::lstm_gates_cached(z, c_prev, cache, lanes, hidden);
      return;
#endif
    default:
      lstm_gates_cached_portable(z, c_prev, cache, lanes, hidden);
      return;
  }
}

void lstm_gates_f32(const float* z, float* c, float* h, float* out,
                    std::size_t lanes, std::size_t hidden) {
  switch (active_backend()) {
#if defined(APS_HAVE_AVX2)
    case Backend::kAvx2:
      avx2::lstm_gates_f32(z, c, h, out, lanes, hidden);
      return;
#endif
#if defined(__aarch64__)
    case Backend::kNeon:
      neon::lstm_gates_f32(z, c, h, out, lanes, hidden);
      return;
#endif
    default:
      lstm_gates_f32_portable(z, c, h, out, lanes, hidden);
      return;
  }
}

void adam_update(double* p, double* m, double* v, const double* g,
                 std::size_t n, const AdamStep& step) {
  switch (active_backend()) {
#if defined(APS_HAVE_AVX2)
    case Backend::kAvx2:
      avx2::adam_update(p, m, v, g, n, step);
      return;
#endif
#if defined(__aarch64__)
    case Backend::kNeon:
      neon::adam_update(p, m, v, g, n, step);
      return;
#endif
    default:
      adam_update_range(p, m, v, g, 0, n, step);
      return;
  }
}

// ---- single-implementation passes ------------------------------------------
// Element-independent loops whose arithmetic has no accumulation order to
// preserve; the autovectorizer handles them, and results are width-invariant.

void transpose(const double* src, double* dst, std::size_t rows,
               std::size_t cols) {
  constexpr std::size_t kBlock = 32;
  for (std::size_t rb = 0; rb < rows; rb += kBlock) {
    const std::size_t rend = std::min(rows, rb + kBlock);
    for (std::size_t cb = 0; cb < cols; cb += kBlock) {
      const std::size_t cend = std::min(cols, cb + kBlock);
      for (std::size_t r = rb; r < rend; ++r) {
        for (std::size_t c = cb; c < cend; ++c) {
          dst[c * rows + r] = src[r * cols + c];
        }
      }
    }
  }
}

void add_bias_rows(double* z, const double* bias, std::size_t rows,
                   std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    double* zrow = z + r * cols;
    for (std::size_t c = 0; c < cols; ++c) zrow[c] += bias[c];
  }
}

void fill_bias_rows(double* z, const double* bias, std::size_t rows,
                    std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    double* zrow = z + r * cols;
    for (std::size_t c = 0; c < cols; ++c) zrow[c] = bias[c];
  }
}

// The store is unconditional so the loop vectorizes into compare + select.
void relu(double* x, std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) x[i] = x[i] < 0.0 ? 0.0 : x[i];
}

void affine(const double* x, double a, double b, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a * x[i] + b;
}

// It does accumulate (the row sum), but it has this one implementation,
// so the ascending order is the same on every backend.
void softmax_rows(double* x, std::size_t rows, std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    double* row = x + r * cols;
    double max_v = -std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < cols; ++c) max_v = std::max(max_v, row[c]);
    double sum = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      row[c] = exp_f64_impl(row[c] - max_v);
      sum += row[c];
    }
    for (std::size_t c = 0; c < cols; ++c) row[c] /= sum;
  }
}

void fill_bias_rows_f32(float* z, const float* bias, std::size_t rows,
                        std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* zrow = z + r * cols;
    for (std::size_t c = 0; c < cols; ++c) zrow[c] = bias[c];
  }
}

void relu_f32(float* x, std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) x[i] = x[i] < 0.0f ? 0.0f : x[i];
}

double exp_f64(double x) { return exp_f64_impl(x); }
double sigmoid_f64(double x) { return sigmoid_f64_impl(x); }
double tanh_f64(double x) { return tanh_f64_impl(x); }

float fast_expf(float x) { return fast_expf_impl(x); }
float fast_tanhf(float x) { return fast_tanhf_impl(x); }

}  // namespace aps::ml::kernels
