// Internal header for the kernel backend TUs (kernels.cpp, kernels_avx2.cpp,
// kernels_neon.cpp). Not part of the public API.
//
// Two things live here:
//  1. extern declarations of the per-backend entry points the dispatcher in
//     kernels.cpp routes to;
//  2. the shared portable bodies (the zero-skip compaction and its index
//     buffer, the scalar Adam loop, polynomial expf/tanhf and the float32
//     fused gate pass) in an ANONYMOUS namespace, so every backend TU
//     compiles its own copy with its own codegen flags (the AVX2 TU gets
//     8-wide float vectorization of the very same arithmetic). The math is
//     element-independent mul/add with no FP contraction, so the results
//     are bitwise identical regardless of vector width.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "ml/kernels/kernels.h"

namespace aps::ml::kernels {

#if defined(APS_HAVE_AVX2)
namespace avx2 {
void gemm_accum(const double* a, const double* b, double* c, std::size_t m,
                std::size_t k, std::size_t n);
void gemm_tn_accum(const double* a, const double* b, double* c,
                   std::size_t rows, std::size_t m, std::size_t n);
void gemm_nt(const double* a, const double* b, double* c, std::size_t m,
             std::size_t k, std::size_t bn);
void gemm_accum_f32(const float* a, const float* b, float* c, std::size_t m,
                    std::size_t k, std::size_t n);
void lstm_gates_f32(const float* z, float* c, float* h, float* out,
                    std::size_t lanes, std::size_t hidden);
void adam_update(double* p, double* m, double* v, const double* g,
                 std::size_t n, const AdamStep& step);
}  // namespace avx2
#endif

#if defined(__aarch64__)
namespace neon {
void gemm_accum(const double* a, const double* b, double* c, std::size_t m,
                std::size_t k, std::size_t n);
void gemm_tn_accum(const double* a, const double* b, double* c,
                   std::size_t rows, std::size_t m, std::size_t n);
void gemm_nt(const double* a, const double* b, double* c, std::size_t m,
             std::size_t k, std::size_t bn);
void gemm_accum_f32(const float* a, const float* b, float* c, std::size_t m,
                    std::size_t k, std::size_t n);
void lstm_gates_f32(const float* z, float* c, float* h, float* out,
                    std::size_t lanes, std::size_t hidden);
void adam_update(double* p, double* m, double* v, const double* g,
                 std::size_t n, const AdamStep& step);
}  // namespace neon
#endif

namespace {

/// Writes the ascending positions t < count whose multiplier
/// a[t * stride] is nonzero (by the scalar `!= 0.0` test, so -0.0 is
/// dropped and NaN kept) to idx and returns how many there are. Branch
/// free: every position is written, and only a nonzero one advances the
/// cursor, so no unpredictable zero pattern costs a mispredict.
inline std::size_t compact_nonzero(const double* a, std::size_t stride,
                                   std::size_t count, std::size_t* idx) {
  std::size_t cnt = 0;
  for (std::size_t t = 0; t < count; ++t) {
    idx[cnt] = t;
    cnt += static_cast<std::size_t>(a[t * stride] != 0.0);
  }
  return cnt;
}

/// Per-thread index list for compact_nonzero; grows to the longest row or
/// column seen and is then reused.
inline std::size_t* index_buffer(std::size_t count) {
  thread_local std::vector<std::size_t> idx;
  if (idx.size() < count) idx.resize(count);
  return idx.data();
}

/// The scalar Adam loop over [begin, end): the reference for the vector
/// backends, which also use it for their tails.
inline void adam_update_range(double* p, double* m, double* v,
                              const double* g, std::size_t begin,
                              std::size_t end, const AdamStep& s) {
  for (std::size_t i = begin; i < end; ++i) {
    m[i] = s.beta1 * m[i] + (1.0 - s.beta1) * g[i];
    v[i] = s.beta2 * v[i] + (1.0 - s.beta2) * g[i] * g[i];
    const double mhat = m[i] / s.bc1;
    const double vhat = v[i] / s.bc2;
    p[i] -= s.learning_rate * mhat / (std::sqrt(vhat) + s.epsilon);
  }
}

/// Cephes-style expf: range-reduce x = n*ln2 + r, evaluate a degree-5
/// polynomial on r, scale by 2^n through the exponent bits. Relative error
/// ~2e-7 over the clamped domain. Pure per-element mul/add (the build pins
/// -ffp-contract=off), so scalar and vector compilations agree bitwise.
inline float fast_expf_impl(float x) {
  constexpr float kExpHi = 88.3762626647949f;
  constexpr float kExpLo = -87.3365478515625f;
  constexpr float kLog2e = 1.44269504088896341f;
  constexpr float kC1 = 0.693359375f;           // ln2 split, high part
  constexpr float kC2 = -2.12194440e-4f;        // ln2 split, low part
  // Clamp via ternaries, not std::min/std::max: the reference-returning
  // std versions compile to compare+branch here, which blocks
  // if-conversion (and with it vectorization) of the calling loop.
  x = x > kExpHi ? kExpHi : x;
  x = x < kExpLo ? kExpLo : x;
  // Nearest integer via the magic-number trick (adding 1.5*2^23 snaps the
  // mantissa to integer under round-to-nearest): std::floor would be a
  // libm CALL on x86, which blocks inlining and keeps the whole gate pass
  // scalar. Exact over the clamped domain; branch-free, so the loop
  // vectorizes. (Ties round to even instead of up — that only swaps which
  // (n, r) pair represents x, never the accuracy.)
  constexpr float kMagic = 12582912.0f;  // 1.5 * 2^23
  const float fx = (x * kLog2e + kMagic) - kMagic;
  float r = x - fx * kC1;
  r = r - fx * kC2;
  const float z = r * r;
  float p = 1.9875691500e-4f;
  p = p * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  p = p * z + r + 1.0f;
  const auto n = static_cast<std::int32_t>(fx);
  const std::int32_t bits = (n + 127) << 23;
  float pow2n;
  std::memcpy(&pow2n, &bits, sizeof(pow2n));
  return p * pow2n;
}

/// tanh via the exact identity tanh(x) = 1 - 2/(e^{2x} + 1); the only
/// error source is fast_expf_impl.
inline float fast_tanhf_impl(float x) {
  return 1.0f - 2.0f / (fast_expf_impl(2.0f * x) + 1.0f);
}

inline float fast_sigmoidf_impl(float x) {
  return 1.0f / (1.0f + fast_expf_impl(-x));
}

/// float32 fused LSTM gate pass, same gate order and update formulas as the
/// float64 reference (lstm_gates in kernels.cpp / Lstm::forward). Plain
/// loops over element-independent arithmetic: each backend TU's compiler
/// vectorizes this at its own width with identical results.
inline void lstm_gates_f32_portable(const float* __restrict z,
                                    float* __restrict c, float* __restrict h,
                                    float* __restrict out, std::size_t lanes,
                                    std::size_t hidden) {
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const float* __restrict zr = z + lane * 4 * hidden;
    float* __restrict cr = c + lane * hidden;
    float* __restrict hr = h + lane * hidden;
    float* __restrict outr = out + lane * hidden;
    for (std::size_t j = 0; j < hidden; ++j) {
      const float gi = fast_sigmoidf_impl(zr[j]);
      const float gf = fast_sigmoidf_impl(zr[hidden + j]);
      const float gg = fast_tanhf_impl(zr[2 * hidden + j]);
      const float go = fast_sigmoidf_impl(zr[3 * hidden + j]);
      const float cv = gf * cr[j] + gi * gg;
      const float hv = go * fast_tanhf_impl(cv);
      cr[j] = cv;
      hr[j] = hv;
      outr[j] = hv;
    }
  }
}

}  // namespace

}  // namespace aps::ml::kernels
