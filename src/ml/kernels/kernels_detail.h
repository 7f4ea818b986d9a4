// Internal header for the kernel backend TUs (kernels.cpp, kernels_avx2.cpp,
// kernels_neon.cpp). Not part of the public API.
//
// Two things live here:
//  1. extern declarations of the per-backend entry points the dispatcher in
//     kernels.cpp routes to;
//  2. the shared portable bodies (the zero-skip compaction and its index
//     buffer, the scalar Adam loop, the in-repo float64 exp/sigmoid/tanh
//     and polynomial expf/tanhf, and the fused gate passes in both
//     precisions) in an ANONYMOUS namespace, so every backend TU compiles
//     its own copy with its own codegen flags (the AVX2 TU gets 4-wide
//     double and 8-wide float vectorization of the very same arithmetic).
//     The math is element-independent mul/add/div with no FP contraction,
//     so the results are bitwise identical regardless of vector width.
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
void lstm_gates(const double* z, double* c, double* h, double* out,
                std::size_t lanes, std::size_t hidden);
void lstm_gates_cached(const double* z, const double* c_prev,
                       const LstmGateCache& cache, std::size_t lanes,
                       std::size_t hidden);
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
void lstm_gates(const double* z, double* c, double* h, double* out,
                std::size_t lanes, std::size_t hidden);
void lstm_gates_cached(const double* z, const double* c_prev,
                       const LstmGateCache& cache, std::size_t lanes,
                       std::size_t hidden);
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

/// Bit casts for the exponent arithmetic. Unsigned, so out-of-range
/// garbage (a NaN argument's bits) wraps instead of overflowing.
inline std::uint64_t bits_of(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}
inline double double_of(std::uint64_t b) {
  double x;
  std::memcpy(&x, &b, sizeof(x));
  return x;
}
inline std::uint32_t bits_of(float x) {
  std::uint32_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}
inline float float_of(std::uint32_t b) {
  float x;
  std::memcpy(&x, &b, sizeof(x));
  return x;
}

/// Float64 exp: Cephes' exp.c, branch free. Cody-Waite reduction
/// x = n*ln2 + r with a two-part ln2 (n*kC1 is exact), the Pade form
/// e^r = 1 + 2 r P(r^2) / (Q(r^2) - r P(r^2)) on |r| <= ln2/2, then a
/// scale by 2^n. Within 2 ulp of the true value on the whole double range
/// (kernels_test pins the bound), gradual underflow included.
///
/// n is the nearest integer to x*log2(e), taken by the magic-number trick:
/// adding 1.5*2^52 snaps the sum to an integer under round-to-nearest, and
/// the sum's low mantissa bits then hold n in two's complement, so n never
/// goes through a float-to-int cast. 2^n is applied as 2^n1 * 2^n2 with
/// n1 ~ n/2: both factors are normal over the clamped domain, the first
/// product is exact, and the second rounds once, so results near the
/// overflow and subnormal ends come out right with no branch. The clamp
/// only keeps n small; past it the scale overflows to +inf or underflows
/// to +0 on its own, and a NaN argument passes every compare and stays
/// NaN.
inline double exp_f64_impl(double x) {
  constexpr double kLog2e = 1.4426950408889634073599;
  constexpr double kC1 = 6.93145751953125e-1;  // ln2 split, high part
  constexpr double kC2 = 1.42860682030941723212e-6;  // ln2 split, low part
  constexpr double kMagic = 6755399441055744.0;  // 1.5 * 2^52
  constexpr std::uint64_t kBias = 1023;
  // Ternaries, not std::min/std::max, so the calling loop if-converts.
  x = x > 710.0 ? 710.0 : x;
  x = x < -746.0 ? -746.0 : x;
  const double sn = x * kLog2e + kMagic;
  const double fn = sn - kMagic;
  const double sn1 = fn * 0.5 + kMagic;
  const std::uint64_t n1 = bits_of(sn1) - bits_of(kMagic);
  const std::uint64_t n2 = (bits_of(sn) - bits_of(kMagic)) - n1;
  double r = x - fn * kC1;
  r = r - fn * kC2;
  const double rr = r * r;
  double p = 1.26177193074810590878e-4;
  p = p * rr + 3.02994407707441961300e-2;
  p = p * rr + 9.99999999999999999910e-1;
  p = p * r;
  double q = 3.00198505138664455042e-6;
  q = q * rr + 2.52448340349684104192e-3;
  q = q * rr + 2.27265548208155028766e-1;
  q = q * rr + 2.00000000000000000009e0;
  const double e = 1.0 + 2.0 * (p / (q - p));
  return e * double_of((n1 + kBias) << 52) * double_of((n2 + kBias) << 52);
}

/// Logistic sigmoid as 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x)
/// below, from one e = exp(-|x|) and one division. The second form keeps
/// the small results accurate down into the subnormals, where the first
/// would overflow e^-x and flush to 0 near x = -709. Exactly 1 above about
/// 37, exactly 0 below about -745, NaN for NaN.
inline double sigmoid_f64_impl(double x) {
  const double e = exp_f64_impl(-std::fabs(x));
  return (x >= 0.0 ? 1.0 : e) / (1.0 + e);
}

/// Float64 tanh: Cephes' tanh.c, branch free. On |x| >= 0.625 it is
/// 1 - 2 / (e^{2|x|} + 1) (exactly 1 above about |x| = 19), below that
/// |x| + |x|^3 P(x^2) / Q(x^2). Both have the form a + b / d, so the
/// branch is a select of (a, b, d) ahead of one shared division. It runs
/// on |x| and copies the sign back, so tanh(-x) == -tanh(x) bitwise,
/// tanh(-0) == -0 and NaN stays NaN.
inline double tanh_f64_impl(double x) {
  const double ax = std::fabs(x);
  const double s = ax * ax;
  double p = -9.64399179425052238628e-1;
  p = p * s + -9.92877231001918586564e1;
  p = p * s + -1.61468768441708447952e3;
  double q = s + 1.12811678491632931402e2;
  q = q * s + 2.23548839060100448583e3;
  q = q * s + 4.84406305325125486048e3;
  const bool big = ax >= 0.625;
  const double a = big ? 1.0 : ax;
  const double b = big ? -2.0 : ax * s * p;
  const double d = big ? exp_f64_impl(2.0 * ax) + 1.0 : q;
  return std::copysign(a + b / d, x);
}

/// One LSTM cell update, gate order [i f g o]: the float64 gate sequence,
/// written once for the inference and the training pass.
struct LstmGateStep {
  double i, f, g, o, c, tanh_c, h;
};

inline LstmGateStep lstm_gate_step(double zi, double zf, double zg,
                                   double zo, double c_prev) {
  LstmGateStep s;
  s.i = sigmoid_f64_impl(zi);
  s.f = sigmoid_f64_impl(zf);
  s.g = tanh_f64_impl(zg);
  s.o = sigmoid_f64_impl(zo);
  s.c = s.f * c_prev + s.i * s.g;
  s.tanh_c = tanh_f64_impl(s.c);
  s.h = s.o * s.tanh_c;
  return s;
}

/// Float64 fused gate pass (kernels::lstm_gates). Plain loops over
/// element-independent arithmetic: each backend TU's compiler vectorizes
/// this at its own width with identical results.
inline void lstm_gates_portable(const double* __restrict z,
                                double* __restrict c, double* __restrict h,
                                double* __restrict out, std::size_t lanes,
                                std::size_t hidden) {
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const double* __restrict zr = z + lane * 4 * hidden;
    double* __restrict cr = c + lane * hidden;
    double* __restrict hr = h + lane * hidden;
    double* __restrict outr = out + lane * hidden;
    for (std::size_t j = 0; j < hidden; ++j) {
      const LstmGateStep s =
          lstm_gate_step(zr[j], zr[hidden + j], zr[2 * hidden + j],
                         zr[3 * hidden + j], cr[j]);
      cr[j] = s.c;
      hr[j] = s.h;
      outr[j] = s.h;
    }
  }
}

/// Float64 fused gate pass that keeps every activation for BPTT
/// (kernels::lstm_gates_cached). kFirst is the t = 0 step, whose previous
/// cell state is zero. The outputs are separate __restrict parameters:
/// restrict-qualified locals loaded from LstmGateCache would not stop the
/// compiler from versioning the loop for aliasing, and with seven output
/// streams it gives up vectorizing instead.
template <bool kFirst>
inline void lstm_gates_cached_loop(
    const double* __restrict z, const double* __restrict c_prev,
    double* __restrict gi, double* __restrict gf, double* __restrict gg,
    double* __restrict go, double* __restrict gc, double* __restrict gt,
    double* __restrict gh, std::size_t lanes, std::size_t hidden) {
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const double* __restrict zr = z + lane * 4 * hidden;
    const std::size_t base = lane * hidden;
    for (std::size_t j = 0; j < hidden; ++j) {
      const std::size_t at = base + j;
      const LstmGateStep s =
          lstm_gate_step(zr[j], zr[hidden + j], zr[2 * hidden + j],
                         zr[3 * hidden + j], kFirst ? 0.0 : c_prev[at]);
      gi[at] = s.i;
      gf[at] = s.f;
      gg[at] = s.g;
      go[at] = s.o;
      gc[at] = s.c;
      gt[at] = s.tanh_c;
      gh[at] = s.h;
    }
  }
}

inline void lstm_gates_cached_portable(const double* z, const double* c_prev,
                                       const LstmGateCache& k,
                                       std::size_t lanes,
                                       std::size_t hidden) {
  if (c_prev == nullptr) {
    lstm_gates_cached_loop<true>(z, nullptr, k.i, k.f, k.g, k.o, k.c,
                                 k.tanh_c, k.h, lanes, hidden);
  } else {
    lstm_gates_cached_loop<false>(z, c_prev, k.i, k.f, k.g, k.o, k.c,
                                  k.tanh_c, k.h, lanes, hidden);
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
  // if-conversion (and with it vectorization) of the calling loop. A NaN
  // fails both compares and stays NaN through the polynomial.
  x = x > kExpHi ? kExpHi : x;
  x = x < kExpLo ? kExpLo : x;
  // Nearest integer via the magic-number trick (adding 1.5*2^23 snaps the
  // mantissa to integer under round-to-nearest): std::floor would be a
  // libm CALL on x86, which blocks inlining and keeps the whole gate pass
  // scalar. Exact over the clamped domain; branch-free, so the loop
  // vectorizes. (Ties round to even instead of up — that only swaps which
  // (n, r) pair represents x, never the accuracy.) The sum's low mantissa
  // bits hold n, so the exponent never goes through a float-to-int cast
  // (undefined for NaN).
  constexpr float kMagic = 12582912.0f;  // 1.5 * 2^23
  const float sn = x * kLog2e + kMagic;
  const float fx = sn - kMagic;
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
  const std::uint32_t n = bits_of(sn) - bits_of(kMagic);
  return p * float_of((n + 127u) << 23);
}

/// tanh via the exact identity tanh(x) = 1 - 2/(e^{2x} + 1); the only
/// error source is fast_expf_impl. The identity's sign already matches x
/// except where it rounds to +0, so copying x's sign only turns that +0
/// into -0 for negative x (tanh(-0) == -0).
inline float fast_tanhf_impl(float x) {
  return std::copysign(1.0f - 2.0f / (fast_expf_impl(2.0f * x) + 1.0f), x);
}

inline float fast_sigmoidf_impl(float x) {
  return 1.0f / (1.0f + fast_expf_impl(-x));
}

/// float32 fused LSTM gate pass, same gate order and update formulas as the
/// float64 pass (lstm_gate_step above). Plain loops over
/// element-independent arithmetic: each backend TU's compiler vectorizes
/// this at its own width with identical results.
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
