// NEON backend (aarch64 baseline — no runtime probe needed). Same contract
// as the AVX2 TU: vectorize across output columns only, separate vmulq /
// vaddq (never vmlaq/vfmaq, which fuse), keep the legacy zero skip through
// a compacted index list — so float64 results are bit-identical to the
// scalar backend.
#if defined(__aarch64__)

#include <arm_neon.h>

#include <vector>

#include "ml/kernels/kernels_detail.h"

namespace aps::ml::kernels::neon {

namespace {

/// One tile of kVecs 2-wide column vectors starting at column j:
/// crow[j + c] += sum over t < count of a[k * astride] * b[k * n + j + c],
/// k = t (dense) or k = ks[t] (the compacted nonzero list), in ascending t.
/// The dense form has no skip test: its caller saw no zero multiplier, so
/// nothing would be skipped.
template <bool kSparse, int kVecs>
inline void accum_tile(const double* a, std::size_t astride,
                       const std::size_t* ks, std::size_t count,
                       const double* b, std::size_t n, double* crow,
                       std::size_t j) {
  float64x2_t acc[kVecs];
  for (int q = 0; q < kVecs; ++q) acc[q] = vld1q_f64(crow + j + 2 * q);
  for (std::size_t t = 0; t < count; ++t) {
    const std::size_t k = kSparse ? ks[t] : t;
    const float64x2_t va = vdupq_n_f64(a[k * astride]);
    const double* brow = b + k * n + j;
    for (int q = 0; q < kVecs; ++q) {
      acc[q] = vaddq_f64(acc[q], vmulq_f64(va, vld1q_f64(brow + 2 * q)));
    }
  }
  for (int q = 0; q < kVecs; ++q) vst1q_f64(crow + j + 2 * q, acc[q]);
}

/// A whole output row (or, for gemm_tn_accum, column of a): 16-, 8- and
/// 2-column tiles, then a scalar tail with the same per-element sequence.
template <bool kSparse>
void accum_tiles(const double* a, std::size_t astride, const std::size_t* ks,
                 std::size_t count, const double* b, std::size_t n,
                 double* crow) {
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    accum_tile<kSparse, 8>(a, astride, ks, count, b, n, crow, j);
  }
  for (; j + 8 <= n; j += 8) {
    accum_tile<kSparse, 4>(a, astride, ks, count, b, n, crow, j);
  }
  for (; j + 2 <= n; j += 2) {
    accum_tile<kSparse, 1>(a, astride, ks, count, b, n, crow, j);
  }
  for (; j < n; ++j) {
    double s = crow[j];
    for (std::size_t t = 0; t < count; ++t) {
      const std::size_t k = kSparse ? ks[t] : t;
      s += a[k * astride] * b[k * n + j];
    }
    crow[j] = s;
  }
}

bool has_zero(const double* a, std::size_t count) {
  const float64x2_t zero = vdupq_n_f64(0.0);
  uint64x2_t any = vdupq_n_u64(0);
  std::size_t t = 0;
  for (; t + 2 <= count; t += 2) {
    any = vorrq_u64(any, vceqq_f64(vld1q_f64(a + t), zero));
  }
  bool found = (vgetq_lane_u64(any, 0) | vgetq_lane_u64(any, 1)) != 0;
  for (; t < count; ++t) found |= a[t] == 0.0;
  return found;
}

}  // namespace

void gemm_accum(const double* a, const double* b, double* c, std::size_t m,
                std::size_t kd, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a + i * kd;
    double* crow = c + i * n;
    if (!has_zero(arow, kd)) {
      accum_tiles<false>(arow, 1, nullptr, kd, b, n, crow);
      continue;
    }
    std::size_t* idx = index_buffer(kd);
    const std::size_t cnt = compact_nonzero(arow, 1, kd, idx);
    accum_tiles<true>(arow, 1, idx, cnt, b, n, crow);
  }
}

void gemm_tn_accum(const double* a, const double* b, double* c,
                   std::size_t rows, std::size_t m, std::size_t n) {
  std::size_t* idx = index_buffer(rows);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t cnt = compact_nonzero(a + i, m, rows, idx);
    if (cnt == rows) {
      accum_tiles<false>(a + i, m, nullptr, rows, b, n, c + i * n);
    } else if (cnt > 0) {
      accum_tiles<true>(a + i, m, idx, cnt, b, n, c + i * n);
    }
  }
}

void gemm_nt(const double* a, const double* b, double* c, std::size_t m,
             std::size_t kd, std::size_t bn) {
  thread_local std::vector<double> bt;
  bt.resize(kd * bn);
  transpose(b, bt.data(), bn, kd);
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a + i * kd;
    double* crow = c + i * bn;
    std::size_t j = 0;
    for (; j + 8 <= bn; j += 8) {
      float64x2_t acc0 = vdupq_n_f64(0.0);
      float64x2_t acc1 = vdupq_n_f64(0.0);
      float64x2_t acc2 = vdupq_n_f64(0.0);
      float64x2_t acc3 = vdupq_n_f64(0.0);
      for (std::size_t k = 0; k < kd; ++k) {
        const float64x2_t va = vdupq_n_f64(arow[k]);
        const double* btrow = bt.data() + k * bn + j;
        acc0 = vaddq_f64(acc0, vmulq_f64(va, vld1q_f64(btrow)));
        acc1 = vaddq_f64(acc1, vmulq_f64(va, vld1q_f64(btrow + 2)));
        acc2 = vaddq_f64(acc2, vmulq_f64(va, vld1q_f64(btrow + 4)));
        acc3 = vaddq_f64(acc3, vmulq_f64(va, vld1q_f64(btrow + 6)));
      }
      vst1q_f64(crow + j, acc0);
      vst1q_f64(crow + j + 2, acc1);
      vst1q_f64(crow + j + 4, acc2);
      vst1q_f64(crow + j + 6, acc3);
    }
    for (; j < bn; ++j) {
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
    std::size_t j = 0;
    for (; j + 16 <= n; j += 16) {
      float32x4_t acc0 = vld1q_f32(crow + j);
      float32x4_t acc1 = vld1q_f32(crow + j + 4);
      float32x4_t acc2 = vld1q_f32(crow + j + 8);
      float32x4_t acc3 = vld1q_f32(crow + j + 12);
      for (std::size_t k = 0; k < kd; ++k) {
        const float32x4_t va = vdupq_n_f32(arow[k]);
        const float* brow = b + k * n + j;
        acc0 = vaddq_f32(acc0, vmulq_f32(va, vld1q_f32(brow)));
        acc1 = vaddq_f32(acc1, vmulq_f32(va, vld1q_f32(brow + 4)));
        acc2 = vaddq_f32(acc2, vmulq_f32(va, vld1q_f32(brow + 8)));
        acc3 = vaddq_f32(acc3, vmulq_f32(va, vld1q_f32(brow + 12)));
      }
      vst1q_f32(crow + j, acc0);
      vst1q_f32(crow + j + 4, acc1);
      vst1q_f32(crow + j + 8, acc2);
      vst1q_f32(crow + j + 12, acc3);
    }
    for (; j + 4 <= n; j += 4) {
      float32x4_t acc = vld1q_f32(crow + j);
      for (std::size_t k = 0; k < kd; ++k) {
        acc = vaddq_f32(
            acc, vmulq_f32(vdupq_n_f32(arow[k]), vld1q_f32(b + k * n + j)));
      }
      vst1q_f32(crow + j, acc);
    }
    for (; j < n; ++j) {
      float s = crow[j];
      for (std::size_t k = 0; k < kd; ++k) s += arow[k] * b[k * n + j];
      crow[j] = s;
    }
  }
}

// The gate passes are the scalar backend's portable bodies, vectorized
// 2-wide (f64) and 4-wide (f32) in this TU.
void lstm_gates(const double* z, double* c, double* h, double* out,
                std::size_t lanes, std::size_t hidden) {
  lstm_gates_portable(z, c, h, out, lanes, hidden);
}

void lstm_gates_cached(const double* z, const double* c_prev,
                       const LstmGateCache& cache, std::size_t lanes,
                       std::size_t hidden) {
  lstm_gates_cached_portable(z, c_prev, cache, lanes, hidden);
}

void lstm_gates_f32(const float* z, float* c, float* h, float* out,
                    std::size_t lanes, std::size_t hidden) {
  lstm_gates_f32_portable(z, c, h, out, lanes, hidden);
}

void adam_update(double* p, double* m, double* v, const double* g,
                 std::size_t n, const AdamStep& step) {
  const float64x2_t lr = vdupq_n_f64(step.learning_rate);
  const float64x2_t b1 = vdupq_n_f64(step.beta1);
  const float64x2_t b2 = vdupq_n_f64(step.beta2);
  const float64x2_t c1 = vdupq_n_f64(1.0 - step.beta1);
  const float64x2_t c2 = vdupq_n_f64(1.0 - step.beta2);
  const float64x2_t bc1 = vdupq_n_f64(step.bc1);
  const float64x2_t bc2 = vdupq_n_f64(step.bc2);
  const float64x2_t eps = vdupq_n_f64(step.epsilon);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t gi = vld1q_f64(g + i);
    const float64x2_t mi =
        vaddq_f64(vmulq_f64(b1, vld1q_f64(m + i)), vmulq_f64(c1, gi));
    const float64x2_t vi = vaddq_f64(vmulq_f64(b2, vld1q_f64(v + i)),
                                     vmulq_f64(vmulq_f64(c2, gi), gi));
    vst1q_f64(m + i, mi);
    vst1q_f64(v + i, vi);
    const float64x2_t mhat = vdivq_f64(mi, bc1);
    const float64x2_t vhat = vdivq_f64(vi, bc2);
    const float64x2_t upd = vdivq_f64(vmulq_f64(lr, mhat),
                                      vaddq_f64(vsqrtq_f64(vhat), eps));
    vst1q_f64(p + i, vsubq_f64(vld1q_f64(p + i), upd));
  }
  adam_update_range(p, m, v, g, i, n, step);
}

}  // namespace aps::ml::kernels::neon

#endif  // __aarch64__
