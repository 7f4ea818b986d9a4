// AVX2 backend. This TU is the only one compiled with -mavx2 (set per-source
// in CMakeLists.txt) and its entry points are only reached after the runtime
// CPUID check in the dispatcher, so the rest of the binary stays runnable on
// baseline x86-64.
//
// Every float64 kernel vectorizes across OUTPUT COLUMNS and keeps the
// scalar backend's per-element operation sequence: ascending-k accumulation,
// separate _mm256_mul_pd / _mm256_add_pd (never FMA), and the legacy zero
// skip on the left-hand multiplier, taken through a compacted index list
// instead of a branch per multiplier. gemm_accum (both precisions) is also
// blocked across dense rows once b outgrows L1: six rows with no zero
// multiplier share every load of b, each B vector loaded at step k being
// multiplied against the six rows' broadcast multipliers. That makes the
// results bit-identical to the scalar backend — the column tiling (up to
// 8 ymm accumulators, 32 columns per tile) and the row blocks (6 x 2 ymm
// accumulators) only change how many elements advance together, not any
// element's arithmetic.
#if defined(APS_HAVE_AVX2)

#include <immintrin.h>

#include <vector>

#include "ml/kernels/kernels_detail.h"

namespace aps::ml::kernels::avx2 {

namespace {

/// One tile of kVecs 4-wide column vectors starting at column j:
/// crow[j + c] += sum over t < count of a[k * astride] * b[k * n + j + c],
/// k = t (dense) or k = ks[t] (the compacted nonzero list), in ascending t.
/// The dense form has no skip test at all: its caller saw no zero
/// multiplier, so nothing would be skipped.
template <bool kSparse, int kVecs>
inline void accum_tile(const double* a, std::size_t astride,
                       const std::size_t* ks, std::size_t count,
                       const double* b, std::size_t n, double* crow,
                       std::size_t j) {
  __m256d acc[kVecs];
  for (int q = 0; q < kVecs; ++q) acc[q] = _mm256_loadu_pd(crow + j + 4 * q);
  for (std::size_t t = 0; t < count; ++t) {
    const std::size_t k = kSparse ? ks[t] : t;
    const __m256d va = _mm256_set1_pd(a[k * astride]);
    const double* brow = b + k * n + j;
    for (int q = 0; q < kVecs; ++q) {
      acc[q] = _mm256_add_pd(acc[q],
                             _mm256_mul_pd(va, _mm256_loadu_pd(brow + 4 * q)));
    }
  }
  for (int q = 0; q < kVecs; ++q) _mm256_storeu_pd(crow + j + 4 * q, acc[q]);
}

/// A whole output row (or, for gemm_tn_accum, column of a): 32-, 16- and
/// 4-column tiles, then a scalar tail with the same per-element sequence.
template <bool kSparse>
void accum_tiles(const double* a, std::size_t astride, const std::size_t* ks,
                 std::size_t count, const double* b, std::size_t n,
                 double* crow) {
  std::size_t j = 0;
  for (; j + 32 <= n; j += 32) {
    accum_tile<kSparse, 8>(a, astride, ks, count, b, n, crow, j);
  }
  for (; j + 16 <= n; j += 16) {
    accum_tile<kSparse, 4>(a, astride, ks, count, b, n, crow, j);
  }
  for (; j + 4 <= n; j += 4) {
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

/// Row blocks: six rows by two 4-wide vectors is 12 accumulators, 2 B
/// vectors and a broadcast, the 16 ymm registers without a spill (six by
/// two beat four by three, three by four and two by six). Four or five
/// dense rows left at the end run as a four-row block.
constexpr std::size_t kBlockRows = 6;
constexpr std::size_t kTailBlockRows = 4;
/// Where a block pays, measured: a per-row pass is already bound by the
/// multiply and add ports while b stays in the 48 KB L1, so a block only
/// wins once b outgrows it, and at k < 16 the accumulator loads and
/// stores per tile outweigh the shared loads of b.
constexpr std::size_t kBlockMinK = 16;
constexpr std::size_t kBlockMinBBytes = 48 * 1024;

template <typename T>
bool block_pays(std::size_t kd, std::size_t n) {
  return kd >= kBlockMinK && kd * n * sizeof(T) >= kBlockMinBBytes;
}

/// kRows dense rows over one tile of kVecs 4-wide column vectors at
/// column j: crows[r][j + c] += sum over ascending k < count of
/// arows[r][k] * b[k * n + j + c]. Each B vector is loaded once per k and
/// multiplied against every row's broadcast multiplier.
template <std::size_t kRows, int kVecs>
inline void accum_block_tile(const double* const* arows, double* const* crows,
                             std::size_t count, const double* b,
                             std::size_t n, std::size_t j) {
  __m256d acc[kRows][kVecs];
  for (std::size_t r = 0; r < kRows; ++r) {
    for (int q = 0; q < kVecs; ++q) {
      acc[r][q] = _mm256_loadu_pd(crows[r] + j + 4 * q);
    }
  }
  for (std::size_t k = 0; k < count; ++k) {
    const double* brow = b + k * n + j;
    __m256d bv[kVecs];
    for (int q = 0; q < kVecs; ++q) bv[q] = _mm256_loadu_pd(brow + 4 * q);
    for (std::size_t r = 0; r < kRows; ++r) {
      const __m256d va = _mm256_broadcast_sd(arows[r] + k);
      for (int q = 0; q < kVecs; ++q) {
        acc[r][q] = _mm256_add_pd(acc[r][q], _mm256_mul_pd(va, bv[q]));
      }
    }
  }
  for (std::size_t r = 0; r < kRows; ++r) {
    for (int q = 0; q < kVecs; ++q) {
      _mm256_storeu_pd(crows[r] + j + 4 * q, acc[r][q]);
    }
  }
}

/// One dense block across all columns: 8- and 4-column tiles, then each
/// row's scalar tail with the same per-element sequence.
template <std::size_t kRows>
void accum_block(const double* const* arows, double* const* crows,
                 std::size_t count, const double* b, std::size_t n) {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    accum_block_tile<kRows, 2>(arows, crows, count, b, n, j);
  }
  for (; j + 4 <= n; j += 4) {
    accum_block_tile<kRows, 1>(arows, crows, count, b, n, j);
  }
  for (; j < n; ++j) {
    for (std::size_t r = 0; r < kRows; ++r) {
      double s = crows[r][j];
      for (std::size_t k = 0; k < count; ++k) s += arows[r][k] * b[k * n + j];
      crows[r][j] = s;
    }
  }
}

bool has_zero(const double* a, std::size_t count) {
  const __m256d zero = _mm256_setzero_pd();
  __m256d any = zero;
  std::size_t t = 0;
  for (; t + 4 <= count; t += 4) {
    any = _mm256_or_pd(
        any, _mm256_cmp_pd(_mm256_loadu_pd(a + t), zero, _CMP_EQ_OQ));
  }
  bool found = _mm256_movemask_pd(any) != 0;
  for (; t < count; ++t) found |= a[t] == 0.0;
  return found;
}

}  // namespace

void gemm_accum(const double* a, const double* b, double* c, std::size_t m,
                std::size_t kd, std::size_t n) {
  // Rows with no zero multiplier are gathered into blocks of kBlockRows
  // (one zero scan per row); rows holding a zero take the compacted path
  // one at a time.
  const bool blocked = block_pays<double>(kd, n);
  const double* arows[kBlockRows];
  double* crows[kBlockRows];
  std::size_t pending = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a + i * kd;
    double* crow = c + i * n;
    if (!has_zero(arow, kd)) {
      if (!blocked) {
        accum_tiles<false>(arow, 1, nullptr, kd, b, n, crow);
        continue;
      }
      arows[pending] = arow;
      crows[pending] = crow;
      if (++pending == kBlockRows) {
        accum_block<kBlockRows>(arows, crows, kd, b, n);
        pending = 0;
      }
      continue;
    }
    std::size_t* idx = index_buffer(kd);
    const std::size_t cnt = compact_nonzero(arow, 1, kd, idx);
    accum_tiles<true>(arow, 1, idx, cnt, b, n, crow);
  }
  std::size_t r = 0;
  if (pending >= kTailBlockRows) {
    accum_block<kTailBlockRows>(arows, crows, kd, b, n);
    r = kTailBlockRows;
  }
  for (; r < pending; ++r) {
    accum_tiles<false>(arows[r], 1, nullptr, kd, b, n, crows[r]);
  }
}

void gemm_tn_accum(const double* a, const double* b, double* c,
                   std::size_t rows, std::size_t m, std::size_t n) {
  // i-outer / j-tile / r-inner: element (i, j) still receives its terms in
  // ascending r with the a(r, i) == 0 skip, exactly like the scalar
  // backend's r-outer form.
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
  // b is (bn x kd); pack its transpose once so the inner loop streams
  // rows. Each c element is still a fresh ascending-k accumulation
  // (initialized to zero, no skip), matching the scalar dot product's add
  // sequence bit for bit.
  thread_local std::vector<double> bt;
  bt.resize(kd * bn);
  transpose(b, bt.data(), bn, kd);
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a + i * kd;
    double* crow = c + i * bn;
    std::size_t j = 0;
    for (; j + 16 <= bn; j += 16) {
      __m256d acc0 = _mm256_setzero_pd();
      __m256d acc1 = _mm256_setzero_pd();
      __m256d acc2 = _mm256_setzero_pd();
      __m256d acc3 = _mm256_setzero_pd();
      for (std::size_t k = 0; k < kd; ++k) {
        const __m256d va = _mm256_set1_pd(arow[k]);
        const double* btrow = bt.data() + k * bn + j;
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(va, _mm256_loadu_pd(btrow)));
        acc1 = _mm256_add_pd(acc1,
                             _mm256_mul_pd(va, _mm256_loadu_pd(btrow + 4)));
        acc2 = _mm256_add_pd(acc2,
                             _mm256_mul_pd(va, _mm256_loadu_pd(btrow + 8)));
        acc3 = _mm256_add_pd(acc3,
                             _mm256_mul_pd(va, _mm256_loadu_pd(btrow + 12)));
      }
      _mm256_storeu_pd(crow + j, acc0);
      _mm256_storeu_pd(crow + j + 4, acc1);
      _mm256_storeu_pd(crow + j + 8, acc2);
      _mm256_storeu_pd(crow + j + 12, acc3);
    }
    for (; j + 4 <= bn; j += 4) {
      __m256d acc = _mm256_setzero_pd();
      for (std::size_t k = 0; k < kd; ++k) {
        acc = _mm256_add_pd(
            acc, _mm256_mul_pd(_mm256_set1_pd(arow[k]),
                               _mm256_loadu_pd(bt.data() + k * bn + j)));
      }
      _mm256_storeu_pd(crow + j, acc);
    }
    for (; j < bn; ++j) {
      const double* brow = b + j * kd;
      double s = 0.0;
      for (std::size_t k = 0; k < kd; ++k) s += arow[k] * brow[k];
      crow[j] = s;
    }
  }
}

namespace {

/// The float32 counterpart of accum_block_tile over kRows consecutive
/// rows: kVecs 8-wide column vectors at column j, ascending k, no zero
/// skip.
template <std::size_t kRows, int kVecs>
inline void accum_block_tile_f32(const float* a, std::size_t kd, float* c,
                                 const float* b, std::size_t n,
                                 std::size_t j) {
  __m256 acc[kRows][kVecs];
  for (std::size_t r = 0; r < kRows; ++r) {
    for (int q = 0; q < kVecs; ++q) {
      acc[r][q] = _mm256_loadu_ps(c + r * n + j + 8 * q);
    }
  }
  for (std::size_t k = 0; k < kd; ++k) {
    const float* brow = b + k * n + j;
    __m256 bv[kVecs];
    for (int q = 0; q < kVecs; ++q) bv[q] = _mm256_loadu_ps(brow + 8 * q);
    for (std::size_t r = 0; r < kRows; ++r) {
      const __m256 va = _mm256_broadcast_ss(a + r * kd + k);
      for (int q = 0; q < kVecs; ++q) {
        acc[r][q] = _mm256_add_ps(acc[r][q], _mm256_mul_ps(va, bv[q]));
      }
    }
  }
  for (std::size_t r = 0; r < kRows; ++r) {
    for (int q = 0; q < kVecs; ++q) {
      _mm256_storeu_ps(c + r * n + j + 8 * q, acc[r][q]);
    }
  }
}

/// kRows consecutive rows across all columns: 16- and 8-column tiles, then
/// each row's scalar tail.
template <std::size_t kRows>
void accum_block_f32(const float* a, std::size_t kd, float* c,
                     const float* b, std::size_t n) {
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    accum_block_tile_f32<kRows, 2>(a, kd, c, b, n, j);
  }
  for (; j + 8 <= n; j += 8) accum_block_tile_f32<kRows, 1>(a, kd, c, b, n, j);
  for (; j < n; ++j) {
    for (std::size_t r = 0; r < kRows; ++r) {
      float s = c[r * n + j];
      for (std::size_t k = 0; k < kd; ++k) s += a[r * kd + k] * b[k * n + j];
      c[r * n + j] = s;
    }
  }
}

/// One float32 row: 32- and 8-column tiles, then the scalar tail.
void accum_row_f32(const float* arow, std::size_t kd, float* crow,
                   const float* b, std::size_t n) {
  std::size_t j = 0;
  for (; j + 32 <= n; j += 32) {
    __m256 acc0 = _mm256_loadu_ps(crow + j);
    __m256 acc1 = _mm256_loadu_ps(crow + j + 8);
    __m256 acc2 = _mm256_loadu_ps(crow + j + 16);
    __m256 acc3 = _mm256_loadu_ps(crow + j + 24);
    for (std::size_t k = 0; k < kd; ++k) {
      const __m256 va = _mm256_set1_ps(arow[k]);
      const float* brow = b + k * n + j;
      acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(va, _mm256_loadu_ps(brow)));
      acc1 =
          _mm256_add_ps(acc1, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 8)));
      acc2 =
          _mm256_add_ps(acc2, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 16)));
      acc3 =
          _mm256_add_ps(acc3, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 24)));
    }
    _mm256_storeu_ps(crow + j, acc0);
    _mm256_storeu_ps(crow + j + 8, acc1);
    _mm256_storeu_ps(crow + j + 16, acc2);
    _mm256_storeu_ps(crow + j + 24, acc3);
  }
  for (; j + 8 <= n; j += 8) {
    __m256 acc = _mm256_loadu_ps(crow + j);
    for (std::size_t k = 0; k < kd; ++k) {
      acc = _mm256_add_ps(
          acc, _mm256_mul_ps(_mm256_set1_ps(arow[k]),
                             _mm256_loadu_ps(b + k * n + j)));
    }
    _mm256_storeu_ps(crow + j, acc);
  }
  for (; j < n; ++j) {
    float s = crow[j];
    for (std::size_t k = 0; k < kd; ++k) s += arow[k] * b[k * n + j];
    crow[j] = s;
  }
}

}  // namespace

void gemm_accum_f32(const float* a, const float* b, float* c, std::size_t m,
                    std::size_t kd, std::size_t n) {
  // No zero skip in float32, so runs of consecutive rows form the blocks.
  std::size_t i = 0;
  if (block_pays<float>(kd, n)) {
    for (; i + kBlockRows <= m; i += kBlockRows) {
      accum_block_f32<kBlockRows>(a + i * kd, kd, c + i * n, b, n);
    }
    if (i + kTailBlockRows <= m) {
      accum_block_f32<kTailBlockRows>(a + i * kd, kd, c + i * n, b, n);
      i += kTailBlockRows;
    }
  }
  for (; i < m; ++i) accum_row_f32(a + i * kd, kd, c + i * n, b, n);
}

// The gate passes are the scalar backend's portable bodies, compiled in
// this TU so the autovectorizer emits the 4-wide (f64) and 8-wide (f32)
// AVX2 form of the identical arithmetic.
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
  const __m256d lr = _mm256_set1_pd(step.learning_rate);
  const __m256d b1 = _mm256_set1_pd(step.beta1);
  const __m256d b2 = _mm256_set1_pd(step.beta2);
  const __m256d c1 = _mm256_set1_pd(1.0 - step.beta1);
  const __m256d c2 = _mm256_set1_pd(1.0 - step.beta2);
  const __m256d bc1 = _mm256_set1_pd(step.bc1);
  const __m256d bc2 = _mm256_set1_pd(step.bc2);
  const __m256d eps = _mm256_set1_pd(step.epsilon);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d gi = _mm256_loadu_pd(g + i);
    const __m256d mi = _mm256_add_pd(_mm256_mul_pd(b1, _mm256_loadu_pd(m + i)),
                                     _mm256_mul_pd(c1, gi));
    const __m256d vi =
        _mm256_add_pd(_mm256_mul_pd(b2, _mm256_loadu_pd(v + i)),
                      _mm256_mul_pd(_mm256_mul_pd(c2, gi), gi));
    _mm256_storeu_pd(m + i, mi);
    _mm256_storeu_pd(v + i, vi);
    const __m256d mhat = _mm256_div_pd(mi, bc1);
    const __m256d vhat = _mm256_div_pd(vi, bc2);
    const __m256d upd =
        _mm256_div_pd(_mm256_mul_pd(lr, mhat),
                      _mm256_add_pd(_mm256_sqrt_pd(vhat), eps));
    _mm256_storeu_pd(p + i, _mm256_sub_pd(_mm256_loadu_pd(p + i), upd));
  }
  adam_update_range(p, m, v, g, i, n, step);
}

}  // namespace aps::ml::kernels::avx2

#endif  // APS_HAVE_AVX2
