// Portable SIMD kernel layer for the from-scratch ML stack: blocked/batched
// GEMM, row-major transpose/pack, fused bias/activation passes, and the
// fused LSTM gate update, in float64 (training + reference inference) and
// float32 (serving inference) flavors.
//
// Backends: AVX2 (x86-64, compiled only when the toolchain supports -mavx2
// and guarded by a runtime CPUID check), NEON (aarch64 baseline), and a
// scalar fallback that is always compiled. Dispatch is resolved once at
// startup — best available backend, overridable with APS_KERNELS=scalar|
// avx2|neon — and can be re-pointed at runtime (set_backend) so tests and
// benches A/B the backends inside one process.
//
// Bit-identity contract (float64): every backend performs the exact same
// IEEE operation sequence per output element as the plain reference loops
// in tests/kernels_test.cpp (ref_gemm_accum and its siblings) —
// accumulation in ascending k, separate multiply and add (no FMA; the
// build pins -ffp-contract=off), and a skip of zero left-hand
// multipliers. SIMD vectorizes across OUTPUT COLUMNS and, in the AVX2
// gemm_accum, blocks across dense rows (six rows with no zero multiplier
// share every load of the right-hand operand once it outgrows L1).
// Neither reorders any element's operations, so float64 results are
// bit-identical across scalar/AVX2/NEON and to those loops. The transcendentals (exp, sigmoid, tanh in
// the gate pass and the softmax) are the in-repo functions below, not
// libm: "bit-identical" means the same in-repo op sequence on every
// backend and every host, whichever exp/tanh the host's libm would pick.
// The SIMD backends take the zero skip without
// a branch per multiplier: a row (or, for gemm_tn_accum, a column) of the
// left-hand operand that holds a zero is first compacted into the
// ascending list of its nonzero indices, and every column tile walks that
// list. The skip set is the scalar `== 0.0` test's (so -0.0 is skipped
// and NaN is not) and the order stays ascending, so each output element
// still sees the same operation sequence. The float32 kernels share the ordering (so
// they too are backend-invariant bitwise) but are only tolerance-pinned
// (<= 1e-4 on probabilities) against the float64 reference; they never
// skip zeros and use a polynomial expf/tanhf in the gate update.
#pragma once

#include <cstddef>
#include <vector>

namespace aps::ml::kernels {

enum class Backend { kScalar = 0, kAvx2 = 1, kNeon = 2 };

[[nodiscard]] const char* to_string(Backend backend);
/// Backends compiled into this binary AND runnable on this CPU (always
/// contains kScalar). What the equivalence tests iterate.
[[nodiscard]] std::vector<Backend> compiled_backends();
[[nodiscard]] Backend active_backend();
/// to_string(active_backend()) — what obs reports as `kernels_backend`.
[[nodiscard]] const char* backend_name();
/// Re-point dispatch (tests / bench A/B). Requests for a backend that is
/// not compiled or not runnable fall back to scalar; returns what was set.
Backend set_backend(Backend backend);

// ---- float64 kernels (bit-identity contract) -------------------------------

/// c(m x n) += a(m x k) * b(k x n), all row-major. Ascending-k
/// accumulation with the a[i][k] == 0 skip: bit-identical to
/// kernels_test's ref_gemm_accum loop on every backend.
void gemm_accum(const double* a, const double* b, double* c, std::size_t m,
                std::size_t k, std::size_t n);

/// c(m x n) += a^T * b where a is (rows x m) and b is (rows x n):
/// the fused-transpose product of the weight gradients. Ascending-row
/// accumulation with the a[r][i] == 0 skip (kernels_test's
/// ref_gemm_tn_accum).
void gemm_tn_accum(const double* a, const double* b, double* c,
                   std::size_t rows, std::size_t m, std::size_t n);

/// c(m x bn) = a(m x k) * b(bn x k)^T — row-by-row dot products, each
/// accumulated in ascending k into a local sum (no zero skip;
/// kernels_test's ref_gemm_nt).
void gemm_nt(const double* a, const double* b, double* c, std::size_t m,
             std::size_t k, std::size_t bn);

/// dst(cols x rows) = src(rows x cols)^T, row-major pack.
void transpose(const double* src, double* dst, std::size_t rows,
               std::size_t cols);

/// z[r][c] += bias[c] for every row.
void add_bias_rows(double* z, const double* bias, std::size_t rows,
                   std::size_t cols);
/// z[r][c] = bias[c] for every row (batched bias broadcast).
void fill_bias_rows(double* z, const double* bias, std::size_t rows,
                    std::size_t cols);

/// In-place ReLU with the legacy `v < 0 ? 0 : v` semantics (-0.0 and NaN
/// pass through untouched, exactly like the pre-kernel loop).
void relu(double* x, std::size_t size);

/// Scalars of one Adam step (bias corrections bc1 = 1 - beta1^t and
/// bc2 = 1 - beta2^t are computed once per step by the caller).
struct AdamStep {
  double learning_rate = 0.0;
  double beta1 = 0.0;
  double beta2 = 0.0;
  double epsilon = 0.0;
  double bc1 = 1.0;
  double bc2 = 1.0;
};

/// One Adam update over n parameters, per element:
///   m = beta1 * m + (1 - beta1) * g
///   v = beta2 * v + (1 - beta2) * g * g
///   p -= learning_rate * (m / bc1) / (sqrt(v / bc2) + epsilon)
/// Mul, add, div and sqrt are all correctly rounded, so the vector
/// backends are bit-identical to the scalar loop.
void adam_update(double* p, double* m, double* v, const double* g,
                 std::size_t n, const AdamStep& step);

/// out[i] = a * x[i] + b — the fused axpy used for batched robustness
/// margins in src/learn (r = mu - beta / beta - mu as a = +-1, b = -+beta;
/// IEEE-exact vs the scalar subtraction it replaces).
void affine(const double* x, double a, double b, double* out, std::size_t n);

/// Fused LSTM gate update over a lane-major batch: z is (lanes x 4*hidden)
/// pre-activations in gate order [i f g o]; c and h are (lanes x hidden)
/// cell/hidden state, updated in place; out (lanes x hidden) receives the
/// new hidden state (the layer output for this step). Per element:
///   i = sigmoid(z_i), f = sigmoid(z_f), g = tanh(z_g), o = sigmoid(z_o),
///   c = f * c + i * g, h = o * tanh(c),
/// with the in-repo sigmoid_f64 / tanh_f64 below. The backends vectorize
/// that one op sequence across hidden units, so every backend is
/// bit-identical to a naive loop over sigmoid_f64 / tanh_f64. The four
/// buffers must not overlap.
void lstm_gates(const double* z, double* c, double* h, double* out,
                std::size_t lanes, std::size_t hidden);

/// Where the training form of the gate pass stores one step's activations,
/// each (lanes x hidden) row-major: the gates, the new cell state, its tanh
/// and the new hidden state.
struct LstmGateCache {
  double* i = nullptr;
  double* f = nullptr;
  double* g = nullptr;
  double* o = nullptr;
  double* c = nullptr;
  double* tanh_c = nullptr;
  double* h = nullptr;
};

/// lstm_gates for training: the same per-element sequence, reading the
/// previous cell state from c_prev (lanes x hidden; nullptr at t = 0, where
/// it is zero) and writing every activation BPTT needs to `cache`.
void lstm_gates_cached(const double* z, const double* c_prev,
                       const LstmGateCache& cache, std::size_t lanes,
                       std::size_t hidden);

/// Row-wise softmax in place over a (rows x cols) row-major block: shift
/// by the row maximum, exp_f64, sum in ascending column order, divide.
/// The one softmax of the MLP and LSTM heads, f64 and f32 paths alike.
void softmax_rows(double* x, std::size_t rows, std::size_t cols);

/// The in-repo float64 transcendentals behind lstm_gates and softmax_rows
/// (Cephes' exp.c / tanh.c, branch free, no FMA). Over the whole double
/// range exp_f64 is within 2 ulp of the true value, sigmoid_f64 within
/// 2.5 ulp and tanh_f64 within 1.5 ulp; NaN maps to NaN, sigmoid
/// saturates to exactly 0 and 1, tanh to exactly -1 and 1, and
/// tanh_f64(-0) is -0. Exposed for the accuracy pins in
/// tests/kernels_test.cpp.
[[nodiscard]] double exp_f64(double x);
[[nodiscard]] double sigmoid_f64(double x);
[[nodiscard]] double tanh_f64(double x);

// ---- float32 kernels (serving inference; tolerance-pinned) -----------------

/// c(m x n) += a(m x k) * b(k x n), ascending-k mul+add (no FMA, no zero
/// skip) — bitwise backend-invariant, tolerance-pinned against float64.
/// AVX2 blocks it across rows as in the float64 kernel, every run of six
/// rows being dense here.
void gemm_accum_f32(const float* a, const float* b, float* c, std::size_t m,
                    std::size_t k, std::size_t n);

void fill_bias_rows_f32(float* z, const float* bias, std::size_t rows,
                        std::size_t cols);
void relu_f32(float* x, std::size_t size);

/// float32 fused gate update. Uses the kernel layer's polynomial
/// expf/tanhf (fast_expf/fast_tanhf below) so the whole pass vectorizes;
/// identical arithmetic on every backend.
void lstm_gates_f32(const float* z, float* c, float* h, float* out,
                    std::size_t lanes, std::size_t hidden);

/// Polynomial exp/tanh used by the float32 gate kernels (Cephes-style
/// degree-5 polynomial on the reduced argument; relative error ~2e-7,
/// far inside the 1e-4 serving tolerance). Exposed for the accuracy pin
/// in tests/kernels_test.cpp.
[[nodiscard]] float fast_expf(float x);
[[nodiscard]] float fast_tanhf(float x);

}  // namespace aps::ml::kernels
