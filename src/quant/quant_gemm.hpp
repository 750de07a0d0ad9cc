// Int16 split-complex level-GEMM kernel family for the quantized BFS.
//
// Computes the quantized analogue of the BFS level product z = A * S:
//
//   A — the zr x k level slice of quantized R, as SEPARATE int16 SoA planes
//       (a_re, a_im), both Q(f);
//   S — the k x n batched symbol matrix, as INTERLEAVED (re, im) int16
//       pairs: s_ri is k x 2n with row t = [re(t,0), im(t,0), re(t,1), ...].
//       The pairing is what lets _mm256_madd_epi16 form a full complex
//       multiply half (br*x + bi*y) in ONE instruction;
//   Z — zr x n int32 SoA planes (z_re, z_im), exact Q(2f) products.
//
// The AVX2 path broadcasts, per (output row, k-step), a 32-bit coefficient
// packing (ar, -ai) for the real half and (ai, ar) for the imag half, then
// madd-accumulates 8 complex columns per 256-bit lane. The scalar reference
// performs the identical integer arithmetic, so AVX2 vs scalar is EXACTLY
// equal (integer math has no rounding), pinned by tests/test_quant.cpp.
//
// Overflow contract: operands are Q(f) produced under a QuantSpec whose
// accumulation bound keeps every dot product under 2^30 (quant_spec.hpp);
// madd's internal pair-sum is bounded by 2 * kQuantMax^2 < 2^31 regardless.
// Inputs respecting the calibration can never wrap. See DESIGN.md §15.
#pragma once

#include <cstdint>
#include <span>

#include "linalg/gemm.hpp"
#include "quant/quant_spec.hpp"

namespace sd::quant {

/// Max K depth of one level product, mirroring kGemmKc for the float
/// kernels; the AVX2 path packs per-row coefficient arrays of this length.
inline constexpr index_t kQuantGemmMaxK = kGemmKc;

/// True iff the AVX2 int16 kernel is compiled in AND the CPU supports it.
[[nodiscard]] bool qgemm_int16_available() noexcept;

/// The kernel qgemm_level resolves to right now: kScalar or kSoa (= the
/// AVX2 madd path). Honors the same process-wide override as the float
/// kernels (set_gemm_kernel_override / SD_GEMM_KERNEL): a forced kScalar
/// forces the scalar reference; anything else takes AVX2 when available.
/// The choice never changes results — both kernels are exact.
[[nodiscard]] GemmKernel active_quant_kernel() noexcept;

/// z = A * S (shapes and layouts in the header comment). z_re/z_im are
/// reshaped by the callee (allocation-free at high-water capacity) and
/// OVERWRITTEN. Dispatches per active_quant_kernel().
void qgemm_level(const I16Mat& a_re, const I16Mat& a_im, const I16Mat& s_ri,
                 I32Mat& z_re, I32Mat& z_im);

/// The scalar reference, unconditionally.
void qgemm_level_scalar(const I16Mat& a_re, const I16Mat& a_im,
                        const I16Mat& s_ri, I32Mat& z_re, I32Mat& z_im);

/// The AVX2 madd kernel, unconditionally. Throws sd::invalid_argument_error
/// when !qgemm_int16_available(); use qgemm_level for graceful dispatch.
void qgemm_level_avx2(const I16Mat& a_re, const I16Mat& a_im,
                      const I16Mat& s_ri, I32Mat& z_re, I32Mat& z_im);

/// Grouped (block-diagonal) variant — the quantized wide-BFS primitive,
/// sharing GemmGroup with the float path. a_re/a_im stack per-frame zr x k
/// blocks side by side (group g's block starts at column g.a_col); group g
/// covers COMPLEX columns [g.col, g.col + g.cols) of Z, i.e. int16 columns
/// [2*g.col, ...) of s_ri. Groups must be pairwise disjoint in Z; uncovered
/// columns are left untouched. Requires k <= kQuantGemmMaxK.
void qgemm_level_grouped(const I16Mat& a_re, const I16Mat& a_im, index_t k,
                         const I16Mat& s_ri, I32Mat& z_re, I32Mat& z_im,
                         std::span<const GemmGroup> groups);

/// Row 0 of one parent's quantized level product, split the way the BFS
/// engine evaluates it (DESIGN.md §15). In row 0 of A * S the t = 0 term
/// belongs to the child (R(a,a)·q(c_i)) and the t >= 1 terms to the parent's
/// path, so
///
///   z_i = term_i + dot,  term_i = qrow0_child_terms(...)[i],
///                        dot    = qrow0_table_dot(qrow0_parent_table(...),
///                                                 path).
///
/// Both tables are formed once per level: a parent's term R(a,a+t)·q(s)
/// takes one of only p values per t. Every term uses qgemm_block_scalar's
/// integer ops, and integer sums are exact, so z equals row 0 of
/// qgemm_level / qgemm_level_grouped under both kernels.
struct QDot {
  std::int32_t re = 0;
  std::int32_t im = 0;
};

/// The children's own terms: `sym_ri` interleaves their (re, im) pairs,
/// (ar, ai) is R(a,a); term_re/term_im receive one value per child.
inline void qrow0_child_terms(std::int16_t ar, std::int16_t ai,
                              std::span<const std::int16_t> sym_ri,
                              std::span<std::int32_t> term_re,
                              std::span<std::int32_t> term_im) noexcept {
  const std::int32_t a_re = ar;
  const std::int32_t a_im = ai;
  for (usize i = 0; i < term_re.size(); ++i) {
    const std::int32_t br = sym_ri[2 * i];
    const std::int32_t bi = sym_ri[2 * i + 1];
    term_re[i] = br * a_re + bi * -a_im;
    term_im[i] = br * a_im + bi * a_re;
  }
}

/// Every possible parent term of one level: with a_re/a_im R's row a from
/// column a+1 on (k-1 entries) and `sym_ri` the p symbols' interleaved
/// (re, im) pairs, entry (t-1)·p + s of `table` ((k-1)·p entries) receives
/// R(a,a+t)·q(c_s).
inline void qrow0_parent_table(std::span<const std::int16_t> a_re,
                               std::span<const std::int16_t> a_im,
                               std::span<const std::int16_t> sym_ri,
                               std::span<QDot> table) noexcept {
  const usize p = sym_ri.size() / 2;
  for (usize t = 0; t < a_re.size(); ++t) {
    const std::int32_t ar = a_re[t];
    const std::int32_t ai = a_im[t];
    for (usize s = 0; s < p; ++s) {
      const std::int32_t br = sym_ri[2 * s];
      const std::int32_t bi = sym_ri[2 * s + 1];
      table[t * p + s] = QDot{br * ar + bi * -ai, br * ai + bi * ar};
    }
  }
}

/// The parent's share of row 0: the sum over t = 1..k-1 of its table entry
/// (t-1, path[k-1-t]), where `path` (k-1 entries) holds the parent's symbol
/// at each depth and depth d decided column a+k-1-d.
[[nodiscard]] inline QDot qrow0_table_dot(
    std::span<const QDot> table, usize p,
    std::span<const std::uint8_t> path) noexcept {
  QDot d;
  const usize depth = path.size();
  for (usize t = 1; t <= depth; ++t) {
    const QDot v = table[(t - 1) * p + path[depth - t]];
    d.re += v.re;
    d.im += v.im;
  }
  return d;
}

/// Bytes touched by one zr x n x k quantized level product (int16 operands,
/// int32 outputs) — the cost-model/bandwidth analogue of the float path's
/// sizeof(cplx) accounting.
[[nodiscard]] constexpr std::uint64_t qgemm_bytes(index_t zr, index_t n,
                                                  index_t k) noexcept {
  return 4ull * static_cast<std::uint64_t>(zr) * static_cast<std::uint64_t>(k) +
         4ull * static_cast<std::uint64_t>(k) * static_cast<std::uint64_t>(n) +
         8ull * static_cast<std::uint64_t>(zr) * static_cast<std::uint64_t>(n);
}

namespace detail {
[[nodiscard]] bool qgemm_avx2_compiled() noexcept;
[[nodiscard]] bool qgemm_avx2_runtime_ok() noexcept;

/// Raw-pointer block kernel (AVX2 TU): computes one zr x n block given row
/// strides in ELEMENTS (int16 for a/s, int32 for z). s points at the first
/// (re, im) pair of the block's first column; n is complex columns.
void qgemm_block_avx2(const std::int16_t* a_re, const std::int16_t* a_im,
                      usize a_stride, const std::int16_t* s, usize s_stride,
                      std::int32_t* z_re, std::int32_t* z_im, usize z_stride,
                      index_t zr, index_t k, index_t n);
/// Scalar twin of qgemm_block_avx2 — identical integer arithmetic.
void qgemm_block_scalar(const std::int16_t* a_re, const std::int16_t* a_im,
                        usize a_stride, const std::int16_t* s, usize s_stride,
                        std::int32_t* z_re, std::int32_t* z_im, usize z_stride,
                        index_t zr, index_t k, index_t n);
}  // namespace detail

}  // namespace sd::quant
