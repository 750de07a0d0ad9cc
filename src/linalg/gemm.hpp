// Complex GEMM kernels.
//
// The paper refactors sphere decoding from memory-bound matrix-vector work
// (BLAS-2) to compute-bound matrix-matrix work (BLAS-3) so it can exploit a
// systolic GEMM engine. This module provides the CPU-side GEMM used by the
// optimized CPU decoder (the paper used MKL; we implement a blocked, packed
// kernel from scratch) plus a naive reference used as the correctness oracle
// and as the "direct port" cost model for the baseline FPGA design.
#pragma once

#include <cstdint>
#include <span>

#include "linalg/gemm_workspace.hpp"
#include "linalg/matrix.hpp"

namespace sd {

/// Operation applied to the A operand of a GEMM/GEMV.
enum class Op : std::uint8_t {
  kNone,       ///< use A as stored
  kConjTrans,  ///< use A^H (conjugate transpose)
};

/// Which micro-kernel backs gemm_packed. The scalar and SoA kernels are
/// bit-identical by construction (same blocking, same per-element reduction
/// order, no FMA contraction — DESIGN.md §on CPU GEMM kernels), so the
/// selection is a pure performance choice and never changes results.
enum class GemmKernel : std::uint8_t {
  kAuto,    ///< SoA where compiled in and the CPU supports it, else scalar
  kScalar,  ///< force the scalar (interleaved std::complex) packed kernel
  kSoa,     ///< force the split-complex SIMD kernel (scalar if unavailable)
};

/// True iff the split-complex SIMD kernel is compiled into this binary AND
/// the executing CPU supports it (AVX2).
[[nodiscard]] bool gemm_soa_available() noexcept;

/// Overrides kernel selection process-wide (A/B testing; also settable via
/// the SD_GEMM_KERNEL environment variable: "auto" | "scalar" | "soa").
/// The programmatic override wins over the environment.
void set_gemm_kernel_override(GemmKernel kernel) noexcept;
[[nodiscard]] GemmKernel gemm_kernel_override() noexcept;

/// The kernel gemm_packed resolves to right now: kScalar or kSoa. A forced
/// kSoa degrades to kScalar when the SoA kernel is unavailable, so callers
/// (benchmarks) can label series with what actually ran.
[[nodiscard]] GemmKernel active_gemm_kernel() noexcept;

/// Panel blocking constants of the packed kernel. kGemmKc is the K-dimension
/// panel depth: within one K-panel the packed kernel accumulates in plain
/// ascending-p order, which is why the naive kernel is bitwise identical to
/// it for k <= kGemmKc (and only then — beyond one panel the packed kernel
/// splits the reduction into per-panel partial sums).
inline constexpr index_t kGemmMc = 64;
inline constexpr index_t kGemmKc = 128;
inline constexpr index_t kGemmNc = 128;

/// C = alpha * op(A) * B + beta * C. Reference implementation, used as the
/// test oracle and by the un-optimized "baseline" device models.
/// Shapes: op(A) is m x k, B is k x n, C is m x n.
/// beta == 0 OVERWRITES C (BLAS semantics: stale NaN/Inf never propagate).
void gemm_naive(Op op_a, cplx alpha, const CMat& a, const CMat& b, cplx beta,
                CMat& c);

/// C = alpha * op(A) * B + beta * C. The cache-blocked, operand-packed path,
/// always (no small-shape dispatch), backed by the scalar or the SoA kernel
/// per active_gemm_kernel() — a choice that never changes the result bits.
/// Exposed so tests can pin the fast path's bitwise-identity claim against
/// it on boundary shapes. The overload without a workspace uses the calling
/// thread's default (GemmWorkspace::thread_local_instance()).
void gemm_packed(Op op_a, cplx alpha, const CMat& a, const CMat& b, cplx beta,
                 CMat& c);
void gemm_packed(Op op_a, cplx alpha, const CMat& a, const CMat& b, cplx beta,
                 CMat& c, GemmWorkspace& ws);

/// The scalar (interleaved std::complex) packed kernel, unconditionally —
/// the A/B baseline the SoA kernel is pinned against.
void gemm_packed_scalar(Op op_a, cplx alpha, const CMat& a, const CMat& b,
                        cplx beta, CMat& c);
void gemm_packed_scalar(Op op_a, cplx alpha, const CMat& a, const CMat& b,
                        cplx beta, CMat& c, GemmWorkspace& ws);

/// The split-complex (SoA planes, SIMD-across-columns) packed kernel,
/// unconditionally. Throws sd::invalid_argument_error when
/// !gemm_soa_available(); use gemm_packed for graceful dispatch.
void gemm_packed_soa(Op op_a, cplx alpha, const CMat& a, const CMat& b,
                     cplx beta, CMat& c);
void gemm_packed_soa(Op op_a, cplx alpha, const CMat& a, const CMat& b,
                     cplx beta, CMat& c, GemmWorkspace& ws);

/// C = alpha * op(A) * B + beta * C. Cache-blocked, operand-packed kernel —
/// the "optimized CPU" implementation. Small shapes (m*n*k <= 4096 AND
/// k <= kGemmKc) dispatch to gemm_naive, whose accumulation order is bitwise
/// identical within a single K-panel; results are therefore independent of
/// the dispatch decision.
void gemm(Op op_a, cplx alpha, const CMat& a, const CMat& b, cplx beta,
          CMat& c);
void gemm(Op op_a, cplx alpha, const CMat& a, const CMat& b, cplx beta,
          CMat& c, GemmWorkspace& ws);

/// One slice of a grouped (block-diagonal) GEMM. The group's A block is the
/// zr x k sub-matrix of the stacked operand starting at column `a_col`; it
/// applies to the `cols` B/C columns starting at `col`.
struct GemmGroup {
  index_t a_col = 0;  ///< first column of this group's A block in a_stack
  index_t col = 0;    ///< first B/C column this group covers
  index_t cols = 0;   ///< number of B/C columns in this group
};

/// Grouped (block-diagonal) GEMM:
///   C[:, g] = alpha * A_g * B[:, g] + beta * C[:, g]   for every group g,
/// in one kernel invocation. This is the wide-BFS primitive: frames with
/// DIFFERENT channels stack their level products side by side, each group
/// reading its own zr x k A block out of `a_stack` (groups may share an
/// a_col). Groups must cover pairwise-disjoint column ranges of C; columns
/// no group covers are left untouched (beta is applied per group region).
///
/// Requires k <= kGemmKc: every output element's reduction is then a single
/// ascending-p panel with no FMA contraction, i.e. exactly the order both
/// gemm_naive and the packed kernels use — which makes each group's columns
/// bit-identical to a solo gemm() call on its own (A_g, B-slice) pair. The
/// kernel behind it follows active_gemm_kernel(), a choice that never
/// changes the result bits.
void gemm_grouped(cplx alpha, const CMat& a_stack, index_t k, const CMat& b,
                  cplx beta, CMat& c, std::span<const GemmGroup> groups);
void gemm_grouped(cplx alpha, const CMat& a_stack, index_t k, const CMat& b,
                  cplx beta, CMat& c, std::span<const GemmGroup> groups,
                  GemmWorkspace& ws);

/// y = alpha * op(A) * x + beta * y (BLAS-2). Shapes: op(A) is m x k, x has
/// length k, y has length m. The conjugate-transpose path (the matched
/// filter H^H y) accumulates in workspace buffers (thread-local default
/// when none is given), in explicit real arithmetic that keeps each
/// output's ascending-row reduction and its bits; like gram_into, it falls
/// back to the std::complex loop when a sum turns NaN.
void gemv(Op op_a, cplx alpha, const CMat& a, std::span<const cplx> x,
          cplx beta, std::span<cplx> y);
void gemv(Op op_a, cplx alpha, const CMat& a, std::span<const cplx> x,
          cplx beta, std::span<cplx> y, GemmWorkspace& ws);

/// Gram matrix G = H^H H into `g` (reshaped to cols x cols). Bitwise equal
/// to gemm_naive(Op::kConjTrans, 1, h, h, 0, g): every element reduces over
/// the rows in ascending order with the same float operations, written as
/// explicit real arithmetic the compiler vectorizes. An input that makes
/// any sum NaN is recomputed by the std::complex loop, whose NaN recovery
/// the real form does not reproduce.
void gram_into(const CMat& h, CMat& g);
void gram_into(const CMat& h, CMat& g, GemmWorkspace& ws);

/// Complex multiply-add FLOP count of one m x n x k GEMM. One complex MAC is
/// 8 real FLOPs (4 mul + 4 add); used by the device timing models.
[[nodiscard]] constexpr std::uint64_t gemm_flops(index_t m, index_t n,
                                                 index_t k) noexcept {
  return 8ull * static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(n) *
         static_cast<std::uint64_t>(k);
}

namespace detail {
/// Resolves the (rows, cols) of op(A) given the stored shape of A.
struct OpShape {
  index_t rows;
  index_t cols;
};
[[nodiscard]] inline OpShape op_shape(Op op, const CMat& a) noexcept {
  return op == Op::kNone ? OpShape{a.rows(), a.cols()}
                         : OpShape{a.cols(), a.rows()};
}
}  // namespace detail

}  // namespace sd
