// Triangular and general linear solves used by the linear detectors
// (ZF / MMSE) and by the decoders' preprocessing.
#pragma once

#include <span>

#include "linalg/matrix.hpp"

namespace sd {

/// Solves R x = b for upper-triangular R (M x M). Throws on a (near-)zero
/// diagonal pivot.
[[nodiscard]] CVec back_substitute(const CMat& r, std::span<const cplx> b);

/// Solves L x = b for lower-triangular L (M x M).
[[nodiscard]] CVec forward_substitute(const CMat& l, std::span<const cplx> b);

/// Cholesky factorization A = L L^H of a Hermitian positive-definite matrix.
/// Throws sd::invalid_argument_error if A is not positive definite.
[[nodiscard]] CMat cholesky(const CMat& a);

/// Solves A x = b with A Hermitian positive definite via Cholesky.
[[nodiscard]] CVec cholesky_solve(const CMat& l, std::span<const cplx> b);

/// Allocation-free Cholesky: factors A = L L^H into caller-owned `l`
/// (reshape()d to A's shape; only the lower triangle and diagonal are
/// written). Same arithmetic and the same PD check as cholesky(). Intended
/// for per-frame factorization in detector scratch arenas.
void cholesky_into(const CMat& a, CMat& l);

/// Allocation-free Cholesky solve: overwrites `x` (initially b) with the
/// solution of L L^H x = b. The L^H back substitution reads the stored L
/// conjugate-transposed instead of materializing hermitian(l).
void cholesky_solve_in_place(const CMat& l, std::span<cplx> x);

/// In-place partial-pivoting LU of a square matrix; returns the pivot
/// permutation. Throws on singularity.
struct Lu {
  CMat lu;                     ///< combined L (unit diag) and U factors
  std::vector<index_t> pivot;  ///< row swaps applied, pivot[k] = row swapped with k
};
[[nodiscard]] Lu lu_decompose(const CMat& a);

/// Solves A x = b given an LU factorization.
[[nodiscard]] CVec lu_solve(const Lu& f, std::span<const cplx> b);

/// Dense inverse via LU; intended for the small (M x M) equalizer matrices of
/// the linear detectors, not for large systems.
[[nodiscard]] CMat inverse(const CMat& a);

/// Gram matrix H^H H (M x M, Hermitian PSD).
[[nodiscard]] CMat gram(const CMat& h);

/// Zero-Forcing equalizer W = (H^H H)^{-1} H^H, so that s_hat = W y. Never
/// throws: when H^H H is singular, a stream the channel cannot see (an
/// all-zero column, or one at the rounding floor of the columns before it)
/// gets a zero W row, and the others are zero-forced among themselves.
[[nodiscard]] CMat zf_equalizer(const CMat& h);

/// MMSE equalizer W = (H^H H + sigma2 I)^{-1} H^H:
/// mmse_equalizer_from_gram(h, gram(h), sigma2).
[[nodiscard]] CMat mmse_equalizer(const CMat& h, real sigma2);

/// The MMSE equalizer from an already-formed Gram matrix g = gram(h), so a
/// caller that caches g per channel pays only the sigma2-dependent rest per
/// frame, with the same bits as mmse_equalizer().
[[nodiscard]] CMat mmse_equalizer_from_gram(const CMat& h, const CMat& g,
                                            real sigma2);

}  // namespace sd
