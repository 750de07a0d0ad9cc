// Detection-order preprocessing (SQRD).
//
// Sorted QR decomposition (Wubben et al.) permutes the channel columns so
// that the layer detected first (tree level M-1) is the most reliable one.
// The paper's decoder detects in natural antenna order; served Best-FS
// (spec name `sphere` on the CPU) detects in this order, and the benches
// use it to quantify how much ordering shrinks the search tree.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace sd {

/// Result of a sorted QR: H * P = Q * R where P is the column permutation.
struct SortedQr {
  CMat q;                    ///< thin N x M, orthonormal nonzero columns
  CMat r;                    ///< upper-triangular M x M, real non-neg diagonal
  std::vector<index_t> perm; ///< perm[k] = original antenna index of layer k
};

/// Sorted QR via MGS with min-norm column pivoting: at step k the remaining
/// column with the smallest residual norm is factored next, which pushes
/// reliable layers to the bottom of the tree (detected first).
///
/// Total on rank-deficient H: a pivot whose residual norm is at the rounding
/// floor (at most N·eps times H's largest column norm, as for an all-zero or
/// a duplicated column) gets r(k,k) = 0, a zero Q column and a zero R row
/// tail, as Householder QR gives such a column a zero r(k,k). H * P = Q * R
/// still holds to rounding. An H whose pivots all stay above the floor (any
/// H not singular at float precision) gets the plain MGS bits.
[[nodiscard]] SortedQr qr_sorted(const CMat& h);

/// qr_sorted() into caller-owned storage: `q`, `r` and `perm` are resized
/// (their capacity is reused), and `col_norm_sq` is the residual-norm
/// workspace. No heap allocation once the buffers have seen the shape. Q
/// doubles as the residual matrix, so there is no copy of H besides Q.
void qr_sorted_into(const CMat& h, CMat& q, CMat& r, std::vector<index_t>& perm,
                    std::vector<double>& col_norm_sq);

/// True if every entry of `h` is finite, which SQRD needs. On an inf or NaN
/// entry the rank floor, scaled by the largest column norm, is itself not
/// finite, so qr_sorted() would floor every pivot and return an all-zero R,
/// on which every tree path ties at PD 0. The preprocessing therefore takes
/// the plain Householder factorization of such an H: its R turns non-finite,
/// which the tree searches answer with the Babai point at once.
[[nodiscard]] bool sqrd_applicable(const CMat& h) noexcept;

/// Undoes the permutation: given symbols in layer order, returns them in
/// original antenna order.
[[nodiscard]] CVec unpermute(const std::vector<index_t>& perm,
                             const CVec& layered);

}  // namespace sd
