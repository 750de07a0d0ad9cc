#include "linalg/ordering.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"
#include "linalg/norms.hpp"

namespace sd {

SortedQr qr_sorted(const CMat& h) {
  SortedQr out;
  std::vector<double> col_norm_sq;
  qr_sorted_into(h, out.q, out.r, out.perm, col_norm_sq);
  return out;
}

void qr_sorted_into(const CMat& h, CMat& q, CMat& r, std::vector<index_t>& perm,
                    std::vector<double>& col_norm_sq) {
  const index_t n = h.rows();
  const index_t m = h.cols();
  SD_CHECK(n >= m && m > 0, "sorted QR requires N >= M > 0");

  q = h;  // residual columns, permuted and normalized in place
  r.reshape(m, m);
  r.fill(cplx{0, 0});
  perm.resize(static_cast<usize>(m));
  std::iota(perm.begin(), perm.end(), index_t{0});

  col_norm_sq.assign(static_cast<usize>(m), 0.0);
  double max_norm_sq = 0.0;
  for (index_t j = 0; j < m; ++j) {
    for (index_t i = 0; i < n; ++i) col_norm_sq[static_cast<usize>(j)] += norm2(q(i, j));
    max_norm_sq = std::max(max_norm_sq, col_norm_sq[static_cast<usize>(j)]);
  }
  // Rank floor: a residual this small is rounding left over from columns
  // already factored, not a new direction.
  const double floor_eps =
      static_cast<double>(n) * std::numeric_limits<real>::epsilon();
  const double floor_sq = floor_eps * floor_eps * max_norm_sq;

  auto swap_cols = [&](index_t a, index_t b) {
    if (a == b) return;
    for (index_t i = 0; i < n; ++i) std::swap(q(i, a), q(i, b));
    // R columns already produced for steps < current also permute.
    for (index_t i = 0; i < m; ++i) std::swap(r(i, a), r(i, b));
    std::swap(col_norm_sq[static_cast<usize>(a)], col_norm_sq[static_cast<usize>(b)]);
    std::swap(perm[static_cast<usize>(a)], perm[static_cast<usize>(b)]);
  };

  for (index_t k = 0; k < m; ++k) {
    // Pick the remaining column with minimum residual norm (SQRD rule).
    index_t best = k;
    for (index_t j = k + 1; j < m; ++j) {
      if (col_norm_sq[static_cast<usize>(j)] < col_norm_sq[static_cast<usize>(best)]) {
        best = j;
      }
    }
    swap_cols(k, best);

    // The running downdate of col_norm_sq loses precision on ill-conditioned
    // channels (it can underflow to zero while the true residual is small
    // but nonzero); recompute the pivot's exact residual norm before use.
    double exact_norm_sq = 0.0;
    for (index_t i = 0; i < n; ++i) exact_norm_sq += norm2(q(i, k));
    col_norm_sq[static_cast<usize>(k)] = exact_norm_sq;
    const real nrm = static_cast<real>(std::sqrt(exact_norm_sq));
    if (!(exact_norm_sq > floor_sq) || !(nrm > real{0})) {
      // Rank-deficient pivot: r(k,k) and R's row tail stay 0, and the
      // remaining residuals keep no component along a zero Q column.
      for (index_t i = 0; i < n; ++i) q(i, k) = cplx{0, 0};
      continue;
    }
    r(k, k) = cplx{nrm, 0};
    for (index_t i = 0; i < n; ++i) q(i, k) /= nrm;

    for (index_t j = k + 1; j < m; ++j) {
      cplx dot{0, 0};
      for (index_t i = 0; i < n; ++i) dot += std::conj(q(i, k)) * q(i, j);
      r(k, j) = dot;
      for (index_t i = 0; i < n; ++i) q(i, j) -= dot * q(i, k);
      col_norm_sq[static_cast<usize>(j)] -= static_cast<double>(norm2(dot));
      if (col_norm_sq[static_cast<usize>(j)] < 0.0) col_norm_sq[static_cast<usize>(j)] = 0.0;
    }
  }
}

bool sqrd_applicable(const CMat& h) noexcept {
  for (index_t i = 0; i < h.rows(); ++i) {
    for (const cplx v : h.row(i)) {
      if (!std::isfinite(v.real()) || !std::isfinite(v.imag())) return false;
    }
  }
  return true;
}

CVec unpermute(const std::vector<index_t>& perm, const CVec& layered) {
  SD_CHECK(perm.size() == layered.size(), "permutation length mismatch");
  CVec out(layered.size());
  for (usize k = 0; k < perm.size(); ++k) {
    out[static_cast<usize>(perm[k])] = layered[k];
  }
  return out;
}

}  // namespace sd
