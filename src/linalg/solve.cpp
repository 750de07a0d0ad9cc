#include "linalg/solve.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "linalg/gemm.hpp"

namespace sd {

namespace {
constexpr real kPivotEps = real{1e-20};
}

CVec back_substitute(const CMat& r, std::span<const cplx> b) {
  const index_t m = r.rows();
  SD_CHECK(r.cols() == m, "back substitution needs a square matrix");
  SD_CHECK(static_cast<index_t>(b.size()) == m, "rhs length mismatch");
  CVec x(b.begin(), b.end());
  for (index_t i = m - 1; i >= 0; --i) {
    cplx acc = x[static_cast<usize>(i)];
    for (index_t j = i + 1; j < m; ++j) {
      acc -= r(i, j) * x[static_cast<usize>(j)];
    }
    SD_CHECK(norm2(r(i, i)) > kPivotEps, "zero pivot in back substitution");
    x[static_cast<usize>(i)] = acc / r(i, i);
  }
  return x;
}

CVec forward_substitute(const CMat& l, std::span<const cplx> b) {
  const index_t m = l.rows();
  SD_CHECK(l.cols() == m, "forward substitution needs a square matrix");
  SD_CHECK(static_cast<index_t>(b.size()) == m, "rhs length mismatch");
  CVec x(static_cast<usize>(m));
  for (index_t i = 0; i < m; ++i) {
    cplx acc = b[static_cast<usize>(i)];
    for (index_t j = 0; j < i; ++j) {
      acc -= l(i, j) * x[static_cast<usize>(j)];
    }
    SD_CHECK(norm2(l(i, i)) > kPivotEps, "zero pivot in forward substitution");
    x[static_cast<usize>(i)] = acc / l(i, i);
  }
  return x;
}

CMat cholesky(const CMat& a) {
  const index_t m = a.rows();
  SD_CHECK(a.cols() == m, "Cholesky needs a square matrix");
  CMat l(m, m);
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j <= i; ++j) {
      cplx acc = a(i, j);
      for (index_t k = 0; k < j; ++k) {
        acc -= l(i, k) * std::conj(l(j, k));
      }
      if (i == j) {
        SD_CHECK(acc.real() > real{0} &&
                     std::abs(acc.imag()) < real{1e-3} * (real{1} + acc.real()),
                 "matrix is not Hermitian positive definite");
        l(i, i) = cplx{std::sqrt(acc.real()), 0};
      } else {
        l(i, j) = acc / l(j, j).real();
      }
    }
  }
  return l;
}

CVec cholesky_solve(const CMat& l, std::span<const cplx> b) {
  // A x = b with A = L L^H: forward solve L w = b, then back solve L^H x = w.
  CVec w = forward_substitute(l, b);
  const CMat lh = hermitian(l);
  return back_substitute(lh, w);
}

void cholesky_into(const CMat& a, CMat& l) {
  const index_t m = a.rows();
  SD_CHECK(a.cols() == m, "Cholesky needs a square matrix");
  l.reshape(m, m);
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j <= i; ++j) {
      cplx acc = a(i, j);
      for (index_t k = 0; k < j; ++k) {
        acc -= l(i, k) * std::conj(l(j, k));
      }
      if (i == j) {
        SD_CHECK(acc.real() > real{0} &&
                     std::abs(acc.imag()) < real{1e-3} * (real{1} + acc.real()),
                 "matrix is not Hermitian positive definite");
        l(i, i) = cplx{std::sqrt(acc.real()), 0};
      } else {
        l(i, j) = acc / l(j, j).real();
      }
    }
  }
}

void cholesky_solve_in_place(const CMat& l, std::span<cplx> x) {
  const index_t m = l.rows();
  SD_CHECK(l.cols() == m, "Cholesky solve needs a square factor");
  SD_CHECK(static_cast<index_t>(x.size()) == m, "rhs length mismatch");
  // Forward solve L w = b in place.
  for (index_t i = 0; i < m; ++i) {
    cplx acc = x[static_cast<usize>(i)];
    for (index_t j = 0; j < i; ++j) {
      acc -= l(i, j) * x[static_cast<usize>(j)];
    }
    SD_CHECK(norm2(l(i, i)) > kPivotEps, "zero pivot in forward substitution");
    x[static_cast<usize>(i)] = acc / l(i, i);
  }
  // Back solve L^H x = w in place; L^H(i, j) = conj(L(j, i)).
  for (index_t i = m - 1; i >= 0; --i) {
    cplx acc = x[static_cast<usize>(i)];
    for (index_t j = i + 1; j < m; ++j) {
      acc -= std::conj(l(j, i)) * x[static_cast<usize>(j)];
    }
    x[static_cast<usize>(i)] = acc / std::conj(l(i, i));
  }
}

namespace {

/// lu_decompose() without the throw: false at the first pivot at or below
/// kPivotEps, leaving `f` partly factored.
bool lu_factor(const CMat& a, Lu& f) {
  const index_t m = a.rows();
  SD_CHECK(a.cols() == m, "LU needs a square matrix");
  f.lu = a;
  f.pivot.resize(static_cast<usize>(m));
  for (index_t k = 0; k < m; ++k) {
    // Partial pivoting: pick the largest-magnitude element in column k.
    index_t pivot_row = k;
    real best = norm2(f.lu(k, k));
    for (index_t i = k + 1; i < m; ++i) {
      const real mag = norm2(f.lu(i, k));
      if (mag > best) {
        best = mag;
        pivot_row = i;
      }
    }
    if (!(best > kPivotEps)) return false;
    f.pivot[static_cast<usize>(k)] = pivot_row;
    if (pivot_row != k) {
      for (index_t j = 0; j < m; ++j) {
        std::swap(f.lu(k, j), f.lu(pivot_row, j));
      }
    }
    const cplx inv_pivot = cplx{1, 0} / f.lu(k, k);
    for (index_t i = k + 1; i < m; ++i) {
      const cplx factor = f.lu(i, k) * inv_pivot;
      f.lu(i, k) = factor;
      for (index_t j = k + 1; j < m; ++j) {
        f.lu(i, j) -= factor * f.lu(k, j);
      }
    }
  }
  return true;
}

/// The inverse of the matrix `f` factors, one lu_solve() per column.
CMat lu_inverse(const Lu& f) {
  const index_t m = f.lu.rows();
  CMat inv(m, m);
  CVec e(static_cast<usize>(m));
  for (index_t col = 0; col < m; ++col) {
    std::fill(e.begin(), e.end(), cplx{0, 0});
    e[static_cast<usize>(col)] = cplx{1, 0};
    const CVec x = lu_solve(f, e);
    for (index_t i = 0; i < m; ++i) {
      inv(i, col) = x[static_cast<usize>(i)];
    }
  }
  return inv;
}

/// ZF of a channel whose Gram matrix LU cannot invert. Modified Gram-Schmidt
/// runs over H's columns in order; a column whose residual is at the
/// rounding floor of the sorted QR (qr_sorted_into) adds no direction, so
/// the receiver cannot see that stream and its W row stays zero. The seen
/// streams are zero-forced among themselves through their thin QR,
/// W = R^-1 Q^H, whose pivots are all above the floor.
CMat zf_seen_streams(const CMat& h) {
  const index_t n = h.rows();
  const index_t m = h.cols();
  CMat q = h;
  CMat r(m, m);
  std::vector<bool> seen(static_cast<usize>(m), false);
  double max_norm_sq = 0.0;
  for (index_t j = 0; j < m; ++j) {
    double norm_sq = 0.0;
    for (index_t i = 0; i < n; ++i) norm_sq += norm2(h(i, j));
    max_norm_sq = std::max(max_norm_sq, norm_sq);
  }
  const double floor_eps =
      static_cast<double>(n) * std::numeric_limits<real>::epsilon();
  const double floor_sq = floor_eps * floor_eps * max_norm_sq;
  for (index_t k = 0; k < m; ++k) {
    for (index_t j = 0; j < k; ++j) {
      if (!seen[static_cast<usize>(j)]) continue;
      cplx dot{0, 0};
      for (index_t i = 0; i < n; ++i) dot += std::conj(q(i, j)) * q(i, k);
      r(j, k) = dot;
      for (index_t i = 0; i < n; ++i) q(i, k) -= dot * q(i, j);
    }
    double norm_sq = 0.0;
    for (index_t i = 0; i < n; ++i) norm_sq += norm2(q(i, k));
    if (!(norm_sq > floor_sq)) continue;
    const real nrm = static_cast<real>(std::sqrt(norm_sq));
    r(k, k) = cplx{nrm, 0};
    for (index_t i = 0; i < n; ++i) q(i, k) /= nrm;
    seen[static_cast<usize>(k)] = true;
  }
  // Back substitution by rows: R W = Q^H over the seen streams.
  CMat w(m, n);
  for (index_t k = m - 1; k >= 0; --k) {
    if (!seen[static_cast<usize>(k)]) continue;
    for (index_t i = 0; i < n; ++i) {
      cplx acc = std::conj(q(i, k));
      for (index_t j = k + 1; j < m; ++j) {
        if (seen[static_cast<usize>(j)]) acc -= r(k, j) * w(j, i);
      }
      w(k, i) = acc / r(k, k);
    }
  }
  return w;
}

}  // namespace

Lu lu_decompose(const CMat& a) {
  Lu f;
  SD_CHECK(lu_factor(a, f), "singular matrix in LU decomposition");
  return f;
}

CVec lu_solve(const Lu& f, std::span<const cplx> b) {
  const index_t m = f.lu.rows();
  SD_CHECK(static_cast<index_t>(b.size()) == m, "rhs length mismatch");
  CVec x(b.begin(), b.end());
  // Apply the recorded row swaps, then unit-lower forward solve.
  for (index_t k = 0; k < m; ++k) {
    std::swap(x[static_cast<usize>(k)],
              x[static_cast<usize>(f.pivot[static_cast<usize>(k)])]);
  }
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < i; ++j) {
      x[static_cast<usize>(i)] -= f.lu(i, j) * x[static_cast<usize>(j)];
    }
  }
  for (index_t i = m - 1; i >= 0; --i) {
    for (index_t j = i + 1; j < m; ++j) {
      x[static_cast<usize>(i)] -= f.lu(i, j) * x[static_cast<usize>(j)];
    }
    x[static_cast<usize>(i)] /= f.lu(i, i);
  }
  return x;
}

CMat inverse(const CMat& a) { return lu_inverse(lu_decompose(a)); }

CMat gram(const CMat& h) {
  CMat g;
  gram_into(h, g);
  return g;
}

CMat zf_equalizer(const CMat& h) {
  Lu f;
  if (!lu_factor(gram(h), f)) return zf_seen_streams(h);
  const CMat g_inv = lu_inverse(f);
  const CMat hh = hermitian(h);
  CMat w(h.cols(), h.rows());
  gemm_naive(Op::kNone, cplx{1, 0}, g_inv, hh, cplx{0, 0}, w);
  return w;
}

CMat mmse_equalizer(const CMat& h, real sigma2) {
  return mmse_equalizer_from_gram(h, gram(h), sigma2);
}

CMat mmse_equalizer_from_gram(const CMat& h, const CMat& g, real sigma2) {
  SD_CHECK(sigma2 >= real{0}, "noise variance must be non-negative");
  SD_CHECK(g.rows() == h.cols() && g.cols() == h.cols(),
           "Gram matrix does not match the channel");
  CMat a = g;
  for (index_t i = 0; i < a.rows(); ++i) {
    a(i, i) += cplx{sigma2, 0};
  }
  const CMat a_inv = inverse(a);
  const CMat hh = hermitian(h);
  CMat w(h.cols(), h.rows());
  gemm_naive(Op::kNone, cplx{1, 0}, a_inv, hh, cplx{0, 0}, w);
  return w;
}

}  // namespace sd
