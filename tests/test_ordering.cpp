#include "linalg/ordering.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "linalg/gemm.hpp"
#include "linalg/norms.hpp"
#include "test_util.hpp"

namespace sd {
namespace {

TEST(SortedQr, ReconstructsPermutedChannel) {
  const index_t n = 8, m = 6;
  const CMat h = testing::random_cmat(n, m, 1);
  const SortedQr sq = qr_sorted(h);

  // Build H * P from the permutation and compare with Q * R.
  CMat hp(n, m);
  for (index_t k = 0; k < m; ++k) {
    const index_t src = sq.perm[static_cast<usize>(k)];
    for (index_t i = 0; i < n; ++i) hp(i, k) = h(i, src);
  }
  CMat qr(n, m);
  gemm_naive(Op::kNone, cplx{1, 0}, sq.q, sq.r, cplx{0, 0}, qr);
  EXPECT_LT(max_abs_diff(qr, hp), 5e-5);
}

TEST(SortedQr, PermIsAPermutation) {
  const CMat h = testing::random_cmat(10, 10, 2);
  const SortedQr sq = qr_sorted(h);
  std::vector<index_t> sorted = sq.perm;
  std::sort(sorted.begin(), sorted.end());
  for (index_t k = 0; k < 10; ++k) {
    EXPECT_EQ(sorted[static_cast<usize>(k)], k);
  }
}

TEST(SortedQr, QIsOrthonormal) {
  const CMat h = testing::random_cmat(12, 8, 3);
  const SortedQr sq = qr_sorted(h);
  CMat g(8, 8);
  gemm_naive(Op::kConjTrans, cplx{1, 0}, sq.q, sq.q, cplx{0, 0}, g);
  EXPECT_LT(max_abs_diff(g, CMat::identity(8)), 5e-5);
}

TEST(SortedQr, FirstPivotIsMinNormColumn) {
  const index_t n = 6, m = 4;
  CMat h = testing::random_cmat(n, m, 4);
  // Make column 2 tiny so the SQRD min-norm rule must pick it first.
  for (index_t i = 0; i < n; ++i) h(i, 2) *= real{0.01};
  const SortedQr sq = qr_sorted(h);
  EXPECT_EQ(sq.perm[0], 2);
}

TEST(SortedQr, DiagonalRealNonNegative) {
  const CMat h = testing::random_cmat(9, 7, 5);
  const SortedQr sq = qr_sorted(h);
  for (index_t i = 0; i < 7; ++i) {
    EXPECT_GT(sq.r(i, i).real(), 0.0f);
    EXPECT_EQ(sq.r(i, i).imag(), 0.0f);
  }
}

/// Expects H * P = Q * R, zero Q columns exactly where r(k,k) = 0 (with a
/// zero R row tail), and orthonormal nonzero Q columns. Returns the number
/// of zero pivots.
int expect_total_factorization(const CMat& h, const SortedQr& sq) {
  const index_t n = h.rows();
  const index_t m = h.cols();
  CMat hp(n, m);
  for (index_t k = 0; k < m; ++k) {
    const index_t src = sq.perm[static_cast<usize>(k)];
    for (index_t i = 0; i < n; ++i) hp(i, k) = h(i, src);
  }
  CMat qr(n, m);
  gemm_naive(Op::kNone, cplx{1, 0}, sq.q, sq.r, cplx{0, 0}, qr);
  EXPECT_LT(max_abs_diff(qr, hp), 5e-5);

  CMat g(m, m);
  gemm_naive(Op::kConjTrans, cplx{1, 0}, sq.q, sq.q, cplx{0, 0}, g);
  int zero_pivots = 0;
  for (index_t k = 0; k < m; ++k) {
    const bool zero = sq.r(k, k) == cplx{0, 0};
    zero_pivots += zero ? 1 : 0;
    if (zero) {
      for (index_t i = 0; i < n; ++i) {
        EXPECT_EQ(sq.q(i, k), (cplx{0, 0})) << "column " << k;
      }
      for (index_t j = k; j < m; ++j) {
        EXPECT_EQ(sq.r(k, j), (cplx{0, 0})) << "row " << k;
      }
    }
    for (index_t l = 0; l < m; ++l) {
      if (zero || sq.r(l, l) == cplx{0, 0}) continue;
      const cplx want = l == k ? cplx{1, 0} : cplx{0, 0};
      EXPECT_LT(std::abs(g(k, l) - want), 5e-5) << k << "," << l;
    }
  }
  return zero_pivots;
}

TEST(SortedQr, ZeroColumnFactorsWithAZeroPivot) {
  CMat h = testing::random_cmat(10, 10, 6);
  for (index_t i = 0; i < 10; ++i) h(i, 4) = cplx{0, 0};
  SortedQr sq;
  ASSERT_NO_THROW(sq = qr_sorted(h));
  // The zero column has the smallest norm, so it is factored first.
  EXPECT_EQ(sq.perm[0], 4);
  EXPECT_EQ(expect_total_factorization(h, sq), 1);
  EXPECT_EQ(sq.r(0, 0), (cplx{0, 0}));
}

TEST(SortedQr, DuplicatedColumnFactorsWithAZeroPivot) {
  CMat h = testing::random_cmat(10, 10, 7);
  for (index_t i = 0; i < 10; ++i) h(i, 7) = h(i, 2);
  SortedQr sq;
  ASSERT_NO_THROW(sq = qr_sorted(h));
  // Once one copy is factored, the other's residual is rounding only.
  EXPECT_EQ(expect_total_factorization(h, sq), 1);
}

TEST(SortedQr, AllZeroChannelFactorsToZero) {
  const CMat h(6, 4);
  SortedQr sq;
  ASSERT_NO_THROW(sq = qr_sorted(h));
  EXPECT_EQ(expect_total_factorization(h, sq), 4);
}

TEST(SortedQr, IntoReusedBuffersMatchesTheWrapperBitForBit) {
  // Buffers left dirty by another shape and another channel must not leak
  // into the next factorization.
  CMat q;
  CMat r;
  std::vector<index_t> perm;
  std::vector<double> norms;
  qr_sorted_into(testing::random_cmat(12, 12, 8), q, r, perm, norms);
  for (const std::uint64_t seed : {9u, 10u}) {
    const CMat h = testing::random_cmat(10, 8, seed);
    qr_sorted_into(h, q, r, perm, norms);
    const SortedQr want = qr_sorted(h);
    EXPECT_EQ(q, want.q) << seed;
    EXPECT_EQ(r, want.r) << seed;
    EXPECT_EQ(perm, want.perm) << seed;
  }
}

TEST(Unpermute, InvertsPermutation) {
  const std::vector<index_t> perm{2, 0, 1};
  const CVec layered{cplx{10, 0}, cplx{20, 0}, cplx{30, 0}};
  const CVec original = unpermute(perm, layered);
  // layered[k] belongs to antenna perm[k].
  EXPECT_EQ(original[2], (cplx{10, 0}));
  EXPECT_EQ(original[0], (cplx{20, 0}));
  EXPECT_EQ(original[1], (cplx{30, 0}));
}

TEST(Unpermute, LengthMismatchThrows) {
  EXPECT_THROW((void)unpermute({0, 1}, CVec(3)), invalid_argument_error);
}

}  // namespace
}  // namespace sd
