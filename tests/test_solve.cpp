#include "linalg/solve.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "linalg/gemm.hpp"
#include "linalg/norms.hpp"
#include "test_util.hpp"

namespace sd {
namespace {

CMat random_upper(index_t m, std::uint64_t seed) {
  CMat r = testing::random_cmat(m, m, seed);
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < i; ++j) r(i, j) = cplx{0, 0};
    r(i, i) += cplx{3, 0};  // keep it well conditioned
  }
  return r;
}

CMat random_hpd(index_t m, std::uint64_t seed) {
  // A = B^H B + m*I is Hermitian positive definite.
  const CMat b = testing::random_cmat(m, m, seed);
  CMat a(m, m);
  gemm_naive(Op::kConjTrans, cplx{1, 0}, b, b, cplx{0, 0}, a);
  for (index_t i = 0; i < m; ++i) a(i, i) += cplx{static_cast<real>(m), 0};
  return a;
}

TEST(BackSubstitute, SolvesUpperTriangularSystem) {
  const index_t m = 6;
  const CMat r = random_upper(m, 1);
  const CVec x_true = testing::random_cvec(m, 2);
  CVec b(static_cast<usize>(m), cplx{0, 0});
  gemv(Op::kNone, cplx{1, 0}, r, x_true, cplx{0, 0}, b);
  const CVec x = back_substitute(r, b);
  EXPECT_LT(max_abs_diff(x, x_true), 1e-4);
}

TEST(BackSubstitute, ThrowsOnZeroPivot) {
  CMat r = random_upper(3, 3);
  r(1, 1) = cplx{0, 0};
  const CVec b = testing::random_cvec(3, 4);
  EXPECT_THROW((void)back_substitute(r, b), invalid_argument_error);
}

TEST(ForwardSubstitute, SolvesLowerTriangularSystem) {
  const index_t m = 5;
  CMat l = hermitian(random_upper(m, 5));
  const CVec x_true = testing::random_cvec(m, 6);
  CVec b(static_cast<usize>(m), cplx{0, 0});
  gemv(Op::kNone, cplx{1, 0}, l, x_true, cplx{0, 0}, b);
  const CVec x = forward_substitute(l, b);
  EXPECT_LT(max_abs_diff(x, x_true), 1e-4);
}

TEST(Cholesky, FactorReconstructsMatrix) {
  const index_t m = 7;
  const CMat a = random_hpd(m, 7);
  const CMat l = cholesky(a);
  const CMat lh = hermitian(l);
  CMat llh(m, m);
  gemm_naive(Op::kNone, cplx{1, 0}, l, lh, cplx{0, 0}, llh);
  EXPECT_LT(max_abs_diff(llh, a), 1e-3);
}

TEST(Cholesky, SolveMatchesDirectSolution) {
  const index_t m = 5;
  const CMat a = random_hpd(m, 9);
  const CVec x_true = testing::random_cvec(m, 10);
  CVec b(static_cast<usize>(m), cplx{0, 0});
  gemv(Op::kNone, cplx{1, 0}, a, x_true, cplx{0, 0}, b);
  const CMat l = cholesky(a);
  const CVec x = cholesky_solve(l, b);
  EXPECT_LT(max_abs_diff(x, x_true), 1e-3);
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
  CMat a = CMat::identity(2);
  a(1, 1) = cplx{-1, 0};
  EXPECT_THROW((void)cholesky(a), invalid_argument_error);
}

TEST(Lu, SolveRecoversKnownSolution) {
  const index_t m = 8;
  const CMat a = testing::random_cmat(m, m, 11);
  const CVec x_true = testing::random_cvec(m, 12);
  CVec b(static_cast<usize>(m), cplx{0, 0});
  gemv(Op::kNone, cplx{1, 0}, a, x_true, cplx{0, 0}, b);
  const Lu f = lu_decompose(a);
  const CVec x = lu_solve(f, b);
  EXPECT_LT(max_abs_diff(x, x_true), 1e-3);
}

TEST(Lu, SingularMatrixThrows) {
  CMat a(2, 2);  // all zeros
  EXPECT_THROW((void)lu_decompose(a), invalid_argument_error);
}

TEST(Inverse, TimesOriginalIsIdentity) {
  const index_t m = 6;
  const CMat a = testing::random_cmat(m, m, 13);
  const CMat a_inv = inverse(a);
  CMat prod(m, m);
  gemm_naive(Op::kNone, cplx{1, 0}, a, a_inv, cplx{0, 0}, prod);
  EXPECT_LT(max_abs_diff(prod, CMat::identity(m)), 1e-3);
}

TEST(Gram, IsHermitianPsd) {
  const CMat h = testing::random_cmat(8, 5, 14);
  const CMat g = gram(h);
  ASSERT_EQ(g.rows(), 5);
  ASSERT_EQ(g.cols(), 5);
  for (index_t i = 0; i < 5; ++i) {
    EXPECT_GE(g(i, i).real(), 0.0f);
    for (index_t j = 0; j < 5; ++j) {
      EXPECT_LT(std::abs(g(i, j) - std::conj(g(j, i))), 1e-4f);
    }
  }
}

TEST(ZfEqualizer, InvertsChannelExactly) {
  // W H = I for full-column-rank H: the ZF detector removes all
  // inter-stream interference in the noiseless case.
  const CMat h = testing::random_cmat(10, 6, 15);
  const CMat w = zf_equalizer(h);
  CMat wh(6, 6);
  gemm_naive(Op::kNone, cplx{1, 0}, w, h, cplx{0, 0}, wh);
  EXPECT_LT(max_abs_diff(wh, CMat::identity(6)), 1e-3);
}

TEST(ZfEqualizer, ZeroColumnGivesAZeroRow) {
  // Stream 2 has no channel: H^H H is singular, which LU refuses. The
  // equalizer gives that stream a zero row and still zero-forces the other
  // five, W H = I on their columns.
  CMat h = testing::random_cmat(10, 6, 15);
  for (index_t i = 0; i < 10; ++i) h(i, 2) = cplx{0, 0};
  const CMat w = zf_equalizer(h);
  ASSERT_EQ(w.rows(), 6);
  ASSERT_EQ(w.cols(), 10);
  for (index_t i = 0; i < 10; ++i) EXPECT_EQ(w(2, i), (cplx{0, 0})) << i;
  CMat wh(6, 6);
  gemm_naive(Op::kNone, cplx{1, 0}, w, h, cplx{0, 0}, wh);
  for (index_t r = 0; r < 6; ++r) {
    if (r == 2) continue;
    for (index_t c = 0; c < 6; ++c) {
      const cplx want = c == r ? cplx{1, 0} : cplx{0, 0};
      EXPECT_LT(std::abs(wh(r, c) - want), 1e-4f) << r << "," << c;
    }
  }
}

TEST(MmseEqualizer, ApproachesZfAsNoiseVanishes) {
  const CMat h = testing::random_cmat(8, 5, 16);
  const CMat w_zf = zf_equalizer(h);
  const CMat w_mmse = mmse_equalizer(h, real{1e-6});
  EXPECT_LT(max_abs_diff(w_zf, w_mmse), 1e-3);
}

TEST(MmseEqualizer, ShrinksGainWithNoise) {
  // With large noise the MMSE solution is biased toward zero: Frobenius
  // norm strictly below the ZF equalizer's.
  const CMat h = testing::random_cmat(8, 5, 17);
  const CMat w_zf = zf_equalizer(h);
  const CMat w_mmse = mmse_equalizer(h, real{10});
  EXPECT_LT(frobenius(w_mmse), frobenius(w_zf));
}

TEST(MmseEqualizer, RejectsNegativeVariance) {
  const CMat h = testing::random_cmat(4, 3, 18);
  EXPECT_THROW((void)mmse_equalizer(h, real{-1}), invalid_argument_error);
}

}  // namespace
}  // namespace sd
