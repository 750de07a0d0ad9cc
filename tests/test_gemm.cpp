#include "linalg/gemm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/random.hpp"
#include "linalg/norms.hpp"
#include "linalg/solve.hpp"
#include "test_util.hpp"

namespace sd {
namespace {

// Bitwise equality, not tolerance: the dispatch contract is that which
// kernel runs must never change the bits of the result.
void expect_bitwise_equal(const CMat& a, const CMat& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (index_t r = 0; r < a.rows(); ++r) {
    for (index_t c = 0; c < a.cols(); ++c) {
      EXPECT_EQ(a(r, c), b(r, c)) << "(" << r << "," << c << ")";
    }
  }
}

TEST(GemmNaive, MatchesHandComputed2x2) {
  CMat a(2, 2, {cplx{1, 0}, cplx{0, 1}, cplx{2, 0}, cplx{0, 0}});
  CMat b(2, 2, {cplx{1, 0}, cplx{1, 0}, cplx{0, 0}, cplx{0, 2}});
  CMat c(2, 2);
  gemm_naive(Op::kNone, cplx{1, 0}, a, b, cplx{0, 0}, c);
  EXPECT_EQ(c(0, 0), (cplx{1, 0}));   // 1*1 + i*0
  EXPECT_EQ(c(0, 1), (cplx{-1, 0}));  // 1*1 + i*2i = 1 - 2
  EXPECT_EQ(c(1, 0), (cplx{2, 0}));
  EXPECT_EQ(c(1, 1), (cplx{2, 0}));
}

TEST(GemmNaive, ConjTransposeMatchesExplicitHermitian) {
  const CMat a = testing::random_cmat(5, 3, 1);
  const CMat b = testing::random_cmat(5, 4, 2);
  CMat c1(3, 4), c2(3, 4);
  gemm_naive(Op::kConjTrans, cplx{1, 0}, a, b, cplx{0, 0}, c1);
  const CMat ah = hermitian(a);
  gemm_naive(Op::kNone, cplx{1, 0}, ah, b, cplx{0, 0}, c2);
  EXPECT_LT(max_abs_diff(c1, c2), 1e-5);
}

TEST(GemmNaive, AlphaBetaSemantics) {
  const CMat a = testing::random_cmat(3, 3, 3);
  const CMat b = testing::random_cmat(3, 3, 4);
  CMat c = testing::random_cmat(3, 3, 5);
  const CMat c0 = c;
  CMat ab(3, 3);
  gemm_naive(Op::kNone, cplx{1, 0}, a, b, cplx{0, 0}, ab);
  gemm_naive(Op::kNone, cplx{2, 0}, a, b, cplx{0.5, 0}, c);
  for (index_t i = 0; i < 3; ++i) {
    for (index_t j = 0; j < 3; ++j) {
      const cplx expected = cplx{2, 0} * ab(i, j) + cplx{0.5, 0} * c0(i, j);
      EXPECT_LT(std::abs(c(i, j) - expected), 1e-4f);
    }
  }
}

TEST(GemmNaive, ShapeMismatchThrows) {
  CMat a(2, 3), b(4, 2), c(2, 2);
  EXPECT_THROW(gemm_naive(Op::kNone, cplx{1, 0}, a, b, cplx{0, 0}, c),
               invalid_argument_error);
}

/// Property sweep: the blocked kernel must match the naive oracle on a grid
/// of shapes including ones that exercise partial blocks and leftover lanes.
class GemmShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, BlockedMatchesNaive) {
  const auto [m, n, k] = GetParam();
  const CMat a = testing::random_cmat(m, k, static_cast<std::uint64_t>(m * 31 + n * 7 + k));
  const CMat b = testing::random_cmat(k, n, static_cast<std::uint64_t>(m + n + k * 13));
  CMat c_ref(m, n), c_opt(m, n);
  gemm_naive(Op::kNone, cplx{1, 0}, a, b, cplx{0, 0}, c_ref);
  gemm(Op::kNone, cplx{1, 0}, a, b, cplx{0, 0}, c_opt);
  EXPECT_LT(max_abs_diff(c_ref, c_opt), 1e-3 * k)
      << "m=" << m << " n=" << n << " k=" << k;
}

TEST_P(GemmShapes, BlockedConjTransMatchesNaive) {
  const auto [m, n, k] = GetParam();
  // A stored as (k x m); op(A) = A^H is (m x k).
  const CMat a = testing::random_cmat(k, m, static_cast<std::uint64_t>(m * 17 + n + k));
  const CMat b = testing::random_cmat(k, n, static_cast<std::uint64_t>(m + n * 5 + k));
  CMat c_ref(m, n), c_opt(m, n);
  gemm_naive(Op::kConjTrans, cplx{1, 0}, a, b, cplx{0, 0}, c_ref);
  gemm(Op::kConjTrans, cplx{1, 0}, a, b, cplx{0, 0}, c_opt);
  EXPECT_LT(max_abs_diff(c_ref, c_opt), 1e-3 * k);
}

INSTANTIATE_TEST_SUITE_P(
    ShapeGrid, GemmShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{1, 4, 10},
                      std::tuple{2, 2, 2}, std::tuple{3, 5, 7},
                      std::tuple{16, 16, 16}, std::tuple{1, 16, 20},
                      std::tuple{65, 3, 129}, std::tuple{64, 128, 128},
                      std::tuple{67, 130, 131}, std::tuple{5, 1, 200}));

TEST(Gemm, BetaZeroOverwritesNanContents) {
  // BLAS semantics: beta == 0 means C is OUTPUT-ONLY. The old kernels
  // computed `alpha*acc + beta*c` / `v *= beta`, which propagates NaN/Inf
  // from stale C contents — the classic beta-zero bug. The decoders hand
  // freshly reused scratch matrices to gemm with beta = 0, so stale bits
  // must never leak into the product.
  // Big enough for the packed path (m*n*k > 4096) but within one K panel
  // (k <= kGemmKc), so the naive oracle is bitwise comparable to the packed
  // kernels.
  const index_t m = 6, n = 70, k = 120;
  const CMat a = testing::random_cmat(m, k, 91);
  const CMat b = testing::random_cmat(k, n, 92);
  const real nan = std::numeric_limits<real>::quiet_NaN();
  const real inf = std::numeric_limits<real>::infinity();

  CMat expected(m, n);
  gemm_naive(Op::kNone, cplx{1, 0}, a, b, cplx{0, 0}, expected);

  const auto poisoned = [&] {
    CMat c(m, n);
    for (index_t i = 0; i < m; ++i) {
      for (index_t j = 0; j < n; ++j) {
        c(i, j) = (i + j) % 2 == 0 ? cplx{nan, nan} : cplx{inf, -inf};
      }
    }
    return c;
  };

  CMat c_naive = poisoned();
  gemm_naive(Op::kNone, cplx{1, 0}, a, b, cplx{0, 0}, c_naive);
  expect_bitwise_equal(c_naive, expected);

  CMat c_packed = poisoned();
  gemm_packed_scalar(Op::kNone, cplx{1, 0}, a, b, cplx{0, 0}, c_packed);
  expect_bitwise_equal(c_packed, expected);

  CMat c_dispatch = poisoned();
  gemm(Op::kNone, cplx{1, 0}, a, b, cplx{0, 0}, c_dispatch);
  expect_bitwise_equal(c_dispatch, expected);

  if (gemm_soa_available()) {
    CMat c_soa = poisoned();
    gemm_packed_soa(Op::kNone, cplx{1, 0}, a, b, cplx{0, 0}, c_soa);
    expect_bitwise_equal(c_soa, expected);
  }

  // gemv, both op modes.
  const CVec x = testing::random_cvec(static_cast<usize>(k), 93);
  CVec y(static_cast<usize>(m), cplx{nan, nan});
  CMat xmat(k, 1);
  for (index_t i = 0; i < k; ++i) xmat(i, 0) = x[static_cast<usize>(i)];
  CMat yref(m, 1);
  gemm_naive(Op::kNone, cplx{1, 0}, a, xmat, cplx{0, 0}, yref);
  gemv(Op::kNone, cplx{1, 0}, a, x, cplx{0, 0}, y);
  for (index_t i = 0; i < m; ++i) {
    EXPECT_EQ(y[static_cast<usize>(i)], yref(i, 0));
  }
  const CVec x2 = testing::random_cvec(static_cast<usize>(m), 94);
  CVec y2(static_cast<usize>(k), cplx{inf, nan});
  gemv(Op::kConjTrans, cplx{1, 0}, a, x2, cplx{0, 0}, y2);
  for (const cplx& v : y2) {
    EXPECT_TRUE(std::isfinite(v.real()) && std::isfinite(v.imag()));
  }
}

TEST(Gemm, AccumulatesWithBetaOne) {
  const CMat a = testing::random_cmat(4, 4, 21);
  const CMat b = testing::random_cmat(4, 4, 22);
  CMat c_ref = testing::random_cmat(4, 4, 23);
  CMat c_opt = c_ref;
  gemm_naive(Op::kNone, cplx{1, 0}, a, b, cplx{1, 0}, c_ref);
  gemm(Op::kNone, cplx{1, 0}, a, b, cplx{1, 0}, c_opt);
  EXPECT_LT(max_abs_diff(c_ref, c_opt), 1e-4);
}

TEST(Gemv, MatchesGemmWithSingleColumn) {
  const CMat a = testing::random_cmat(6, 4, 31);
  const CVec x = testing::random_cvec(4, 32);
  CVec y(6, cplx{0, 0});
  gemv(Op::kNone, cplx{1, 0}, a, x, cplx{0, 0}, y);

  CMat xb(4, 1);
  for (index_t i = 0; i < 4; ++i) xb(i, 0) = x[static_cast<usize>(i)];
  CMat yb(6, 1);
  gemm_naive(Op::kNone, cplx{1, 0}, a, xb, cplx{0, 0}, yb);
  for (index_t i = 0; i < 6; ++i) {
    EXPECT_LT(std::abs(y[static_cast<usize>(i)] - yb(i, 0)), 1e-5f);
  }
}

TEST(Gemv, ConjTransMatchesHermitianGemv) {
  const CMat a = testing::random_cmat(6, 4, 41);
  const CVec x = testing::random_cvec(6, 42);
  CVec y1(4, cplx{0, 0}), y2(4, cplx{0, 0});
  gemv(Op::kConjTrans, cplx{1, 0}, a, x, cplx{0, 0}, y1);
  const CMat ah = hermitian(a);
  gemv(Op::kNone, cplx{1, 0}, ah, x, cplx{0, 0}, y2);
  EXPECT_LT(max_abs_diff(y1, y2), 1e-5);
}

TEST(Gemv, LengthMismatchThrows) {
  const CMat a = testing::random_cmat(3, 2, 51);
  CVec x(3), y(3);
  EXPECT_THROW(gemv(Op::kNone, cplx{1, 0}, a, x, cplx{0, 0}, y),
               invalid_argument_error);
}

TEST(GemmFlops, CountsComplexMacs) {
  EXPECT_EQ(gemm_flops(1, 4, 10), 8ull * 40);
  EXPECT_EQ(gemm_flops(0, 4, 10), 0u);
}

// ---- dispatch determinism (regression for the k > kGemmKc fast-path leak)

TEST(GemmDispatch, NaiveAndPackedBitwiseIdenticalWithinOneKPanel) {
  // For k <= kGemmKc both kernels accumulate each output element over the
  // same ascending-k order, so they agree bitwise — the property the small-
  // product fast path relies on.
  const struct {
    index_t m, n, k;
  } shapes[] = {
      {1, 4, 10},          // sibling batch (Best-FS)
      {3, 5, 7},           // odd everything
      {4, 8, kGemmKc},     // exactly one full K panel
      {65, 129, 1},        // M/N panel boundaries, trivial K
  };
  for (const auto& s : shapes) {
    const CMat a = testing::random_cmat(s.m, s.k, 81);
    const CMat b = testing::random_cmat(s.k, s.n, 82);
    CMat c_naive = testing::random_cmat(s.m, s.n, 83);
    CMat c_packed = c_naive;
    gemm_naive(Op::kNone, cplx{0.7, -0.3}, a, b, cplx{0.2, 0.1}, c_naive);
    gemm_packed(Op::kNone, cplx{0.7, -0.3}, a, b, cplx{0.2, 0.1}, c_packed);
    expect_bitwise_equal(c_naive, c_packed);
  }
}

TEST(GemmDispatch, DeepKSmallProductTakesThePackedPath) {
  // Regression: 1x1x4096 has m*n*k <= 4096, so the old volume-only gate sent
  // it to gemm_naive — whose accumulation order differs from the packed
  // kernel's once k spans multiple K panels. The gate now also requires
  // k <= kGemmKc, so gemm() must agree bitwise with gemm_packed here.
  const struct {
    index_t m, n, k;
  } shapes[] = {
      {1, 1, 4096},             // the original offender
      {1, 31, kGemmKc + 1},     // just past one panel, volume under the gate
      {2, 2, 1000},             // multi-panel, small m*n
  };
  for (const auto& s : shapes) {
    const CMat a = testing::random_cmat(s.m, s.k, 84);
    const CMat b = testing::random_cmat(s.k, s.n, 85);
    CMat c_dispatch(s.m, s.n);
    CMat c_packed(s.m, s.n);
    gemm(Op::kNone, cplx{1, 0}, a, b, cplx{0, 0}, c_dispatch);
    gemm_packed(Op::kNone, cplx{1, 0}, a, b, cplx{0, 0}, c_packed);
    expect_bitwise_equal(c_dispatch, c_packed);
  }
}

TEST(GemmDispatch, FastPathShapesStillAgreeWithBothKernels) {
  // On fast-path shapes (small volume AND k within one panel) the dispatch
  // result must equal the naive kernel — and, by the one-panel identity,
  // the packed kernel too.
  const CMat a = testing::random_cmat(4, 16, 86);
  const CMat b = testing::random_cmat(16, 8, 87);
  CMat c_dispatch(4, 8), c_naive(4, 8), c_packed(4, 8);
  gemm(Op::kNone, cplx{1, 0}, a, b, cplx{0, 0}, c_dispatch);
  gemm_naive(Op::kNone, cplx{1, 0}, a, b, cplx{0, 0}, c_naive);
  gemm_packed(Op::kNone, cplx{1, 0}, a, b, cplx{0, 0}, c_packed);
  expect_bitwise_equal(c_dispatch, c_naive);
  expect_bitwise_equal(c_dispatch, c_packed);
}

// The matched filter (gemv kConjTrans) and gram_into spell conj(a) * b out
// in real arithmetic. Pinned bitwise against copies of the std::complex
// loops they replaced, on seeded shapes (m 1-16, k 0-160) whose entries
// include signed zeros and values scaled by 1e20 (products overflow to
// Inf, and Inf - Inf sums turn NaN and take the std::complex path).

/// The conjugate-transpose gemv loop as it was: std::complex accumulation,
/// row by row, each output in ascending row order.
void reference_gemv_conj(cplx alpha, const CMat& a, std::span<const cplx> x,
                         cplx beta, std::span<cplx> y) {
  const index_t m = a.cols();
  const bool overwrite = beta == cplx{0, 0};
  std::vector<cplx> acc(static_cast<usize>(m), cplx{0, 0});
  for (index_t r = 0; r < a.rows(); ++r) {
    const auto row = a.row(r);
    const cplx xr = x[static_cast<usize>(r)];
    for (index_t i = 0; i < m; ++i) {
      acc[static_cast<usize>(i)] += std::conj(row[static_cast<usize>(i)]) * xr;
    }
  }
  for (index_t i = 0; i < m; ++i) {
    const auto u = static_cast<usize>(i);
    y[u] = overwrite ? alpha * acc[u] : alpha * acc[u] + beta * y[u];
  }
}

/// gemm_naive's kConjTrans loop with B = A, alpha = 1, beta = 0.
CMat reference_gram(const CMat& h) {
  const index_t m = h.cols();
  CMat g(m, m);
  const cplx alpha{1, 0};
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < m; ++j) {
      cplx acc{0, 0};
      for (index_t p = 0; p < h.rows(); ++p) {
        acc += std::conj(h(p, i)) * h(p, j);
      }
      g(i, j) = alpha * acc;
    }
  }
  return g;
}

/// One seeded entry: Gaussian, or a signed zero in either part, or scaled
/// by 1e20.
cplx seeded_entry(GaussianSource& g, bool huge) {
  cplx v = g.next_cplx(1.0);
  switch (g.next_index(8)) {
    case 0: v = cplx{0.0f, v.imag()}; break;
    case 1: v = cplx{-0.0f, v.imag()}; break;
    case 2: v = cplx{v.real(), -0.0f}; break;
    case 3: v = cplx{-0.0f, 0.0f}; break;
    default: break;
  }
  if (huge && g.next_index(4) == 0) v *= 1e20f;
  return v;
}

bool same_bits(std::span<const cplx> a, std::span<const cplx> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

TEST(KernelBitIdentity, GramEqualsTheComplexLoop) {
  GaussianSource g(20261);
  int nonfinite_cases = 0;
  for (int c = 0; c < 800; ++c) {
    const auto m = static_cast<index_t>(1 + g.next_index(16));
    const auto k = static_cast<index_t>(g.next_index(161));
    const bool huge = c % 3 == 0;
    CMat h(k, m);
    for (cplx& v : h.flat()) v = seeded_entry(g, huge);
    const CMat want = reference_gram(h);
    CMat got(3, 3, cplx{7, 7});  // stale contents and shape are overwritten
    gram_into(h, got);
    ASSERT_EQ(got.rows(), m);
    ASSERT_EQ(got.cols(), m);
    ASSERT_TRUE(same_bits(got.flat(), want.flat()))
        << "case " << c << ": " << k << "x" << m;
    const CMat via_gram = gram(h);
    ASSERT_TRUE(same_bits(via_gram.flat(), want.flat())) << "case " << c;
    for (const cplx& v : want.flat()) {
      if (!std::isfinite(v.real()) || !std::isfinite(v.imag())) {
        ++nonfinite_cases;
        break;
      }
    }
  }
  // The 1e20 cases really reach the overflow and NaN paths.
  EXPECT_GT(nonfinite_cases, 50);
}

TEST(KernelBitIdentity, MatchedFilterEqualsTheComplexLoop) {
  GaussianSource g(20262);
  int nonfinite_cases = 0;
  for (int c = 0; c < 2000; ++c) {
    const auto m = static_cast<index_t>(1 + g.next_index(16));
    const auto k = static_cast<index_t>(g.next_index(161));
    const bool huge = c % 3 == 0;
    CMat a(k, m);
    for (cplx& v : a.flat()) v = seeded_entry(g, huge);
    CVec x(static_cast<usize>(k));
    for (cplx& v : x) v = seeded_entry(g, huge);
    // The matched filter's alpha = 1, beta = 0, and a general update.
    const bool general = c % 2 == 1;
    const cplx alpha = general ? seeded_entry(g, false) : cplx{1, 0};
    const cplx beta = general ? seeded_entry(g, false) : cplx{0, 0};
    CVec y0(static_cast<usize>(m));
    for (cplx& v : y0) v = seeded_entry(g, false);
    CVec want = y0;
    CVec got = y0;
    reference_gemv_conj(alpha, a, x, beta, want);
    gemv(Op::kConjTrans, alpha, a, x, beta, got);
    ASSERT_TRUE(same_bits(got, want)) << "case " << c << ": " << k << "x" << m;
    for (const cplx& v : want) {
      if (!std::isfinite(v.real()) || !std::isfinite(v.imag())) {
        ++nonfinite_cases;
        break;
      }
    }
  }
  EXPECT_GT(nonfinite_cases, 50);
}

TEST(KernelBitIdentity, NonFiniteInputsTakeTheComplexPath) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // (Inf, NaN) makes both parts of the plain product NaN, and std::complex
  // recovers an infinite result from it.
  for (const cplx bad : {cplx{inf, 0.0f}, cplx{0.0f, -inf}, cplx{inf, inf},
                         cplx{nan, 1.0f}, cplx{1.0f, nan}, cplx{inf, nan},
                         cplx{nan, -inf}}) {
    CMat h = testing::random_cmat(12, 4, 31);
    h(5, 2) = bad;
    const CMat want = reference_gram(h);
    CMat got;
    gram_into(h, got);
    EXPECT_TRUE(same_bits(got.flat(), want.flat()));

    const CVec x = testing::random_cvec(12, 32);
    CVec y_want(4), y_got(4);
    reference_gemv_conj(cplx{1, 0}, h, x, cplx{0, 0}, y_want);
    gemv(Op::kConjTrans, cplx{1, 0}, h, x, cplx{0, 0}, y_got);
    EXPECT_TRUE(same_bits(y_got, y_want));
  }
}

TEST(KernelBitIdentity, GramIntoIsAllocationStableInItsWorkspace) {
  GemmWorkspace ws;
  const CMat h = testing::random_cmat(128, 8, 33);
  CMat g;
  gram_into(h, g, ws);
  const std::uint64_t grown = ws.stats().grow_events;
  for (int i = 0; i < 4; ++i) gram_into(h, g, ws);
  EXPECT_EQ(ws.stats().grow_events, grown);
}

}  // namespace
}  // namespace sd
