// The split-complex (SoA) kernel's bitwise-identity contract.
//
// The decoders' golden-regression methodology requires that kernel dispatch
// NEVER changes result bits: scalar-packed, SoA-packed, and the gemm()
// small-shape fast path must all agree exactly, with observability compiled
// in or out. These tests pin that across the dispatch boundaries (the
// kGemmKc K-panel depth and the m*n*k <= 4096 volume gate), with random
// alpha/beta, for both Op modes. They run in the ASan/UBSan and TSan CI
// jobs, which build with SPHEREDEC_OBS OFF and ON respectively.
#include "linalg/gemm.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "test_util.hpp"

namespace sd {
namespace {

void expect_bitwise_equal(const CMat& a, const CMat& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (index_t r = 0; r < a.rows(); ++r) {
    for (index_t c = 0; c < a.cols(); ++c) {
      ASSERT_EQ(a(r, c), b(r, c))
          << what << " diverges at (" << r << "," << c << ")";
    }
  }
}

/// Kernel-override RAII so a failing test cannot leak a forced kernel into
/// later tests.
struct KernelGuard {
  GemmKernel saved = gemm_kernel_override();
  ~KernelGuard() { set_gemm_kernel_override(saved); }
};

// Shapes spanning the dispatch boundaries: K-panel edges (kGemmKc - 1 /
// exact / + 1 / multi-panel), the volume gate (m*n*k around 4096), panel
// remainders in every dimension, and the decoders' real shapes (sibling
// batches, BFS level batches).
struct Shape {
  index_t m, n, k;
};
const Shape kShapes[] = {
    {1, 4, 10},                  // Best-FS sibling batch
    {1, 4096, 10},               // BFS level batch
    {10, 4096, 10},              // BFS level batch, full row block
    {3, 5, 7},                   // odd everything
    {2, 16, kGemmKc - 1},        // just under one K panel
    {2, 16, kGemmKc},            // exactly one K panel
    {2, 16, kGemmKc + 1},        // two panels, partial second
    {4, 8, 2 * kGemmKc + 3},     // multi-panel K
    {1, 1, 4096},                // volume gate edge, deep K
    {64, 128, 128},              // exactly one full blocking tile
    {65, 129, 131},              // remainders in every dimension
    {67, 9, 200},                // odd rows, narrow, multi-panel K
};

class SoaIdentity : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!gemm_soa_available()) {
      GTEST_SKIP() << "SoA kernel unavailable on this build/CPU";
    }
  }
  KernelGuard guard_;
};

TEST_F(SoaIdentity, SoaMatchesScalarBitForBitAcrossShapes) {
  std::uint64_t seed = 7001;
  for (const Shape& s : kShapes) {
    for (const Op op : {Op::kNone, Op::kConjTrans}) {
      // A is stored (m x k) for kNone, (k x m) for kConjTrans.
      const index_t ar = op == Op::kNone ? s.m : s.k;
      const index_t ac = op == Op::kNone ? s.k : s.m;
      const CMat a = testing::random_cmat(ar, ac, seed++);
      const CMat b = testing::random_cmat(s.k, s.n, seed++);
      const cplx alpha{0.8f, -0.4f};
      const cplx beta{0.3f, 0.2f};
      CMat c_scalar = testing::random_cmat(s.m, s.n, seed);
      CMat c_soa = c_scalar;
      gemm_packed_scalar(op, alpha, a, b, beta, c_scalar);
      gemm_packed_soa(op, alpha, a, b, beta, c_soa);
      ASSERT_NO_FATAL_FAILURE(expect_bitwise_equal(c_scalar, c_soa, "soa"))
          << "m=" << s.m << " n=" << s.n << " k=" << s.k
          << " op=" << static_cast<int>(op);
      ++seed;
    }
  }
}

TEST_F(SoaIdentity, BetaZeroAndOneAgree) {
  for (const cplx beta : {cplx{0, 0}, cplx{1, 0}}) {
    const CMat a = testing::random_cmat(9, 300, 7501);
    const CMat b = testing::random_cmat(300, 33, 7502);
    CMat c_scalar = testing::random_cmat(9, 33, 7503);
    CMat c_soa = c_scalar;
    gemm_packed_scalar(Op::kNone, cplx{1, 0}, a, b, beta, c_scalar);
    gemm_packed_soa(Op::kNone, cplx{1, 0}, a, b, beta, c_soa);
    expect_bitwise_equal(c_scalar, c_soa, "beta variant");
  }
}

TEST_F(SoaIdentity, DispatchedGemmIsKernelInvariant) {
  // gemm() must produce the same bits whichever kernel the override forces —
  // the property that lets the default dispatch prefer SoA while the golden
  // regressions stay untouched.
  for (const Shape& s : kShapes) {
    const CMat a = testing::random_cmat(s.m, s.k, 7601);
    const CMat b = testing::random_cmat(s.k, s.n, 7602);
    CMat c_forced_scalar(s.m, s.n);
    CMat c_forced_soa(s.m, s.n);
    set_gemm_kernel_override(GemmKernel::kScalar);
    gemm(Op::kNone, cplx{1, 0}, a, b, cplx{0, 0}, c_forced_scalar);
    set_gemm_kernel_override(GemmKernel::kSoa);
    gemm(Op::kNone, cplx{1, 0}, a, b, cplx{0, 0}, c_forced_soa);
    set_gemm_kernel_override(GemmKernel::kAuto);
    ASSERT_NO_FATAL_FAILURE(
        expect_bitwise_equal(c_forced_scalar, c_forced_soa, "gemm dispatch"))
        << "m=" << s.m << " n=" << s.n << " k=" << s.k;
  }
}

TEST_F(SoaIdentity, ExplicitWorkspaceMatchesThreadLocal) {
  GemmWorkspace ws;
  const CMat a = testing::random_cmat(20, 150, 7701);
  const CMat b = testing::random_cmat(150, 70, 7702);
  CMat c_tls(20, 70), c_ws(20, 70);
  gemm_packed_soa(Op::kNone, cplx{1, 0}, a, b, cplx{0, 0}, c_tls);
  gemm_packed_soa(Op::kNone, cplx{1, 0}, a, b, cplx{0, 0}, c_ws, ws);
  expect_bitwise_equal(c_tls, c_ws, "workspace");
  EXPECT_GT(ws.stats().acquires, 0u);
}

TEST(GemmKernelSelection, OverrideRoundTrips) {
  KernelGuard guard;
  set_gemm_kernel_override(GemmKernel::kScalar);
  EXPECT_EQ(gemm_kernel_override(), GemmKernel::kScalar);
  EXPECT_EQ(active_gemm_kernel(), GemmKernel::kScalar);
  set_gemm_kernel_override(GemmKernel::kAuto);
  EXPECT_EQ(gemm_kernel_override(), GemmKernel::kAuto);
  // kAuto resolves to a concrete kernel consistent with availability.
  const GemmKernel active = active_gemm_kernel();
  if (gemm_soa_available()) {
    EXPECT_EQ(active, GemmKernel::kSoa);
  } else {
    EXPECT_EQ(active, GemmKernel::kScalar);
  }
}

TEST(GemmKernelSelection, ForcedSoaDegradesToScalarWhenUnavailable) {
  KernelGuard guard;
  set_gemm_kernel_override(GemmKernel::kSoa);
  const GemmKernel active = active_gemm_kernel();
  if (gemm_soa_available()) {
    EXPECT_EQ(active, GemmKernel::kSoa);
  } else {
    EXPECT_EQ(active, GemmKernel::kScalar);
    // The unconditional entry point must refuse rather than silently
    // fall back.
    const CMat a = testing::random_cmat(2, 2, 1);
    const CMat b = testing::random_cmat(2, 2, 2);
    CMat c(2, 2);
    EXPECT_THROW(gemm_packed_soa(Op::kNone, cplx{1, 0}, a, b, cplx{0, 0}, c),
                 invalid_argument_error);
  }
}

/// Upper-triangular k x k block, the shape of a trailing block of R.
CMat random_r_block(index_t k, std::uint64_t seed) {
  CMat r = testing::random_cmat(k, k, seed);
  for (index_t i = 0; i < k; ++i) {
    for (index_t j = 0; j < i; ++j) r(i, j) = cplx{0, 0};
  }
  return r;
}

CMat row0_of(const CMat& a) {
  CMat row(1, a.cols());
  for (index_t c = 0; c < a.cols(); ++c) row(0, c) = a(0, c);
  return row;
}

/// The kernels a test can force on this build/CPU.
std::vector<GemmKernel> forceable_kernels() {
  std::vector<GemmKernel> kernels{GemmKernel::kScalar};
  if (gemm_soa_available()) kernels.push_back(GemmKernel::kSoa);
  return kernels;
}

// The decoders form only row 0 of each level product (DESIGN.md §11). That
// is exact only if row 0 of a 1 x k product has the bits of row 0 of the
// paper's full k x k product: each output element's reduction must not
// depend on how many rows the product has. Pinned for both kernels, for the
// grouped level kernel up to one K panel (its limit, and BFS's), and for
// gemm() past one panel, which Best-FS reaches above 128 antennas.
TEST(LevelRow0, OneRowProductMatchesRowZeroOfTheFullBlock) {
  KernelGuard guard;
  constexpr index_t kCols = 4 * 37;  // crosses kGemmNc and SIMD remainders
  std::uint64_t seed = 8101;
  for (const GemmKernel kernel : forceable_kernels()) {
    set_gemm_kernel_override(kernel);
    for (const index_t k : {1, 2, 10, 64, 128, 129, 200}) {
      const CMat r = random_r_block(k, seed++);
      const CMat s = testing::random_cmat(k, kCols, seed++);
      CMat full(k, kCols);
      gemm(Op::kNone, cplx{1, 0}, r, s, cplx{0, 0}, full);
      CMat one(1, kCols);
      gemm(Op::kNone, cplx{1, 0}, row0_of(r), s, cplx{0, 0}, one);
      ASSERT_NO_FATAL_FAILURE(expect_bitwise_equal(row0_of(full), one, "gemm"))
          << "k=" << k << " kernel=" << static_cast<int>(kernel);
    }
  }
}

TEST(LevelRow0, OneRowGroupedProductMatchesRowZeroOfEachFullBlock) {
  KernelGuard guard;
  const index_t cols[] = {4 * 3, 4 * 37};  // one narrow, one wide group
  std::uint64_t seed = 8201;
  for (const GemmKernel kernel : forceable_kernels()) {
    set_gemm_kernel_override(kernel);
    for (const index_t k : {1, 2, 10, 64, 128}) {
      // Two channels side by side: a_stack = [R1 | R2], B = [S1 | S2].
      const CMat r1 = random_r_block(k, seed++);
      const CMat r2 = random_r_block(k, seed++);
      const CMat s1 = testing::random_cmat(k, cols[0], seed++);
      const CMat s2 = testing::random_cmat(k, cols[1], seed++);
      CMat a_stack(1, 2 * k);
      CMat b(k, cols[0] + cols[1]);
      for (index_t t = 0; t < k; ++t) {
        a_stack(0, t) = r1(0, t);
        a_stack(0, k + t) = r2(0, t);
        for (index_t c = 0; c < cols[0]; ++c) b(t, c) = s1(t, c);
        for (index_t c = 0; c < cols[1]; ++c) b(t, cols[0] + c) = s2(t, c);
      }
      const GemmGroup groups[] = {{0, 0, cols[0]}, {k, cols[0], cols[1]}};
      CMat z(1, cols[0] + cols[1]);
      gemm_grouped(cplx{1, 0}, a_stack, k, b, cplx{0, 0}, z, groups);

      CMat full1(k, cols[0]);
      CMat full2(k, cols[1]);
      gemm(Op::kNone, cplx{1, 0}, r1, s1, cplx{0, 0}, full1);
      gemm(Op::kNone, cplx{1, 0}, r2, s2, cplx{0, 0}, full2);
      for (index_t c = 0; c < cols[0]; ++c) {
        ASSERT_EQ(z(0, c), full1(0, c))
            << "group 0 col " << c << " k=" << k
            << " kernel=" << static_cast<int>(kernel);
      }
      for (index_t c = 0; c < cols[1]; ++c) {
        ASSERT_EQ(z(0, cols[0] + c), full2(0, c))
            << "group 1 col " << c << " k=" << k
            << " kernel=" << static_cast<int>(kernel);
      }
    }
  }
}

TEST(GemmWorkspaceStats, SteadyStateStopsGrowing) {
  GemmWorkspace ws;
  const CMat a = testing::random_cmat(30, 200, 7801);
  const CMat b = testing::random_cmat(200, 90, 7802);
  CMat c(30, 90);
  gemm_packed(Op::kNone, cplx{1, 0}, a, b, cplx{0, 0}, c, ws);
  const std::uint64_t grows_after_warmup = ws.stats().grow_events;
  EXPECT_GT(ws.stats().bytes_reserved, 0u);
  for (int rep = 0; rep < 5; ++rep) {
    gemm_packed(Op::kNone, cplx{1, 0}, a, b, cplx{0, 0}, c, ws);
  }
  EXPECT_EQ(ws.stats().grow_events, grows_after_warmup)
      << "packed GEMM grew its workspace after warm-up";
}

}  // namespace
}  // namespace sd
