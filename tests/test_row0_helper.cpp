// The tree searches evaluate each parent's level product straight from its
// path instead of staging a tree-state matrix and calling the level GEMM:
// Best-FS with level_row0, the BFS engine with a per-level table
// (build_row0_table + level_row0_from_table for fp32, qrow0_child_terms +
// qrow0_parent_table + qrow0_table_dot for int16). That is only a speed
// change if the helpers reproduce row 0 of the GEMM bit for bit: pinned here
// against every kernel that can form that row — gemm()'s small-shape path,
// the scalar and SoA packed kernels and the grouped level kernel — across K
// depths up to one panel (and past it for gemm() and level_row0), the
// alphabet sizes the decoders use, and non-finite R entries.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "decode/sphere_common.hpp"
#include "linalg/gemm.hpp"
#include "quant/quant_gemm.hpp"
#include "test_util.hpp"

namespace sd {
namespace {

struct KernelGuard {
  GemmKernel saved = gemm_kernel_override();
  ~KernelGuard() { set_gemm_kernel_override(saved); }
};

/// One parent's level operands: R's row a, the path symbols above it and
/// the children's candidates.
struct Operands {
  CVec r_row;   // k
  CVec above;   // k - 1
  CVec points;  // p
};

Operands random_operands(index_t k, index_t p, std::uint64_t seed) {
  Operands op;
  op.r_row = testing::random_cvec(k, seed);
  op.above = testing::random_cvec(k - 1, seed + 1);
  op.points = testing::random_cvec(p, seed + 2);
  return op;
}

/// The staged form the decoders used to build: A = R's row (1 x k) and
/// S = candidates on row 0, each path symbol repeated along its row.
void stage(const Operands& op, CMat& a, CMat& s) {
  const auto k = static_cast<index_t>(op.r_row.size());
  const auto p = static_cast<index_t>(op.points.size());
  a.reshape(1, k);
  s.reshape(k, p);
  for (index_t t = 0; t < k; ++t) a(0, t) = op.r_row[static_cast<usize>(t)];
  for (index_t c = 0; c < p; ++c) s(0, c) = op.points[static_cast<usize>(c)];
  for (index_t t = 1; t < k; ++t) {
    for (index_t c = 0; c < p; ++c) {
      s(t, c) = op.above[static_cast<usize>(t - 1)];
    }
  }
}

CVec helper(const Operands& op) {
  CVec z(op.points.size());
  level_row0(op.r_row, op.above, op.points, z);
  return z;
}

bool same_bits(real x, real y) {
  return std::bit_cast<std::uint32_t>(x) == std::bit_cast<std::uint32_t>(y);
}

/// Bitwise equality of the helper's row against row 0 of a product.
void expect_bits(const CVec& got, const CMat& z, const std::string& what) {
  ASSERT_EQ(static_cast<index_t>(got.size()), z.cols()) << what;
  for (usize c = 0; c < got.size(); ++c) {
    const cplx want = z(0, static_cast<index_t>(c));
    ASSERT_TRUE(same_bits(got[c].real(), want.real()) &&
                same_bits(got[c].imag(), want.imag()))
        << what << " col " << c << ": helper " << got[c] << " vs " << want;
  }
}

std::vector<GemmKernel> kernels() {
  std::vector<GemmKernel> ks{GemmKernel::kScalar};
  if (gemm_soa_available()) ks.push_back(GemmKernel::kSoa);
  return ks;
}

/// Row 0 of gemm(), of the forced packed kernel, and of gemm_grouped()
/// (with the parent's block as the second of two groups), all under the
/// current kernel override.
struct Rows {
  CMat gemm_row;
  CMat packed_row;
  CMat grouped_row;
};

Rows gemm_rows(const Operands& op, bool grouped) {
  CMat a;
  CMat s;
  stage(op, a, s);
  const index_t k = a.cols();
  const index_t p = s.cols();
  Rows rows;
  rows.gemm_row.reshape(1, p);
  gemm(Op::kNone, cplx{1, 0}, a, s, cplx{0, 0}, rows.gemm_row);
  rows.packed_row.reshape(1, p);
  gemm_packed(Op::kNone, cplx{1, 0}, a, s, cplx{0, 0}, rows.packed_row);
  if (grouped) {
    // A decoy group first, so the parent's block is not at column 0.
    CMat a_stack(1, 2 * k);
    CMat b(k, 3 + p);
    for (index_t t = 0; t < k; ++t) {
      a_stack(0, t) = cplx{0.5F, -0.25F};
      a_stack(0, k + t) = a(0, t);
      for (index_t c = 0; c < 3; ++c) b(t, c) = cplx{1, 1};
      for (index_t c = 0; c < p; ++c) b(t, 3 + c) = s(t, c);
    }
    const GemmGroup groups[] = {{0, 0, 3}, {k, 3, p}};
    CMat z(1, 3 + p);
    gemm_grouped(cplx{1, 0}, a_stack, k, b, cplx{0, 0}, z, groups);
    rows.grouped_row.reshape(1, p);
    for (index_t c = 0; c < p; ++c) rows.grouped_row(0, c) = z(0, 3 + c);
  }
  return rows;
}

TEST(Row0Helper, MatchesRowZeroOfEveryKernelBitForBit) {
  KernelGuard guard;
  std::uint64_t seed = 9100;
  for (const GemmKernel kernel : kernels()) {
    set_gemm_kernel_override(kernel);
    const std::string kname = kernel == GemmKernel::kSoa ? "soa" : "scalar";
    for (const index_t k : {1, 2, 10, 64, 128}) {
      for (const index_t p : {2, 4, 16, 64}) {
        const Operands op = random_operands(k, p, seed);
        seed += 3;
        const CVec got = helper(op);
        const Rows rows = gemm_rows(op, true);
        const std::string what = kname + " k=" + std::to_string(k) +
                                 " p=" + std::to_string(p);
        expect_bits(got, rows.gemm_row, "gemm " + what);
        expect_bits(got, rows.packed_row, "packed " + what);
        expect_bits(got, rows.grouped_row, "grouped " + what);
      }
    }
  }
}

TEST(Row0Helper, FollowsThePackedPanelsPastOneKPanel) {
  // Best-FS reaches k > kGemmKc above 128 antennas, where the packed kernels
  // reduce each K panel separately.
  KernelGuard guard;
  std::uint64_t seed = 9300;
  for (const GemmKernel kernel : kernels()) {
    set_gemm_kernel_override(kernel);
    for (const index_t k : {129, 200, 300}) {
      const Operands op = random_operands(k, 16, seed);
      seed += 3;
      const CVec got = helper(op);
      const Rows rows = gemm_rows(op, false);
      const std::string what = std::string(kernel == GemmKernel::kSoa
                                               ? "soa"
                                               : "scalar") +
                               " k=" + std::to_string(k);
      expect_bits(got, rows.gemm_row, "gemm " + what);
      expect_bits(got, rows.packed_row, "packed " + what);
    }
  }
}

TEST(Row0Helper, NonFiniteREntries) {
  // With an inf or NaN in R the SoA kernels and the helper perform the same
  // float operations, so they agree bit for bit. The scalar kernels multiply
  // with std::complex, whose C Annex G recovery can turn a (NaN, NaN)
  // product into infinities: there the two agree on every finite element
  // and on which elements are not finite.
  KernelGuard guard;
  const real inf = std::numeric_limits<real>::infinity();
  const real nan = std::numeric_limits<real>::quiet_NaN();
  const std::pair<usize, cplx> poisons[] = {
      {0, cplx{inf, 0.5F}},   // the children's own term
      {3, cplx{nan, -1.0F}},  // a parent term
      {7, cplx{-inf, inf}}};
  std::uint64_t seed = 9500;
  for (const auto& [t, bad] : poisons) {
    for (const index_t p : {4, 16}) {
      Operands op = random_operands(10, p, seed);
      seed += 3;
      op.r_row[t] = bad;
      const CVec got = helper(op);
      for (const GemmKernel kernel : kernels()) {
        set_gemm_kernel_override(kernel);
        const Rows rows = gemm_rows(op, true);
        if (kernel == GemmKernel::kSoa) {
          expect_bits(got, rows.packed_row, "packed soa");
          expect_bits(got, rows.grouped_row, "grouped soa");
          continue;
        }
        for (const CMat* z :
             {&rows.gemm_row, &rows.packed_row, &rows.grouped_row}) {
          for (usize c = 0; c < got.size(); ++c) {
            const cplx want = (*z)(0, static_cast<index_t>(c));
            for (const auto& [g, w] :
                 {std::pair{got[c].real(), want.real()},
                  std::pair{got[c].imag(), want.imag()}}) {
              if (std::isfinite(w)) {
                EXPECT_TRUE(same_bits(g, w)) << "R entry " << t << " col " << c;
              } else {
                EXPECT_FALSE(std::isfinite(g))
                    << "R entry " << t << " col " << c;
              }
            }
          }
        }
      }
    }
  }
}


/// A parent's path as the BFS engine stores it (path[d] = symbol decided at
/// depth d, k-1 entries) and level_row0's `above` for the same parent.
struct TablePath {
  std::vector<std::uint8_t> path;
  CVec above;
};

TablePath random_path(const CVec& points, usize k, std::uint64_t seed) {
  Xoshiro256 u(seed);
  TablePath tp;
  for (usize d = 0; d + 1 < k; ++d) {
    tp.path.push_back(static_cast<std::uint8_t>(
        std::min(points.size() - 1,
                 static_cast<usize>(uniform01(u) *
                                    static_cast<double>(points.size())))));
  }
  // Column a+t of R holds the symbol decided at depth (k-1) - t.
  for (usize t = 1; t < k; ++t) tp.above.push_back(points[tp.path[k - 1 - t]]);
  return tp;
}

CVec from_table(const Row0Table& table, const TablePath& tp) {
  CVec z(table.p);
  level_row0_from_table(table, tp.path, z);
  return z;
}

void expect_same(const CVec& got, const CVec& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (usize c = 0; c < got.size(); ++c) {
    ASSERT_TRUE(same_bits(got[c].real(), want[c].real()) &&
                same_bits(got[c].imag(), want[c].imag()))
        << what << " col " << c << ": table " << got[c] << " vs " << want[c];
  }
}

TEST(Row0Helper, TableMatchesLevelRow0AndEveryKernelBitForBit) {
  // One table per level serves every parent: three paths per table.
  KernelGuard guard;
  std::uint64_t seed = 9900;
  Row0Table table;
  for (const GemmKernel kernel : kernels()) {
    set_gemm_kernel_override(kernel);
    const std::string kname = kernel == GemmKernel::kSoa ? "soa" : "scalar";
    for (const index_t k : {1, 2, 10, 64, 128}) {
      for (const index_t p : {2, 4, 16, 64}) {
        const CVec r_row = testing::random_cvec(k, seed);
        const CVec points = testing::random_cvec(p, seed + 1);
        build_row0_table(r_row, points, table);
        for (int parent = 0; parent < 3; ++parent) {
          const TablePath tp =
              random_path(points, static_cast<usize>(k), seed + 2 + parent);
          const Operands op{r_row, tp.above, points};
          const CVec got = from_table(table, tp);
          const std::string what = kname + " k=" + std::to_string(k) +
                                   " p=" + std::to_string(p) + " parent " +
                                   std::to_string(parent);
          expect_same(got, helper(op), "level_row0 " + what);
          const Rows rows = gemm_rows(op, true);
          expect_bits(got, rows.gemm_row, "gemm " + what);
          expect_bits(got, rows.packed_row, "packed " + what);
          expect_bits(got, rows.grouped_row, "grouped " + what);
        }
        seed += 5;
      }
    }
  }
}

TEST(Row0Helper, TableNonFiniteREntries) {
  // The same poisons as NonFiniteREntries: the table path performs
  // level_row0's float operations, so the two agree bit for bit, NaNs and
  // infinities included, and so do the SoA kernels.
  KernelGuard guard;
  const real inf = std::numeric_limits<real>::infinity();
  const real nan = std::numeric_limits<real>::quiet_NaN();
  const std::pair<usize, cplx> poisons[] = {
      {0, cplx{inf, 0.5F}},   // the children's own term
      {3, cplx{nan, -1.0F}},  // a parent term
      {7, cplx{-inf, inf}}};
  std::uint64_t seed = 9950;
  Row0Table table;
  for (const auto& [t, bad] : poisons) {
    for (const index_t p : {4, 16}) {
      CVec r_row = testing::random_cvec(10, seed);
      r_row[t] = bad;
      const CVec points = testing::random_cvec(p, seed + 1);
      build_row0_table(r_row, points, table);
      const TablePath tp = random_path(points, 10, seed + 2);
      seed += 3;
      const Operands op{r_row, tp.above, points};
      const CVec got = from_table(table, tp);
      const std::string what = "R entry " + std::to_string(t) +
                               " p=" + std::to_string(p);
      expect_same(got, helper(op), "level_row0 " + what);
      if (gemm_soa_available()) {
        set_gemm_kernel_override(GemmKernel::kSoa);
        const Rows rows = gemm_rows(op, true);
        expect_bits(got, rows.packed_row, "packed soa " + what);
        expect_bits(got, rows.grouped_row, "grouped soa " + what);
      }
    }
  }
}

// ---- int16 ------------------------------------------------------------------

struct QOperands {
  std::vector<std::int16_t> a_re;    // k
  std::vector<std::int16_t> a_im;    // k
  std::vector<std::int16_t> sym_ri;  // 2p, the alphabet's (re, im)
  std::vector<std::uint8_t> path;    // k-1, parent's symbol by depth
  std::vector<std::int16_t> path_ri; // 2(k-1), parent's (re, im) by t
};

std::int16_t draw(Xoshiro256& rng, int bound) {
  return static_cast<std::int16_t>(
      std::lround((2.0 * uniform01(rng) - 1.0) * static_cast<double>(bound)));
}

/// R entries span the full symmetric int16 range; the symbols are bounded so
/// that no int32 partial sum of the k-term row can wrap.
QOperands random_qoperands(index_t k, index_t p, std::uint64_t seed) {
  Xoshiro256 u(seed);
  const int s_bound = static_cast<int>(std::min<std::int64_t>(
      32767, (std::int64_t{1} << 31) / (2 * 32767 * std::int64_t{k}) - 1));
  QOperands op;
  for (index_t t = 0; t < k; ++t) {
    op.a_re.push_back(draw(u, 32767));
    op.a_im.push_back(draw(u, 32767));
  }
  op.a_re[0] = 32767;  // the extremes themselves
  op.a_im[0] = -32767;
  for (index_t i = 0; i < 2 * p; ++i) op.sym_ri.push_back(draw(u, s_bound));
  for (index_t d = 0; d + 1 < k; ++d) {
    op.path.push_back(static_cast<std::uint8_t>(
        std::min<double>(static_cast<double>(p - 1),
                         uniform01(u) * static_cast<double>(p))));
  }
  // Column a+t holds the symbol decided at depth (k-1) - t.
  for (index_t t = 1; t < k; ++t) {
    const usize s = op.path[static_cast<usize>(k - 1 - t)];
    op.path_ri.push_back(op.sym_ri[2 * s]);
    op.path_ri.push_back(op.sym_ri[2 * s + 1]);
  }
  return op;
}

/// The parent's share multiplied out term by term, in ascending t.
quant::QDot reference_dot(const QOperands& op) {
  quant::QDot d;
  for (usize t = 1; t < op.a_re.size(); ++t) {
    const std::int32_t ar = op.a_re[t];
    const std::int32_t ai = op.a_im[t];
    const std::int32_t br = op.path_ri[2 * (t - 1)];
    const std::int32_t bi = op.path_ri[2 * (t - 1) + 1];
    d.re += br * ar + bi * -ai;
    d.im += br * ai + bi * ar;
  }
  return d;
}

TEST(QuantRow0Helper, MatchesRowZeroOfTheInt16Kernels) {
  KernelGuard guard;
  std::uint64_t seed = 9700;
  for (const index_t k : {1, 2, 10, 64, 128}) {
    for (const index_t p : {2, 4, 16, 64}) {
      const QOperands op = random_qoperands(k, p, seed++);
      std::vector<std::int32_t> term_re(static_cast<usize>(p));
      std::vector<std::int32_t> term_im(static_cast<usize>(p));
      quant::qrow0_child_terms(op.a_re[0], op.a_im[0], op.sym_ri, term_re,
                               term_im);
      std::vector<quant::QDot> table(static_cast<usize>((k - 1) * p));
      quant::qrow0_parent_table(std::span(op.a_re).subspan(1),
                                std::span(op.a_im).subspan(1), op.sym_ri,
                                table);
      const quant::QDot dot =
          quant::qrow0_table_dot(table, static_cast<usize>(p), op.path);
      const quant::QDot want = reference_dot(op);
      ASSERT_EQ(dot.re, want.re) << "k=" << k << " p=" << p;
      ASSERT_EQ(dot.im, want.im) << "k=" << k << " p=" << p;

      // Staged operands: A = R's row, S = children on row 0, path below;
      // behind a decoy group as in a multi-frame level.
      quant::I16Mat a_re(1, 2 * k);
      quant::I16Mat a_im(1, 2 * k);
      quant::I16Mat s_ri(k, 2 * (3 + p));
      for (index_t t = 0; t < k; ++t) {
        a_re(0, t) = 7;
        a_im(0, t) = -3;
        a_re(0, k + t) = op.a_re[static_cast<usize>(t)];
        a_im(0, k + t) = op.a_im[static_cast<usize>(t)];
        for (index_t c = 0; c < 3 + p; ++c) {
          std::int16_t re = 1;
          std::int16_t im = 2;
          if (c >= 3 && t == 0) {
            re = op.sym_ri[2 * static_cast<usize>(c - 3)];
            im = op.sym_ri[2 * static_cast<usize>(c - 3) + 1];
          } else if (c >= 3) {
            re = op.path_ri[2 * static_cast<usize>(t - 1)];
            im = op.path_ri[2 * static_cast<usize>(t - 1) + 1];
          }
          s_ri(t, 2 * c) = re;
          s_ri(t, 2 * c + 1) = im;
        }
      }
      const GemmGroup groups[] = {{0, 0, 3}, {k, 3, p}};
      std::vector<GemmKernel> forced{GemmKernel::kScalar};
      if (quant::qgemm_int16_available()) forced.push_back(GemmKernel::kAuto);
      for (const GemmKernel kernel : forced) {
        set_gemm_kernel_override(kernel);
        quant::I32Mat z_re(1, 3 + p);
        quant::I32Mat z_im(1, 3 + p);
        quant::qgemm_level_grouped(a_re, a_im, k, s_ri, z_re, z_im, groups);
        for (index_t c = 0; c < p; ++c) {
          const usize ci = static_cast<usize>(c);
          ASSERT_EQ(term_re[ci] + dot.re, z_re(0, 3 + c))
              << "k=" << k << " p=" << p << " col " << c
              << (kernel == GemmKernel::kScalar ? " scalar" : " avx2");
          ASSERT_EQ(term_im[ci] + dot.im, z_im(0, 3 + c))
              << "k=" << k << " p=" << p << " col " << c
              << (kernel == GemmKernel::kScalar ? " scalar" : " avx2");
        }
      }
    }
  }
}

}  // namespace
}  // namespace sd
