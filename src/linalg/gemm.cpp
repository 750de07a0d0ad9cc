#include "linalg/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/error.hpp"
#include "linalg/gemm_detail.hpp"
#include "obs/counters.hpp"

namespace sd {

namespace {

void check_gemm_shapes(Op op_a, const CMat& a, const CMat& b, const CMat& c) {
  const auto [am, ak] = detail::op_shape(op_a, a);
  SD_CHECK(ak == b.rows(), "GEMM inner dimensions must agree");
  SD_CHECK(am == c.rows() && b.cols() == c.cols(),
           "GEMM output shape must be m x n");
}

/// Element of op(A) at logical position (r, c).
inline cplx op_at(Op op, const CMat& a, index_t r, index_t c) noexcept {
  return detail::gemm_op_at(op, a, r, c);
}

/// True iff any value is NaN. Branch-free, so it vectorizes.
bool any_nan(std::span<const real> v) noexcept {
  bool nan = false;
  for (const real x : v) nan |= x != x;
  return nan;
}

GemmKernel parse_kernel_env() noexcept {
  const char* v = std::getenv("SD_GEMM_KERNEL");
  if (v == nullptr) return GemmKernel::kAuto;
  if (std::strcmp(v, "scalar") == 0 || std::strcmp(v, "packed") == 0) {
    return GemmKernel::kScalar;
  }
  if (std::strcmp(v, "soa") == 0) return GemmKernel::kSoa;
  return GemmKernel::kAuto;  // unknown values mean "no override"
}

std::atomic<GemmKernel>& kernel_override_slot() noexcept {
  static std::atomic<GemmKernel> slot{parse_kernel_env()};
  return slot;
}

}  // namespace

bool gemm_soa_available() noexcept {
  static const bool ok =
      detail::gemm_soa_compiled() && detail::gemm_soa_runtime_ok();
  return ok;
}

void set_gemm_kernel_override(GemmKernel kernel) noexcept {
  kernel_override_slot().store(kernel, std::memory_order_relaxed);
}

GemmKernel gemm_kernel_override() noexcept {
  return kernel_override_slot().load(std::memory_order_relaxed);
}

GemmKernel active_gemm_kernel() noexcept {
  switch (gemm_kernel_override()) {
    case GemmKernel::kScalar:
      return GemmKernel::kScalar;
    case GemmKernel::kSoa:
    case GemmKernel::kAuto:
      break;
  }
  return gemm_soa_available() ? GemmKernel::kSoa : GemmKernel::kScalar;
}

GemmWorkspace& GemmWorkspace::thread_local_instance() {
  thread_local GemmWorkspace ws;
  return ws;
}

void GemmWorkspace::export_counters(obs::CounterRegistry& registry,
                                    std::string_view prefix) const {
  const std::string p(prefix);
  registry.set(p + ".acquires", stats_.acquires);
  registry.set(p + ".grow_events", stats_.grow_events);
  registry.set(p + ".bytes_reserved", stats_.bytes_reserved);
}

void gemm_naive(Op op_a, cplx alpha, const CMat& a, const CMat& b, cplx beta,
                CMat& c) {
  check_gemm_shapes(op_a, a, b, c);
  const auto [m, k] = detail::op_shape(op_a, a);
  const index_t n = b.cols();
  // beta == 0 must overwrite C: `alpha*acc + beta*c` would propagate stale
  // NaN/Inf from uninitialized C contents (the classic BLAS beta-zero bug).
  const bool overwrite = beta == cplx{0, 0};
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      cplx acc{0, 0};
      for (index_t p = 0; p < k; ++p) {
        acc += op_at(op_a, a, i, p) * b(p, j);
      }
      c(i, j) = overwrite ? alpha * acc : alpha * acc + beta * c(i, j);
    }
  }
}

void gemm(Op op_a, cplx alpha, const CMat& a, const CMat& b, cplx beta,
          CMat& c) {
  gemm(op_a, alpha, a, b, beta, c, GemmWorkspace::thread_local_instance());
}

void gemm(Op op_a, cplx alpha, const CMat& a, const CMat& b, cplx beta,
          CMat& c, GemmWorkspace& ws) {
  check_gemm_shapes(op_a, a, b, c);
  const auto [m, k] = detail::op_shape(op_a, a);
  const index_t n = b.cols();

  // Small-shape fast path: the sphere decoder issues millions of tiny
  // (1 x P x k) sibling-batch products, where the packed path's buffer
  // management dominates. The naive kernel accumulates in the same order as
  // the packed kernel ONLY while the whole reduction fits one K-panel
  // (k <= kGemmKc); beyond that the packed kernel forms per-panel partial
  // sums and the two orders — hence the rounded results — diverge. The
  // volume gate alone admitted shapes like 1 x 1 x 4096, silently breaking
  // the bitwise-identity contract the decoders rely on, so the k gate is
  // part of the dispatch, not just the comment.
  if (static_cast<std::uint64_t>(m) * n * k <= 4096 && k <= kGemmKc) {
    gemm_naive(op_a, alpha, a, b, beta, c);
    return;
  }
  gemm_packed(op_a, alpha, a, b, beta, c, ws);
}

void gemm_packed(Op op_a, cplx alpha, const CMat& a, const CMat& b, cplx beta,
                 CMat& c) {
  gemm_packed(op_a, alpha, a, b, beta, c,
              GemmWorkspace::thread_local_instance());
}

void gemm_packed(Op op_a, cplx alpha, const CMat& a, const CMat& b, cplx beta,
                 CMat& c, GemmWorkspace& ws) {
  if (active_gemm_kernel() == GemmKernel::kSoa) {
    check_gemm_shapes(op_a, a, b, c);
    detail::gemm_packed_soa_impl(op_a, alpha, a, b, beta, c, ws);
    return;
  }
  gemm_packed_scalar(op_a, alpha, a, b, beta, c, ws);
}

void gemm_packed_soa(Op op_a, cplx alpha, const CMat& a, const CMat& b,
                     cplx beta, CMat& c) {
  gemm_packed_soa(op_a, alpha, a, b, beta, c,
                  GemmWorkspace::thread_local_instance());
}

void gemm_packed_soa(Op op_a, cplx alpha, const CMat& a, const CMat& b,
                     cplx beta, CMat& c, GemmWorkspace& ws) {
  SD_CHECK(gemm_soa_available(),
           "SoA GEMM kernel not available on this build/CPU");
  check_gemm_shapes(op_a, a, b, c);
  detail::gemm_packed_soa_impl(op_a, alpha, a, b, beta, c, ws);
}

void gemm_packed_scalar(Op op_a, cplx alpha, const CMat& a, const CMat& b,
                        cplx beta, CMat& c) {
  gemm_packed_scalar(op_a, alpha, a, b, beta, c,
                     GemmWorkspace::thread_local_instance());
}

void gemm_packed_scalar(Op op_a, cplx alpha, const CMat& a, const CMat& b,
                        cplx beta, CMat& c, GemmWorkspace& ws) {
  check_gemm_shapes(op_a, a, b, c);
  const auto [m, k] = detail::op_shape(op_a, a);
  const index_t n = b.cols();

  // Block sizes chosen so one (MC x KC) A-panel plus a (KC x NC) B-panel fit
  // comfortably in L1/L2 for 8-byte complex<float>.
  constexpr index_t kMC = kGemmMc;
  constexpr index_t kKC = kGemmKc;
  constexpr index_t kNC = kGemmNc;

  // Pack op(A) block rows contiguously once per (i-block, p-block) so the
  // micro-kernel streams both operands with unit stride; this is the CPU
  // analogue of the FPGA design's prefetch/double-buffer unit. The panel
  // buffers come from the workspace, so a warmed call allocates nothing.
  const auto a_pack = ws.a_pack(static_cast<usize>(kMC) * kKC);
  const auto b_pack = ws.b_pack(static_cast<usize>(kKC) * kNC);

  // beta pre-step (overwrite / keep / scale) so the kernel accumulates +=.
  detail::gemm_apply_beta(beta, c);

  for (index_t pc = 0; pc < k; pc += kKC) {
    const index_t kb = std::min(kKC, k - pc);
    for (index_t jc = 0; jc < n; jc += kNC) {
      const index_t nb = std::min(kNC, n - jc);
      // Pack B block (kb x nb), row-major.
      for (index_t p = 0; p < kb; ++p) {
        const cplx* src = &b(pc + p, jc);
        cplx* dst = &b_pack[static_cast<usize>(p) * nb];
        for (index_t j = 0; j < nb; ++j) dst[j] = src[j];
      }
      for (index_t ic = 0; ic < m; ic += kMC) {
        const index_t mb = std::min(kMC, m - ic);
        // Pack op(A) block (mb x kb), row-major.
        for (index_t i = 0; i < mb; ++i) {
          cplx* dst = &a_pack[static_cast<usize>(i) * kb];
          for (index_t p = 0; p < kb; ++p) {
            dst[p] = op_at(op_a, a, ic + i, pc + p);
          }
        }
        // Micro-kernel: 2x2 register tile over the packed panels.
        index_t i = 0;
        for (; i + 1 < mb; i += 2) {
          const cplx* a0 = &a_pack[static_cast<usize>(i) * kb];
          const cplx* a1 = &a_pack[static_cast<usize>(i + 1) * kb];
          index_t j = 0;
          for (; j + 1 < nb; j += 2) {
            cplx c00{0, 0}, c01{0, 0}, c10{0, 0}, c11{0, 0};
            const cplx* bp = &b_pack[j];
            for (index_t p = 0; p < kb; ++p, bp += nb) {
              const cplx b0 = bp[0];
              const cplx b1 = bp[1];
              c00 += a0[p] * b0;
              c01 += a0[p] * b1;
              c10 += a1[p] * b0;
              c11 += a1[p] * b1;
            }
            c(ic + i, jc + j) += alpha * c00;
            c(ic + i, jc + j + 1) += alpha * c01;
            c(ic + i + 1, jc + j) += alpha * c10;
            c(ic + i + 1, jc + j + 1) += alpha * c11;
          }
          for (; j < nb; ++j) {
            cplx c0{0, 0}, c1{0, 0};
            const cplx* bp = &b_pack[j];
            for (index_t p = 0; p < kb; ++p, bp += nb) {
              c0 += a0[p] * *bp;
              c1 += a1[p] * *bp;
            }
            c(ic + i, jc + j) += alpha * c0;
            c(ic + i + 1, jc + j) += alpha * c1;
          }
        }
        for (; i < mb; ++i) {
          const cplx* a0 = &a_pack[static_cast<usize>(i) * kb];
          for (index_t j = 0; j < nb; ++j) {
            cplx acc{0, 0};
            const cplx* bp = &b_pack[j];
            for (index_t p = 0; p < kb; ++p, bp += nb) {
              acc += a0[p] * *bp;
            }
            c(ic + i, jc + j) += alpha * acc;
          }
        }
      }
    }
  }
}

namespace {

void check_grouped_shapes(const CMat& a_stack, index_t k, const CMat& b,
                          const CMat& c, std::span<const GemmGroup> groups) {
  SD_CHECK(k >= 0 && k <= kGemmKc,
           "grouped GEMM requires k <= kGemmKc (single-panel reduction)");
  SD_CHECK(b.rows() == k, "grouped GEMM inner dimensions must agree");
  SD_CHECK(a_stack.rows() == c.rows() && b.cols() == c.cols(),
           "grouped GEMM output shape must match operands");
  for (const GemmGroup& g : groups) {
    SD_CHECK(g.cols >= 0 && g.col >= 0 && g.col + g.cols <= c.cols(),
             "grouped GEMM group exceeds the B/C column range");
    SD_CHECK(g.a_col >= 0 && g.a_col + k <= a_stack.cols(),
             "grouped GEMM group exceeds the stacked-A column range");
  }
}

// Scalar grouped kernel: per-element ascending-p reduction, the exact order
// of gemm_naive (and of the packed kernels within one K panel).
void gemm_grouped_scalar(cplx alpha, const CMat& a_stack, index_t k,
                         const CMat& b, cplx beta, CMat& c,
                         std::span<const GemmGroup> groups) {
  const index_t zr = c.rows();
  const bool overwrite = beta == cplx{0, 0};
  for (const GemmGroup& g : groups) {
    for (index_t i = 0; i < zr; ++i) {
      for (index_t j = 0; j < g.cols; ++j) {
        cplx acc{0, 0};
        for (index_t p = 0; p < k; ++p) {
          acc += a_stack(i, g.a_col + p) * b(p, g.col + j);
        }
        cplx& dst = c(i, g.col + j);
        dst = overwrite ? alpha * acc : alpha * acc + beta * dst;
      }
    }
  }
}

}  // namespace

void gemm_grouped(cplx alpha, const CMat& a_stack, index_t k, const CMat& b,
                  cplx beta, CMat& c, std::span<const GemmGroup> groups) {
  gemm_grouped(alpha, a_stack, k, b, beta, c, groups,
               GemmWorkspace::thread_local_instance());
}

void gemm_grouped(cplx alpha, const CMat& a_stack, index_t k, const CMat& b,
                  cplx beta, CMat& c, std::span<const GemmGroup> groups,
                  GemmWorkspace& ws) {
  check_grouped_shapes(a_stack, k, b, c, groups);
  if (active_gemm_kernel() == GemmKernel::kSoa) {
    detail::gemm_grouped_soa_impl(alpha, a_stack, k, b, beta, c, groups, ws);
    return;
  }
  gemm_grouped_scalar(alpha, a_stack, k, b, beta, c, groups);
}

void gemv(Op op_a, cplx alpha, const CMat& a, std::span<const cplx> x,
          cplx beta, std::span<cplx> y) {
  gemv(op_a, alpha, a, x, beta, y, GemmWorkspace::thread_local_instance());
}

void gemv(Op op_a, cplx alpha, const CMat& a, std::span<const cplx> x,
          cplx beta, std::span<cplx> y, GemmWorkspace& ws) {
  const auto [m, k] = detail::op_shape(op_a, a);
  SD_CHECK(static_cast<index_t>(x.size()) == k, "GEMV x length must equal k");
  SD_CHECK(static_cast<index_t>(y.size()) == m, "GEMV y length must equal m");
  const bool overwrite = beta == cplx{0, 0};
  if (op_a == Op::kNone) {
    for (index_t i = 0; i < m; ++i) {
      cplx acc{0, 0};
      const auto row = a.row(i);
      for (index_t p = 0; p < k; ++p) acc += row[p] * x[p];
      y[i] = overwrite ? alpha * acc : alpha * acc + beta * y[i];
    }
  } else {
    // y = alpha * A^H x: accumulate row by row so A streams in storage
    // order; every output still reduces over the rows in ascending order.
    const auto planes = ws.acc_planes(static_cast<usize>(m));
    real* const acc_re = planes.data();
    real* const acc_im = planes.data() + m;
    std::fill(planes.begin(), planes.end(), real{0});
    for (index_t r = 0; r < a.rows(); ++r) {
      const real* row = reinterpret_cast<const real*>(a.row(r).data());
      const real xr = x[static_cast<usize>(r)].real();
      const real xi = x[static_cast<usize>(r)].imag();
      for (index_t i = 0; i < m; ++i) {
        // acc[i] += conj(row[i]) * x[r], in the float operations of
        // std::complex's multiply and add.
        const real ur = row[2 * i];
        const real ui = -row[2 * i + 1];
        acc_re[i] += ur * xr - ui * xi;
        acc_im[i] += ur * xi + ui * xr;
      }
    }
    if (!any_nan(planes)) {
      for (index_t i = 0; i < m; ++i) {
        const cplx acc(acc_re[i], acc_im[i]);
        y[i] = overwrite ? alpha * acc : alpha * acc + beta * y[i];
      }
      return;
    }
    // A NaN sum: some product may have taken std::complex's NaN-recovery
    // path, which the real form skips, so the whole product is redone the
    // std::complex way.
    const auto acc = ws.gemv_acc(static_cast<usize>(m));
    std::fill(acc.begin(), acc.end(), cplx{0, 0});
    for (index_t r = 0; r < a.rows(); ++r) {
      const auto row = a.row(r);
      const cplx xr = x[r];
      for (index_t i = 0; i < m; ++i) {
        acc[i] += std::conj(row[i]) * xr;
      }
    }
    for (index_t i = 0; i < m; ++i) {
      y[i] = overwrite ? alpha * acc[i] : alpha * acc[i] + beta * y[i];
    }
  }
}

void gram_into(const CMat& h, CMat& g) {
  gram_into(h, g, GemmWorkspace::thread_local_instance());
}

void gram_into(const CMat& h, CMat& g, GemmWorkspace& ws) {
  const index_t m = h.cols();
  const usize mm = static_cast<usize>(m) * static_cast<usize>(m);
  g.reshape(m, m);
  // Real plane: the m*m real sums, then row p's m real parts; imag plane
  // likewise.
  const auto planes = ws.acc_planes(mm + static_cast<usize>(m));
  real* const acc_re = planes.data();
  real* const row_re = acc_re + mm;
  real* const acc_im = row_re + m;
  real* const row_im = acc_im + mm;
  std::fill(acc_re, acc_re + mm, real{0});
  std::fill(acc_im, acc_im + mm, real{0});
  for (index_t p = 0; p < h.rows(); ++p) {
    const auto hp = h.row(p);
    for (index_t j = 0; j < m; ++j) {
      row_re[j] = hp[static_cast<usize>(j)].real();
      row_im[j] = hp[static_cast<usize>(j)].imag();
    }
    for (index_t i = 0; i < m; ++i) {
      // G(i, j) += conj(H(p, i)) * H(p, j), as gemm_naive's std::complex
      // multiply and add compute it.
      const real ur = row_re[i];
      const real ui = -row_im[i];
      real* const gre = acc_re + static_cast<usize>(i) * m;
      real* const gim = acc_im + static_cast<usize>(i) * m;
      for (index_t j = 0; j < m; ++j) {
        gre[j] += ur * row_re[j] - ui * row_im[j];
        gim[j] += ur * row_im[j] + ui * row_re[j];
      }
    }
  }
  if (any_nan({acc_re, mm}) || any_nan({acc_im, mm})) {
    gemm_naive(Op::kConjTrans, cplx{1, 0}, h, h, cplx{0, 0}, g);
    return;
  }
  const cplx alpha{1, 0};
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < m; ++j) {
      const usize e = static_cast<usize>(i) * m + static_cast<usize>(j);
      g(i, j) = alpha * cplx(acc_re[e], acc_im[e]);
    }
  }
}

}  // namespace sd
