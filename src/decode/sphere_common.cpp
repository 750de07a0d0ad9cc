#include "decode/sphere_common.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "linalg/gemm.hpp"
#include "linalg/ordering.hpp"
#include "obs/trace.hpp"
#include "quant/quant_gemm.hpp"

namespace sd {

void charge_level_gemm(DecodeStats& stats, index_t cols, index_t k,
                       LevelOperands operands, std::uint64_t times) {
  stats.gemm_calls += times;
  stats.flops += times * gemm_flops(k, cols, k);
  if (operands == LevelOperands::kInt16) {
    stats.bytes_touched += times * quant::qgemm_bytes(k, cols, k);
    return;
  }
  const auto k64 = static_cast<std::uint64_t>(k);
  stats.bytes_touched +=
      times * sizeof(cplx) *
      (k64 * k64 + 2 * k64 * static_cast<std::uint64_t>(cols));
}

namespace {

// One complex multiply, split exactly as the SoA kernels split it.
real mul_re(cplx x, cplx y) noexcept {
  return x.real() * y.real() - x.imag() * y.imag();
}
real mul_im(cplx x, cplx y) noexcept {
  return x.real() * y.imag() + x.imag() * y.real();
}

// Children are accumulated four at a time, one accumulator pair each.
constexpr usize kRow0Block = 4;

}  // namespace

void build_row0_table(std::span<const cplx> r_row,
                      std::span<const cplx> points, Row0Table& table) {
  const usize k = r_row.size();
  const usize p = points.size();
  SD_CHECK(k >= 1, "build_row0_table needs R's diagonal entry");
  table.k = k;
  table.p = p;
  // Padded children are never stored; their starts are left at 0.
  const usize padded = (p + kRow0Block - 1) / kRow0Block * kRow0Block;
  table.start_re.assign(padded, real{0});
  table.start_im.assign(padded, real{0});
  const real r0_re = r_row[0].real();
  const real r0_im = r_row[0].imag();
  for (usize i = 0; i < p; ++i) {
    const real c_re = points[i].real();
    const real c_im = points[i].imag();
    table.start_re[i] = real{0} + (r0_re * c_re - r0_im * c_im);
    table.start_im[i] = real{0} + (r0_re * c_im + r0_im * c_re);
  }
  table.term.resize((k - 1) * p);
  for (usize t = 1; t < k; ++t) {
    for (usize s = 0; s < p; ++s) {
      table.term[(t - 1) * p + s] =
          cplx{mul_re(r_row[t], points[s]), mul_im(r_row[t], points[s])};
    }
  }
}

void level_row0_from_table(const Row0Table& table,
                           std::span<const std::uint8_t> path,
                           std::span<cplx> z) {
  const usize k = table.k;
  const usize p = table.p;
  SD_CHECK(path.size() + 1 == k && z.size() == p,
           "level_row0_from_table needs the parent's k-1 symbols, p outputs");
  const usize panel = static_cast<usize>(kGemmKc);
  const usize first_panel = std::min(k, panel);
  // The parent's terms of the first K panel, gathered once.
  real prod_re[kGemmKc];
  real prod_im[kGemmKc];
  for (usize t = 1; t < first_panel; ++t) {
    const cplx v = table.term[(t - 1) * p + path[k - 1 - t]];
    prod_re[t] = v.real();
    prod_im[t] = v.imag();
  }
  // Children in blocks of kRow0Block from the tabled starts; a short last
  // block runs on the zero padding and never stores those lanes.
  for (usize i0 = 0; i0 < p; i0 += kRow0Block) {
    const usize nb = std::min(kRow0Block, p - i0);
    real acc_re[kRow0Block];
    real acc_im[kRow0Block];
    for (usize j = 0; j < kRow0Block; ++j) {
      acc_re[j] = table.start_re[i0 + j];
      acc_im[j] = table.start_im[i0 + j];
    }
    for (usize t = 1; t < first_panel; ++t) {
      for (usize j = 0; j < kRow0Block; ++j) {
        acc_re[j] += prod_re[t];
        acc_im[j] += prod_im[t];
      }
    }
    // Epilogue c += alpha * acc onto the beta = 0 cleared output.
    real out_re[kRow0Block];
    real out_im[kRow0Block];
    for (usize j = 0; j < kRow0Block; ++j) {
      out_re[j] = real{0} + (real{1} * acc_re[j] - real{0} * acc_im[j]);
      out_im[j] = real{0} + (real{1} * acc_im[j] + real{0} * acc_re[j]);
    }
    for (usize j = 0; j < nb; ++j) z[i0 + j] = cplx{out_re[j], out_im[j]};
  }
  // Deeper K panels reduce from 0 on their own and add their epilogue onto
  // the output. They hold only the parent's terms, so one partial sum per
  // panel serves every child.
  for (usize pc = panel; pc < k; pc += panel) {
    real sum_re = 0;
    real sum_im = 0;
    for (usize t = pc; t < std::min(k, pc + panel); ++t) {
      const cplx v = table.term[(t - 1) * p + path[k - 1 - t]];
      sum_re += v.real();
      sum_im += v.imag();
    }
    const real out_re = real{1} * sum_re - real{0} * sum_im;
    const real out_im = real{1} * sum_im + real{0} * sum_re;
    for (cplx& v : z) v = cplx{v.real() + out_re, v.imag() + out_im};
  }
}

Preprocessed preprocess(const CMat& h, std::span<const cplx> y,
                        bool sorted_qr) {
  Preprocessed pre;
  PreprocessScratch scratch;
  preprocess_into(h, y, sorted_qr, scratch, pre);
  return pre;
}

void preprocess_into(const CMat& h, std::span<const cplx> y, bool sorted_qr,
                     PreprocessScratch& scratch, Preprocessed& pre) {
  SD_TRACE_SPAN("decode.preprocess.qr");
  SD_CHECK(h.rows() == static_cast<index_t>(y.size()), "y length mismatch");
  Timer timer;
  if (sorted_qr && sqrd_applicable(h)) {
    qr_sorted_into(h, scratch.q, pre.r, pre.perm, scratch.col_norm_sq);
    // ybar = Q^H y with the explicit thin Q from the sorted factorization.
    pre.ybar.assign(static_cast<usize>(h.cols()), cplx{0, 0});
    gemv(Op::kConjTrans, cplx{1, 0}, scratch.q, y, cplx{0, 0}, pre.ybar);
  } else {
    scratch.qr.factor(h);
    pre.r = scratch.qr.r();  // copy-assign; reuses pre's storage
    scratch.qr.apply_qh_into(y, pre.ybar, scratch.work);
    pre.perm.clear();
  }
  pre.seconds = timer.elapsed_seconds();
}

void preprocess_with_channel(const PreprocessedChannel& prep,
                             std::span<const cplx> y,
                             PreprocessScratch& scratch, Preprocessed& pre) {
  SD_TRACE_SPAN("decode.preprocess.cached");
  const CMat& h = prep.channel.matrix();
  SD_CHECK(h.rows() == static_cast<index_t>(y.size()), "y length mismatch");
  Timer timer;
  switch (prep.kind) {
    // Quant kinds carry the identical float factorization alongside the
    // int16 planes, so the per-frame ybar path is byte-for-byte shared.
    case PrepKind::kQrSorted:
    case PrepKind::kQrSortedQuant:
      if (!prep.perm.empty()) {
        pre.r = prep.r;  // copy-assign; reuses pre's storage
        pre.perm.assign(prep.perm.begin(), prep.perm.end());
        pre.ybar.assign(static_cast<usize>(h.cols()), cplx{0, 0});
        gemv(Op::kConjTrans, cplx{1, 0}, prep.q, y, cplx{0, 0}, pre.ybar);
        break;
      }
      // A non-finite channel was factored plain (sqrd_applicable).
      [[fallthrough]];
    case PrepKind::kQrPlain:
    case PrepKind::kQrPlainQuant:
      pre.r = prep.qr.r();
      prep.qr.apply_qh_into(y, pre.ybar, scratch.work);
      pre.perm.clear();
      break;
    default:
      SD_CHECK(false, "channel prep kind has no triangular system");
  }
  pre.seconds = timer.elapsed_seconds();
}

void preprocess_frame(const CMat& h, const PreprocessedChannel* prep,
                      std::span<const cplx> y, bool sorted_qr,
                      PreprocessScratch& scratch, Preprocessed& pre) {
  if (prep != nullptr) {
    preprocess_with_channel(*prep, y, scratch, pre);
  } else {
    preprocess_into(h, y, sorted_qr, scratch, pre);
  }
}

void to_antenna_order_into(const Preprocessed& pre,
                           const std::vector<index_t>& layered,
                           std::vector<index_t>& out) {
  if (pre.perm.empty()) {
    out.assign(layered.begin(), layered.end());
    return;
  }
  SD_CHECK(pre.perm.size() == layered.size(), "permutation length mismatch");
  out.resize(layered.size());
  for (usize k = 0; k < layered.size(); ++k) {
    out[static_cast<usize>(pre.perm[k])] = layered[k];
  }
}

void path_to_antenna_order(const Preprocessed& pre,
                           std::span<const index_t> path,
                           std::vector<index_t>& layered,
                           std::vector<index_t>& out) {
  const usize m = path.size();
  layered.resize(m);
  for (usize d = 0; d < m; ++d) layered[m - 1 - d] = path[d];
  to_antenna_order_into(pre, layered, out);
}

double babai_point(const Preprocessed& pre, const Constellation& c,
                   std::span<index_t> path) {
  const index_t m = pre.r.rows();
  SD_CHECK(path.size() == static_cast<usize>(m), "Babai path length mismatch");
  double pd = 0.0;
  for (index_t depth = 0; depth < m; ++depth) {
    const index_t a = m - 1 - depth;
    cplx acc{0, 0};
    for (index_t t = 1; t <= depth; ++t) {
      acc += pre.r(a, a + t) * c.point(path[static_cast<usize>(depth - t)]);
    }
    const cplx b = pre.ybar[static_cast<usize>(a)] - acc;
    const index_t sym = c.slice(b / pre.r(a, a));
    path[static_cast<usize>(depth)] = sym;
    pd += norm2(b - pre.r(a, a) * c.point(sym));
  }
  return pd;
}

bool finite_triangle(const CMat& r) noexcept {
  for (index_t a = 0; a < r.rows(); ++a) {
    for (const cplx v : r.row(a).subspan(static_cast<usize>(a))) {
      if (!std::isfinite(v.real()) || !std::isfinite(v.imag())) return false;
    }
  }
  return true;
}

double initial_radius_sq(const SdOptions& opts, double sigma2, index_t num_rx) {
  switch (opts.radius_policy) {
    case RadiusPolicy::kInfinite:
      return std::numeric_limits<double>::infinity();
    case RadiusPolicy::kNoiseScaled:
    case RadiusPolicy::kBabaiCapped:
      SD_CHECK(opts.radius_alpha > 0.0, "radius_alpha must be positive");
      return opts.radius_alpha * sigma2 * static_cast<double>(num_rx);
  }
  return std::numeric_limits<double>::infinity();
}

double next_radius_sq(double radius_sq, int attempt, DecodeStats& stats) {
  constexpr int kMaxDoublings = 64;
  if (attempt < kMaxDoublings && radius_sq > 0.0 && std::isfinite(radius_sq)) {
    return radius_sq * 2.0;
  }
  ++stats.radius_fallbacks;
  return std::numeric_limits<double>::infinity();
}

}  // namespace sd
