#include "decode/lr_sic.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "linalg/gemm.hpp"
#include "linalg/lll.hpp"
#include "linalg/qr.hpp"

namespace sd {

LrSicDetector::LrSicDetector(const Constellation& constellation,
                             double lll_delta)
    : c_(&constellation), delta_(lll_delta) {
  SD_CHECK(constellation.modulation() != Modulation::kBpsk,
           "LR-SIC requires a square QAM constellation");
  levels_ = static_cast<int>(std::lround(
      std::sqrt(static_cast<double>(constellation.order()))));
  SD_ASSERT(levels_ * levels_ == constellation.order());
  // point = axis_scale * (2u - (L-1)(1+j)) with u's components in [0, L-1];
  // recover the scale from the first two points' grid spacing.
  axis_scale_ = (c_->point(1).imag() - c_->point(0).imag()) / real{2};
  SD_ASSERT(axis_scale_ > real{0});
}

void LrSicDetector::decode_frame(const CMat& h,
                                 const PreprocessedChannel* /*prep*/,
                                 std::span<const cplx> y, double /*sigma2*/,
                                 DecodeResult& result) {
  const index_t m = h.cols();
  SD_CHECK(h.rows() == static_cast<index_t>(y.size()), "y length mismatch");
  Timer pre_timer;

  // 1. Shift/scale so the transmit alphabet becomes u in {0..L-1}^2 Gaussian
  //    integers: y' = (y - H * offset) / (2 * axis_scale) = H u + n'.
  const cplx offset{-axis_scale_ * static_cast<real>(levels_ - 1),
                    -axis_scale_ * static_cast<real>(levels_ - 1)};
  CVec y_shift(y.begin(), y.end());
  CVec ones(static_cast<usize>(m), offset);
  gemv(Op::kNone, cplx{-1, 0}, h, ones, cplx{1, 0}, y_shift);
  const real inv_step = real{1} / (real{2} * axis_scale_);
  for (cplx& v : y_shift) v *= inv_step;

  // 2. Reduce the basis and detect v (where u = T v) by SIC with plain
  //    rounding in the reduced, better-conditioned basis.
  const LllResult lll = lll_reduce(h, delta_);
  result.stats.preprocess_seconds = pre_timer.elapsed_seconds();
  Timer search_timer;

  const QrFactorization qr(lll.reduced);
  const CVec ybar = qr.apply_qh(y_shift);
  const CMat& r = qr.r();
  CVec v(static_cast<usize>(m), cplx{0, 0});
  for (index_t i = m - 1; i >= 0; --i) {
    cplx acc = ybar[static_cast<usize>(i)];
    for (index_t j = i + 1; j < m; ++j) {
      acc -= r(i, j) * v[static_cast<usize>(j)];
    }
    v[static_cast<usize>(i)] = round_gaussian(acc / r(i, i));
    ++result.stats.nodes_expanded;  // one SIC decision per layer
  }

  // 3. Map back u = T v, clamp onto the constellation grid, re-symbolize.
  CVec u(static_cast<usize>(m), cplx{0, 0});
  gemv(Op::kNone, cplx{1, 0}, lll.t, v, cplx{0, 0}, u);
  result.indices.resize(static_cast<usize>(m));
  for (index_t i = 0; i < m; ++i) {
    auto clamp_axis = [&](real x) {
      const auto k = static_cast<int>(std::lround(x));
      return std::clamp(k, 0, levels_ - 1);
    };
    const int ki = clamp_axis(u[static_cast<usize>(i)].real());
    const int kq = clamp_axis(u[static_cast<usize>(i)].imag());
    const cplx point{
        axis_scale_ * static_cast<real>(2 * ki - (levels_ - 1)),
        axis_scale_ * static_cast<real>(2 * kq - (levels_ - 1))};
    result.indices[static_cast<usize>(i)] = c_->slice(point);
  }
  materialize_symbols(*c_, result);
  result.metric = residual_metric(h, y, result.symbols);
  result.stats.search_seconds = search_timer.elapsed_seconds();
}

}  // namespace sd
