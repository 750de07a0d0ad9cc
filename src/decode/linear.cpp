#include "decode/linear.hpp"

#include "common/error.hpp"
#include "common/timer.hpp"
#include "linalg/gemm.hpp"
#include "linalg/norms.hpp"
#include "linalg/solve.hpp"
#include "mimo/frame.hpp"

namespace sd {

std::string_view linear_kind_name(LinearKind kind) noexcept {
  switch (kind) {
    case LinearKind::kMrc: return "MRC";
    case LinearKind::kZf: return "ZF";
    case LinearKind::kMmse: return "MMSE";
  }
  return "?";
}

void LinearDetector::decode_frame(const CMat& h,
                                  const PreprocessedChannel* prep,
                                  std::span<const cplx> y, double sigma2,
                                  DecodeResult& out) {
  SD_CHECK(h.rows() == static_cast<index_t>(y.size()), "y length mismatch");
  const index_t m = h.cols();

  Timer pre_timer;
  CVec est(static_cast<usize>(m), cplx{0, 0});
  switch (kind_) {
    case LinearKind::kMrc: {
      // Per-stream matched filter: s_i = h_i^H y / ||h_i||^2. Ignores
      // inter-stream interference entirely (hence its poor BER for M > 1).
      out.stats.preprocess_seconds = pre_timer.elapsed_seconds();
      Timer search_timer;
      for (index_t j = 0; j < m; ++j) {
        cplx dot{0, 0};
        double colnorm = 0.0;
        for (index_t i = 0; i < h.rows(); ++i) {
          dot += std::conj(h(i, j)) * y[static_cast<usize>(i)];
          colnorm += norm2(h(i, j));
        }
        est[static_cast<usize>(j)] = dot / static_cast<real>(colnorm);
      }
      out.stats.search_seconds = search_timer.elapsed_seconds();
      break;
    }
    case LinearKind::kZf:
    case LinearKind::kMmse: {
      // A cached ZF equalizer was paid once at prep build time
      // (prep.build_seconds); the per-frame cost is then just W y.
      CMat built;
      if (prep == nullptr) {
        built = (kind_ == LinearKind::kZf)
                    ? zf_equalizer(h)
                    : mmse_equalizer(h, static_cast<real>(sigma2));
        out.stats.preprocess_seconds = pre_timer.elapsed_seconds();
      }
      const CMat& w = prep != nullptr ? prep->w : built;
      Timer search_timer;
      gemv(Op::kNone, cplx{1, 0}, w, y, cplx{0, 0}, est);
      out.stats.search_seconds = search_timer.elapsed_seconds();
      break;
    }
  }

  out.indices = hard_slice(*c_, est);
  materialize_symbols(*c_, out);
  out.metric = residual_metric(h, y, out.symbols);
}

}  // namespace sd
