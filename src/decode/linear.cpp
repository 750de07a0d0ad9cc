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
      // A cached ZF equalizer, or MMSE's Gram matrix, was paid once at prep
      // build time (prep.build_seconds); a cached ZF frame then costs just
      // W y.
      CMat built;
      if (kind_ == LinearKind::kMmse) {
        const auto s2 = static_cast<real>(sigma2);
        built = prep != nullptr ? mmse_equalizer_from_gram(h, prep->g, s2)
                                : mmse_equalizer(h, s2);
        out.stats.preprocess_seconds = pre_timer.elapsed_seconds();
      } else if (prep == nullptr) {
        built = zf_equalizer(h);
        out.stats.preprocess_seconds = pre_timer.elapsed_seconds();
      }
      const CMat& w =
          kind_ == LinearKind::kZf && prep != nullptr ? prep->w : built;
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
