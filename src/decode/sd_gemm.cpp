#include "decode/sd_gemm.hpp"

#include "common/timer.hpp"
#include "decode/best_fs.hpp"
#include "obs/trace.hpp"

namespace sd {

SdGemmDetector::SdGemmDetector(const Constellation& constellation,
                               SdOptions options)
    : c_(&constellation), opts_(options) {}

void SdGemmDetector::decode_frame(const CMat& h,
                                  const PreprocessedChannel* prep,
                                  std::span<const cplx> y, double sigma2,
                                  DecodeResult& out) {
  preprocess_frame(h, prep, y, opts_.sorted_qr, scratch_.prep, scratch_.pre);
  out.stats.preprocess_seconds = scratch_.pre.seconds;
  search(sigma2, out);
  materialize_symbols(*c_, out);
}

void SdGemmDetector::search(double sigma2, DecodeResult& result) {
  SD_TRACE_SPAN("decode.search");
  Timer timer;
  BestFsObserver cpu;
  best_fs_search(scratch_.pre, *c_, opts_, sigma2, scratch_, cpu, result);
  result.stats.search_seconds = timer.elapsed_seconds();
}

}  // namespace sd
