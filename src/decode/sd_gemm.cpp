#include "decode/sd_gemm.hpp"

#include "common/timer.hpp"
#include "decode/best_fs.hpp"
#include "obs/trace.hpp"

namespace sd {

SdGemmDetector::SdGemmDetector(const Constellation& constellation,
                               SdOptions options)
    : c_(&constellation), opts_(options) {}

DecodeResult SdGemmDetector::decode(const CMat& h, std::span<const cplx> y,
                                    double sigma2) {
  DecodeResult result;
  decode_into(h, y, sigma2, result);
  return result;
}

void SdGemmDetector::decode_into(const CMat& h, std::span<const cplx> y,
                                 double sigma2, DecodeResult& out) {
  SD_TRACE_SPAN("decode");
  out.reset();
  preprocess_into(h, y, opts_.sorted_qr, scratch_.prep, scratch_.pre);
  out.stats.preprocess_seconds = scratch_.pre.seconds;
  search(sigma2, out);
  materialize_symbols(*c_, out);
}

void SdGemmDetector::decode_with(const PreprocessedChannel& prep,
                                 std::span<const cplx> y, double sigma2,
                                 DecodeResult& out) {
  if (prep.kind != prep_kind()) {
    Detector::decode_with(prep, y, sigma2, out);
    return;
  }
  SD_TRACE_SPAN("decode");
  out.reset();
  preprocess_with_channel(prep, y, scratch_.prep, scratch_.pre);
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
