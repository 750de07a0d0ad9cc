#include "fpga/fpga_detector.hpp"

#include "common/error.hpp"

namespace sd {

FpgaDetector::FpgaDetector(const Constellation& constellation,
                           FpgaConfig config, SdOptions search_options)
    : c_(&constellation), opts_(search_options), pipeline_(config) {
  SD_CHECK(constellation.modulation() == config.modulation,
           "constellation/design modulation mismatch (the paper synthesizes "
           "one design per modulation)");
}

void FpgaDetector::decode_frame(const CMat& h,
                                const PreprocessedChannel* prep,
                                std::span<const cplx> y, double sigma2,
                                DecodeResult& out) {
  preprocess_frame(h, prep, y, opts_.sorted_qr, scratch_.prep, scratch_.pre);
  pipeline_.run_into(scratch_.pre, *c_, sigma2, opts_, scratch_, last_);
  out = last_.result;  // copy-assign; reuses out's capacity
  out.stats.preprocess_seconds = scratch_.pre.seconds;
  // Simulated device latency (see header note).
  out.stats.search_seconds = last_.total_seconds;
}

}  // namespace sd
