// Detector facade over the FPGA pipeline simulator.
//
// Each decode takes the host-side preprocessing (QR of the channel
// estimate, which the paper's system computes once per channel: a cached
// prep supplies it, else the decode factors H), then drives the simulated
// pipeline; both reuse the detector's DecodeScratch, so a warm decode
// allocates nothing. NOTE the timing semantics: stats.search_seconds
// of the returned result is the *simulated device time* (cycles / clock +
// PCIe staging), not host wall-clock — that is the quantity the paper's
// figures plot for the FPGA series. Host wall-clock spent simulating is
// irrelevant to the model and not reported. Full per-unit detail is
// available via last_report().
#pragma once

#include "decode/decode_scratch.hpp"
#include "decode/detector.hpp"
#include "decode/sphere_common.hpp"
#include "fpga/pipeline.hpp"

namespace sd {

class FpgaDetector final : public Detector {
 public:
  FpgaDetector(const Constellation& constellation, FpgaConfig config,
               SdOptions search_options = {});

  [[nodiscard]] std::string_view name() const override {
    return pipeline_.config().optimized ? "FPGA-optimized" : "FPGA-baseline";
  }

  /// Per-unit cycle breakdown and memory statistics of the last decode.
  [[nodiscard]] const FpgaRunReport& last_report() const noexcept {
    return last_;
  }

  [[nodiscard]] const FpgaConfig& config() const noexcept {
    return pipeline_.config();
  }

  /// Channel-split phase: the host QR (plain or SQRD per options).
  [[nodiscard]] PrepKind prep_kind() const noexcept override {
    return opts_.sorted_qr ? PrepKind::kQrSorted : PrepKind::kQrPlain;
  }

 private:
  /// Allocation-free in steady state.
  void decode_frame(const CMat& h, const PreprocessedChannel* prep,
                    std::span<const cplx> y, double sigma2,
                    DecodeResult& out) override;

  const Constellation* c_;
  SdOptions opts_;
  FpgaPipeline pipeline_;
  DecodeScratch scratch_;
  FpgaRunReport last_;
};

}  // namespace sd
