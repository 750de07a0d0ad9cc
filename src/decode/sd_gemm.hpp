// The paper's primary contribution (CPU reference implementation):
// a GEMM-based sphere decoder with Best-First-Search tree traversal.
//
// The search itself is best_fs_search() (decode/best_fs.hpp), the paper's
// Algorithm 1 with the GEMM evaluation of §III-A2 and the LIFO open list of
// Fig. 3. This detector runs it with the CPU's observer; the FPGA pipeline
// model (src/fpga/pipeline.cpp) runs the same loop with an observer that
// charges hardware cycles, so the two visit the same nodes in the same order.
#pragma once

#include "decode/decode_scratch.hpp"
#include "decode/detector.hpp"
#include "decode/sphere_common.hpp"

namespace sd {

class SdGemmDetector final : public Detector {
 public:
  explicit SdGemmDetector(const Constellation& constellation,
                          SdOptions options = {});

  [[nodiscard]] std::string_view name() const override {
    return opts_.gemm_eval ? "SD-GEMM-BestFS" : "SD-Scalar-BestFS";
  }

  [[nodiscard]] const SdOptions& options() const noexcept { return opts_; }

  /// Channel-split phase: the QR (plain or SQRD per options) is cacheable.
  [[nodiscard]] PrepKind prep_kind() const noexcept override {
    return opts_.sorted_qr ? PrepKind::kQrSorted : PrepKind::kQrPlain;
  }

 private:
  /// Allocation-free in steady state: the scratch and `out` reach their
  /// high-water capacity and are then recycled.
  void decode_frame(const CMat& h, const PreprocessedChannel* prep,
                    std::span<const cplx> y, double sigma2,
                    DecodeResult& out) override;

  /// Runs best_fs_search() on scratch_.pre and times it.
  void search(double sigma2, DecodeResult& result);

  const Constellation* c_;
  SdOptions opts_;
  DecodeScratch scratch_;
};

}  // namespace sd
