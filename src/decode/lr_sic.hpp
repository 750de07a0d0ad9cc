// Lattice-reduction-aided successive interference cancellation.
//
// QAM symbols are scaled/shifted Gaussian integers, so detection can run in
// an LLL-reduced channel basis where plain rounding is near-ML: transform
// y to the integer lattice, SIC-detect in the reduced basis, multiply by T
// and clamp back onto the constellation grid. Polynomial complexity with
// far better BER than plain linear detection on ill-conditioned channels —
// the classic alternative the sphere-decoder literature benchmarks against.
#pragma once

#include "decode/detector.hpp"
#include "decode/sphere_common.hpp"

namespace sd {

class LrSicDetector final : public Detector {
 public:
  /// Square-QAM only (the Gaussian-integer mapping needs both axes).
  explicit LrSicDetector(const Constellation& constellation,
                         double lll_delta = 0.75);

  [[nodiscard]] std::string_view name() const override { return "LR-SIC"; }

  /// Reads H directly. Its channel-only phase would be the LLL-reduced
  /// basis, which no served lane needs (make_detector builds no LR-SIC).
  [[nodiscard]] PrepKind prep_kind() const noexcept override {
    return PrepKind::kChannel;
  }

 private:
  void decode_frame(const CMat& h, const PreprocessedChannel* prep,
                    std::span<const cplx> y, double sigma2,
                    DecodeResult& out) override;

  const Constellation* c_;
  double delta_;
  int levels_ = 0;      ///< per-axis amplitude levels L
  real axis_scale_ = 1; ///< constellation grid spacing / 2
};

}  // namespace sd
