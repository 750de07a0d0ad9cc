// Linear detectors (paper §I): Maximum Ratio Combining, Zero Forcing, and
// Minimum Mean Square Error. Low complexity, poor BER — the lower bar every
// sphere decoder is compared against in Fig. 12.
#pragma once

#include "decode/detector.hpp"

namespace sd {

/// Which linear equalizer to apply before slicing.
enum class LinearKind { kMrc, kZf, kMmse };

[[nodiscard]] std::string_view linear_kind_name(LinearKind kind) noexcept;

/// Equalize-and-slice detector: s_hat = slice(W y) with W chosen per kind.
class LinearDetector final : public Detector {
 public:
  LinearDetector(LinearKind kind, const Constellation& constellation)
      : kind_(kind), c_(&constellation) {}

  [[nodiscard]] std::string_view name() const override {
    return linear_kind_name(kind_);
  }

  /// ZF's equalizer W depends only on H, so it is cacheable. MMSE's W also
  /// depends on sigma2 (a per-frame input), so its channel-only phase is the
  /// Gram matrix H^H H. MRC reads H directly.
  [[nodiscard]] PrepKind prep_kind() const noexcept override {
    switch (kind_) {
      case LinearKind::kZf: return PrepKind::kZf;
      case LinearKind::kMmse: return PrepKind::kGramMmse;
      case LinearKind::kMrc: break;
    }
    return PrepKind::kChannel;
  }

 private:
  /// A ZF frame with a cached prep skips building W; an MMSE frame with one
  /// skips forming the Gram matrix.
  void decode_frame(const CMat& h, const PreprocessedChannel* prep,
                    std::span<const cplx> y, double sigma2,
                    DecodeResult& out) override;

  LinearKind kind_;
  const Constellation* c_;
};

}  // namespace sd
