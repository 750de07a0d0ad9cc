// Exhaustive Maximum-Likelihood detector (paper Eq. 2).
//
// Enumerates all |Ω|^M candidate vectors; feasible only for small systems.
// It is the ground-truth oracle the test suite holds every sphere decoder to:
// an exact SD must return exactly the ML solution.
#pragma once

#include <vector>

#include "decode/detector.hpp"

namespace sd {

class MlDetector final : public Detector {
 public:
  explicit MlDetector(const Constellation& constellation)
      : c_(&constellation) {}

  [[nodiscard]] std::string_view name() const override { return "ML"; }

  /// The exhaustive search reads H directly: no channel-only phase.
  [[nodiscard]] PrepKind prep_kind() const noexcept override {
    return PrepKind::kChannel;
  }

 private:
  /// Throws sd::invalid_argument_error if |Ω|^M exceeds 2^26 candidates —
  /// beyond that the exhaustive search is a programming error, not a plan.
  /// Allocation-free in steady state.
  void decode_frame(const CMat& h, const PreprocessedChannel* prep,
                    std::span<const cplx> y, double sigma2,
                    DecodeResult& out) override;

  const Constellation* c_;
  std::vector<index_t> current_;  ///< the candidate's symbol per antenna
  std::vector<cplxd> hs_;         ///< H times the candidate
};

}  // namespace sd
