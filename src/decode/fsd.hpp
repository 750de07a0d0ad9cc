// Fixed-complexity Sphere Decoder (Barbero & Thompson, paper ref. [9]).
//
// FSD trades ML optimality for a fully deterministic, embarrassingly
// parallel workload: the first `full_levels` tree levels are expanded
// exhaustively (|Omega|^full_levels sub-paths) and every sub-path is then
// completed by successive interference cancellation (one slicing decision
// per remaining level). No radius, no data-dependent control flow — which is
// why related work likes it for massively parallel hardware, and why its
// resource demand scales with the constellation (§II-C). Included as a
// related-work ablation point.
#pragma once

#include <vector>

#include "decode/detector.hpp"
#include "decode/sphere_common.hpp"

namespace sd {

struct FsdOptions {
  index_t full_levels = 1;  ///< levels expanded exhaustively from the root
  bool sorted_qr = true;    ///< FSD conventionally relies on channel ordering
};

class FsdDetector final : public Detector {
 public:
  explicit FsdDetector(const Constellation& constellation,
                       FsdOptions options = {});

  [[nodiscard]] std::string_view name() const override { return "FSD"; }

  /// Channel-split phase: the QR (plain or SQRD per options) is cacheable.
  [[nodiscard]] PrepKind prep_kind() const noexcept override {
    return opts_.sorted_qr ? PrepKind::kQrSorted : PrepKind::kQrPlain;
  }

 private:
  /// Allocation-free in steady state: the scratch below and `out` reach
  /// their high-water capacity and are then recycled.
  void decode_frame(const CMat& h, const PreprocessedChannel* prep,
                    std::span<const cplx> y, double sigma2,
                    DecodeResult& out) override;

  const Constellation* c_;
  FsdOptions opts_;
  PreprocessScratch prep_scratch_;
  Preprocessed pre_;
  std::vector<index_t> path_;
  std::vector<index_t> best_path_;
  std::vector<index_t> layered_;
};

}  // namespace sd
