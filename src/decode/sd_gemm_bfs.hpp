// GEMM-based sphere decoder with Breadth-First (level-synchronous) search —
// the algorithm of Arfaoui et al. [1], which the paper reproduces on an
// NVIDIA A100 as its GPU comparison point (Fig. 11).
//
// All nodes of a tree level are expanded together and their children are
// evaluated in ONE large GEMM per level (R row-block times the level's whole
// tree-state matrix), which is what makes the strategy GPU-friendly. The
// price is pruning quality: the radius cannot shrink until the leaf level is
// reached, so the frontier — and the GEMM volume — grows far beyond what the
// Best-FS decoder touches. The node/GEMM counts recorded here are exact and
// feed the A100 timing model.
#pragma once

#include <memory>
#include <vector>

#include "decode/detector.hpp"
#include "decode/sphere_common.hpp"
#include "linalg/gemm.hpp"
#include "quant/quant_spec.hpp"

namespace sd {

struct BfsOptions {
  SdOptions base = {RadiusPolicy::kNoiseScaled, 2.0};
  /// Frontier cap (memory guard). When the surviving set of a level exceeds
  /// it, only the best `max_frontier` nodes are kept — the "heuristic to
  /// limit the search space" that GPU implementations resort to (§IV-F),
  /// potentially costing BER. Exceeding the cap is reported in the stats.
  usize max_frontier = 1u << 18;
  /// Run the fixed-point (int16 storage / int32 PD) datapath calibrated to
  /// the FPGA's arithmetic: int16 level GEMMs, exact integer PD comparisons,
  /// scale-aware radius, saturating requantize between levels (DESIGN.md
  /// §15). Falls back to the float search per frame when the quantized
  /// radius saturates without finding a leaf.
  bool quantized = false;
};

/// Every decode entry point feeds one level engine. The detector supports at
/// most kGemmKc (128) transmit antennas, the depth of one K panel of the
/// level GEMM it reproduces; a wider channel is rejected with
/// sd::invalid_argument_error.
class SdGemmBfsDetector final : public Detector {
 public:
  explicit SdGemmBfsDetector(const Constellation& constellation,
                             BfsOptions options = {});
  ~SdGemmBfsDetector() override;  // Frame is an incomplete type here

  [[nodiscard]] std::string_view name() const override {
    return opts_.quantized ? "SD-GEMM-BFS-i16" : "SD-GEMM-BFS";
  }

  [[nodiscard]] const BfsOptions& options() const noexcept { return opts_; }

  [[nodiscard]] DecodeResult decode(const CMat& h, std::span<const cplx> y,
                                    double sigma2) override;

  /// Primary entry point: allocation-free in steady state (the engine's
  /// per-frame state and `out` reach their high-water capacity and are then
  /// recycled).
  void decode_into(const CMat& h, std::span<const cplx> y, double sigma2,
                   DecodeResult& out) override;

  /// Channel-split phase: the QR (plain or SQRD per options) is cacheable.
  /// The quantized variant requests the matching quant kind — the same float
  /// factorization plus the int16-calibrated R planes — which occupies its
  /// own (fingerprint, kind) cache slot, so quantized and float lanes never
  /// collide on one fingerprint.
  [[nodiscard]] PrepKind prep_kind() const noexcept override {
    if (opts_.quantized) {
      return opts_.base.sorted_qr ? PrepKind::kQrSortedQuant
                                  : PrepKind::kQrPlainQuant;
    }
    return opts_.base.sorted_qr ? PrepKind::kQrSorted : PrepKind::kQrPlain;
  }

  /// Decode against a cached factorization; bit-identical to decode_into().
  /// Multi-frame batches take the base decode_wide(), one frame after the
  /// other: each frame's level products come from its own paths, so frames
  /// share no work (DESIGN.md §14).
  void decode_with(const PreprocessedChannel& prep, std::span<const cplx> y,
                   double sigma2, DecodeResult& out) override;

  /// True if the last decode had to truncate a frontier (BER no longer
  /// guaranteed ML-optimal). After decode_wide() this reports the LAST frame
  /// of the batch.
  [[nodiscard]] bool last_truncated() const noexcept { return truncated_; }

 private:
  // The level engine (sd_gemm_bfs.cpp), templated on the arithmetic policy —
  // fp32 (row-0 products from a per-level table, real PDs) or int16
  // (exact int32 products from per-level tables, requantize, int32 PDs).
  struct Frame;      ///< per-frame inputs and search state
  struct Fp32Arith;  ///< float arithmetic policy
  struct I16Arith;   ///< fixed-point arithmetic policy
  template <class Arith>
  struct Engine;     ///< level loop, retry driver and harvest

  /// Decodes the bound frame with the configured arithmetic policy.
  void solve(Frame& frame);

  const Constellation* c_;
  BfsOptions opts_;
  std::unique_ptr<Frame> frame_;
  quant::QuantChannelPrep qlocal_;  ///< decode_into calibration

  bool truncated_ = false;
};

}  // namespace sd
