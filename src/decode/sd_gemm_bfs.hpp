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
#include "quant/quant_gemm.hpp"

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

/// Every decode entry point feeds one lockstep level engine. Its level
/// products are single K-panel grouped GEMMs, so the detector supports at
/// most kGemmKc (128) transmit antennas; a wider channel is rejected with
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
  /// A width-1 decode_wide().
  void decode_with(const PreprocessedChannel& prep, std::span<const cplx> y,
                   double sigma2, DecodeResult& out) override;

  /// Fused multi-frame decode: the frames run the level-synchronous search
  /// in LOCKSTEP, each level issuing ONE grouped block-diagonal product over
  /// the distinct R blocks (DESIGN.md §14). Frames may share a prep (then
  /// they share one block) or carry different channels. Frames whose prep
  /// kind or dimension does not match are peeled up front; empty-frontier
  /// restarts and operand-budget demotions finish alone at width 1.
  /// Per-frame results and stats are bit-identical to sequential
  /// decode_with() calls.
  void decode_wide(std::span<WideItem> items) override;

  /// True if the last decode had to truncate a frontier (BER no longer
  /// guaranteed ML-optimal). After decode_wide() this reports the LAST frame
  /// of the batch, matching a sequential loop over the frames.
  [[nodiscard]] bool last_truncated() const noexcept { return truncated_; }

 private:
  // The level engine (sd_gemm_bfs.cpp): one lockstep loop over a set of
  // frames, templated on the arithmetic policy — fp32 (complex staging,
  // gemm_grouped, real PDs) or int16 (I16 planes, qgemm_level_grouped,
  // requantize, int32 PDs). A single-frame decode is width 1 of it.
  struct Frame;      ///< per-frame inputs and search state
  struct Fp32Arith;  ///< float arithmetic policy
  struct I16Arith;   ///< fixed-point arithmetic policy
  template <class Arith>
  struct Engine;     ///< lockstep loop, retry driver and harvest

  /// Decodes bound frames with the configured arithmetic policy.
  void solve(std::span<Frame* const> frames);

  const Constellation* c_;
  BfsOptions opts_;
  std::unique_ptr<Frame> solo_;                ///< decode_into
  std::vector<std::unique_ptr<Frame>> pool_;   ///< decode_wide, one per item
  std::vector<Frame*> frames_;                 ///< frames of the current solve
  quant::QuantChannelPrep qlocal_;             ///< decode_into calibration

  // Level staging, rebuilt per level and shared by all frames at that level.
  std::vector<GemmGroup> groups_;  ///< one group per active frame
  std::vector<Frame*> blocks_;     ///< R source of each distinct channel
  CMat a_stack_, s_mat_, z_;       ///< fp32 R blocks, tree states, product
  GemmWorkspace gemm_ws_;
  quant::I16Mat qa_re_, qa_im_;    ///< int16 R planes
  quant::I16Mat qs_ri_;            ///< interleaved int16 tree states
  quant::I32Mat qz_re_, qz_im_;    ///< exact Q(2f) products

  bool truncated_ = false;
};

}  // namespace sd
