// The paper's primary contribution (CPU reference implementation):
// a GEMM-based sphere decoder with Best-First-Search tree traversal.
//
// Structure follows the paper's Algorithm 1 + §III:
//  - Phase 1 (Branching): a popped node generates P = |Ω| children, one per
//    constellation symbol of the next transmit antenna.
//  - Phase 2 (Evaluation): the children's partial distances are computed in
//    one batched matrix product — the corresponding row block of R times the
//    children's tree-state matrix — followed by a norm against ybar. This is
//    the BLAS-2 -> BLAS-3 refactoring adopted from Arfaoui et al. [1]. Only
//    row 0 of that product is new information; the search forms it from one
//    table per tree level, built once per search (Row0Table), bit-identical
//    to the block product that LevelGemm::kFull still multiplies out.
//  - Phase 3 (Pruning): children outside the sphere radius are cut; survivors
//    are sorted by PD and pushed onto the open list so the best child is
//    popped first (LIFO), which is the Best-FS strategy adopted from
//    Geosphere [14]. Reaching a leaf shrinks the radius (Alg. 1 line 8).
//
// The open list is a flat LIFO array of {pd, depth, symbol}; LIFO order
// keeps every open node's path in one shared array, so the CPU search needs
// no tree store. The FPGA model (src/fpga/pipeline.cpp) keeps the paper's
// Meta State Table and visits the same nodes in the same order.
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

  [[nodiscard]] DecodeResult decode(const CMat& h, std::span<const cplx> y,
                                    double sigma2) override;

  /// Primary entry point: allocation-free in steady state (the scratch and
  /// `out` reach their high-water capacity and are then recycled).
  void decode_into(const CMat& h, std::span<const cplx> y, double sigma2,
                   DecodeResult& out) override;

  /// Channel-split phase: the QR (plain or SQRD per options) is cacheable.
  [[nodiscard]] PrepKind prep_kind() const noexcept override {
    return opts_.sorted_qr ? PrepKind::kQrSorted : PrepKind::kQrPlain;
  }

  /// Decode against a cached factorization; allocation-free in steady state
  /// and bit-identical to decode_into() on the same channel.
  void decode_with(const PreprocessedChannel& prep, std::span<const cplx> y,
                   double sigma2, DecodeResult& out) override;

  /// Runs the tree search on an already-preprocessed triangular system.
  /// Exposed so the FPGA pipeline simulator can drive the identical search
  /// while charging hardware cycles. Stats are accumulated into `result`.
  void search(const Preprocessed& pre, double sigma2, DecodeResult& result);

 private:
  const Constellation* c_;
  SdOptions opts_;
  DecodeScratch scratch_;
};

}  // namespace sd
