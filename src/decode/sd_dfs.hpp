// Classic depth-first sphere decoder with Schnorr-Euchner child ordering —
// the traversal strategy of Geosphere [14], implemented with scalar
// interference-cancellation arithmetic (BLAS-1/2 profile, memory-bound).
// The search is the shared depth-first core (decode/dfs_search.hpp) over a
// local radius that each leaf shrinks.
//
// Algorithmically it visits nodes in exactly the same order as the
// GEMM/Best-FS decoder (sorted children + LIFO == depth-first best-child
// descent), so the two must agree on the returned vector AND on node counts;
// the test suite enforces both. What differs is the arithmetic shape, which
// is what the paper's BLAS-3 refactoring is about — and what the WARP device
// model charges for in the Fig. 12 comparison.
#pragma once

#include <vector>

#include "decode/detector.hpp"
#include "decode/dfs_search.hpp"
#include "decode/sphere_common.hpp"

namespace sd {

class SdDfsDetector final : public Detector {
 public:
  explicit SdDfsDetector(const Constellation& constellation,
                         SdOptions options = {});

  [[nodiscard]] std::string_view name() const override { return "SD-DFS"; }

  [[nodiscard]] const SdOptions& options() const noexcept { return opts_; }

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

  /// Tree search on pre_.
  void search(double sigma2, DecodeResult& result);

  const Constellation* c_;
  SdOptions opts_;
  PreprocessScratch prep_scratch_;
  Preprocessed pre_;
  DfsScratch dfs_;
  std::vector<index_t> best_path_;
  std::vector<index_t> layered_;
};

}  // namespace sd
