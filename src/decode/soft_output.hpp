// Soft-output sphere decoding (list sphere decoder).
//
// Coded links want per-bit reliabilities, not hard decisions. The list
// sphere decoder runs the Schnorr–Euchner depth-first search of SdDfsDetector
// (decode/dfs_search.hpp) but keeps the L best leaf candidates instead of
// only the incumbent; once L are kept, the sphere radius tracks the L-th
// best metric, so pruning stays effective. An empty sphere is retried on a
// grown radius, as in DFS, and a search that reaches no leaf answers with the
// Babai point as its only candidate.
// Max-log LLRs are then formed from the candidate list (Vikalo, Hassibi &
// Kailath — the paper's ref. [11] — style iterative receivers build on
// exactly this detector output).
#pragma once

#include <vector>

#include "decode/detector.hpp"
#include "decode/sphere_common.hpp"

namespace sd {

struct ListSdOptions {
  SdOptions base = {};
  usize list_size = 32;    ///< candidates kept (L)
  double llr_clamp = 12.0; ///< magnitude cap when a bit hypothesis is missing
};

/// Hard decisions plus per-bit log-likelihood ratios.
struct SoftDecodeResult {
  DecodeResult hard;          ///< best candidate (identical to the plain SD)
  std::vector<double> llrs;   ///< length M * bits_per_symbol; positive = bit 0
  usize candidates = 0;       ///< list entries actually collected
};

class ListSphereDecoder {
 public:
  explicit ListSphereDecoder(const Constellation& constellation,
                             ListSdOptions options = {});

  [[nodiscard]] const ListSdOptions& options() const noexcept { return opts_; }

  [[nodiscard]] SoftDecodeResult decode_soft(const CMat& h,
                                             std::span<const cplx> y,
                                             double sigma2);

  /// The candidate list of the last decode_soft call, expanded to
  /// antenna-order bit labels. Retained so an iterative receiver can
  /// recompute LLRs under updated priors without re-running the search
  /// (the LSD receiver structure of the paper's ref. [11]).
  struct CandidateList {
    std::vector<double> metrics;  ///< ||y - Hs||^2 per candidate
    std::vector<std::vector<std::uint8_t>> bits;  ///< per-candidate labels
    usize bits_per_vector = 0;
  };
  [[nodiscard]] const CandidateList& last_candidates() const noexcept {
    return last_;
  }

  /// Max-log LLRs from the stored candidate list with a-priori LLRs on the
  /// transmitted bits (empty = uniform). Candidate cost becomes
  /// metric/sigma2 + sum_b cost(bit | prior_b).
  [[nodiscard]] std::vector<double> llrs_from_list(
      std::span<const double> priors, double sigma2) const;

 private:
  const Constellation* c_;
  ListSdOptions opts_;
  CandidateList last_;
};

}  // namespace sd
