// Gram-domain MMSE detector with Neumann-series approximate inversion for
// asymmetric (tall) massive-MIMO channels, after Wu et al. (arXiv:1403.5711).
//
// For N_r >> N_t the regularized Gram matrix A = H^H H + sigma2 I is strongly
// diagonally dominant, so A^{-1} can be approximated by a K-term Neumann
// series around the diagonal split A = D + E. The channel-only part (the Gram
// matrix G = H^H H) is cacheable across a coherence block (PrepKind::kGramMmse);
// the per-frame work reduces to one matched-filter GEMV plus K small
// Jacobi sweeps — no tree search at all. See DESIGN.md §17.
#pragma once

#include "decode/detector.hpp"

namespace sd {

/// Tuning for the Neumann/Jacobi approximate solve.
struct MmseNeumannOptions {
  /// Series terms (Jacobi sweeps). k = 0 selects the exact Cholesky solve of
  /// A x = y_mf on every frame (the "exact MMSE" reference configuration).
  usize k = 3;
  /// Relative-residual guard: after the series, if ||A x - y_mf|| / ||y_mf||
  /// exceeds this, the frame deterministically falls back to the exact
  /// Cholesky solve (counted in DecodeStats::neumann_fallbacks). The default
  /// is a DIVERGENCE detector, not an accuracy gate: on tall channels the
  /// converging series lands well under it (measured <= ~0.8 worst-case even
  /// at N_r/N_t = 4, shrinking with k), while on square/ill-conditioned
  /// channels the Jacobi iteration diverges and the residual exceeds 1 and
  /// grows with k. Tighten via the "tol=" spec option to trade fallbacks for
  /// accuracy.
  double residual_tol = 0.9;
};

/// Two-phase MMSE detector: preprocess() builds G = H^H H once per channel;
/// decode_with() forms A = G + sigma2 I (cached across frames that share the
/// same channel AND sigma2), solves A s = H^H y approximately (or exactly),
/// and slices. A frame without a cached prep recomputes G with the identical
/// GEMM, so cached and one-shot decodes agree bit-for-bit.
class MmseNeumannDetector final : public Detector {
 public:
  MmseNeumannDetector(const MmseNeumannOptions& options,
                      const Constellation& constellation)
      : opts_(options), c_(&constellation) {}

  [[nodiscard]] std::string_view name() const override {
    return "MMSE-Neumann";
  }

  [[nodiscard]] PrepKind prep_kind() const noexcept override {
    return PrepKind::kGramMmse;
  }

  [[nodiscard]] const MmseNeumannOptions& options() const noexcept {
    return opts_;
  }

 private:
  /// Forms A from the cached G, or from G computed here when `prep` is null.
  void decode_frame(const CMat& h, const PreprocessedChannel* prep,
                    std::span<const cplx> y, double sigma2,
                    DecodeResult& out) override;

  /// Shared tail after A is in a_: matched filter, solve, slice, metric.
  void solve_and_slice(const CMat& h, std::span<const cplx> y,
                       DecodeResult& out);
  /// Forms A = g + sigma2 I and 1/diag(A) into the scratch arena, reusing
  /// the previous frame's A (and any Cholesky factor of it) when the
  /// (channel, sigma2) pair is unchanged.
  void prepare_system(const CMat& g, double sigma2, std::uint64_t fingerprint);
  void solve_exact(DecodeStats& stats);

  MmseNeumannOptions opts_;
  const Constellation* c_;

  // Per-(channel, sigma2) cached system. cache_fp_ == 0 means invalid; the
  // Gram data pointer guards against fingerprint reuse across distinct
  // matrices (one-shot decodes always invalidate instead).
  std::uint64_t cache_fp_ = 0;
  double cache_sigma2_ = 0.0;
  const cplx* cache_gdata_ = nullptr;
  bool have_l_ = false;  ///< l_ currently holds the Cholesky factor of a_

  // Scratch arena (reshape/assign only — allocation-free at the high-water
  // mark, pinned by tests/test_alloc_free.cpp).
  CMat g_;                  ///< Gram scratch of a frame without a prep
  CMat a_;                  ///< A = G + sigma2 I
  CMat l_;                  ///< Cholesky factor of A (exact path / fallback)
  std::vector<real> dinv_;  ///< 1 / diag(A) (the diagonal is real by construction)
  CVec ymf_;                ///< matched filter H^H y
  CVec x_;                  ///< current iterate / solution
  CVec xn_;                 ///< next Jacobi iterate
  CVec rn_;                 ///< series residual A x - y_mf (length M)
};

}  // namespace sd
