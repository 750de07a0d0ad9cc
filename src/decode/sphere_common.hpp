// Machinery shared by the sphere-decoder family: QR preprocessing, radius
// policies, search options and the per-level row-0 product tables. The
// paper's sorted tree list (Fig. 3) is Best-FS's LIFO open list
// (decode/best_fs.hpp).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "decode/detector.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"

namespace sd {

/// How the initial sphere radius r is chosen (paper Eq. 3: user-set, then
/// tightened at run time whenever a leaf improves on it).
enum class RadiusPolicy : std::uint8_t {
  kInfinite,    ///< start unbounded; the first leaf (Babai point) sets r
  kNoiseScaled, ///< r^2 = radius_alpha * sigma^2 * N (the heuristic used by
                ///< the BFS/GPU variant, which needs a finite radius to prune)
  kBabaiCapped  ///< r^2 = min(radius_alpha * sigma^2 * N, just above the
                ///< Babai leaf's PD): the served BFS's sphere. Only the BFS
                ///< engine applies the cap, since it cannot shrink r before
                ///< its last level; the depth-first searches shrink r at
                ///< every leaf and read this as kNoiseScaled.
};

/// Shape of Best-FS's per-expansion evaluation GEMM.
///
/// The paper's formulation multiplies the FULL trailing k x k block of R by
/// the tree-state matrix even though only row 0 of the product carries new
/// information (the PD increment); the redundant rows are the regularity that
/// makes the kernel accelerator-friendly. The CPU decoders form just that
/// row, from the per-level Row0Table below, which gives bit-identical PDs
/// (see DESIGN.md §11). kFull survives only as the paper's CPU baseline for
/// the figure benches, which compare against the paper's CPU numbers; no
/// spec key, server option or environment variable selects it. The BFS
/// engine always forms row 0.
/// Neither shape changes DecodeStats: charge_level_gemm() accounts the
/// paper's full-block volume whatever ran.
enum class LevelGemm : std::uint8_t {
  kRow0,  ///< only row 0 of the product (default)
  kFull   ///< full k x k trailing block product (paper CPU baseline)
};

/// Operand widths of a level product, for its byte accounting.
enum class LevelOperands : std::uint8_t {
  kComplexFloat,  ///< complex float A/S/Z (the fp32 decoders)
  kInt16          ///< int16 A/S, int32 Z (the quantized BFS policy)
};

/// Charges `times` level products over `cols` tree-state columns at
/// trailing block size k: one GEMM call each, and the flops and bytes of the
/// paper's full k x cols x k block product (§III-A2), whatever shape
/// actually ran. The counters are model inputs — golden constants, the
/// Fig. 11 GPU model, perfbench's linalg.gemm_mflop_per_frame — so they
/// describe the algorithm's product rather than the executed one.
void charge_level_gemm(DecodeStats& stats, index_t cols, index_t k,
                       LevelOperands operands, std::uint64_t times = 1);

/// Row 0 of a level product, tabulated once per level for a search that
/// expands many parents on one R row. Row 0 of one parent's product is
///
///   z[i] = R(a,a)·c_i + sum_{t=1}^{k-1} R(a,a+t)·s_t
///
/// for its p children c_i, with s_t the symbol the parent decided for
/// column a+t. Every parent term R(a,a+t)·s takes one of only p values per
/// t, and each child's start 0 + R(a,a)·c_i is the same for every parent,
/// so build_row0_table() forms them once and level_row0_from_table()
/// gathers a parent's terms by its path. Each child keeps its own
/// accumulator in the exact per-element order of row 0 of gemm() and
/// gemm_grouped() with alpha = 1, beta = 0 (start at 0, add its own
/// product, add the parent's products in ascending t, apply the epilogue
/// 1·re − 0·im and 0 + out, and past kGemmKc the packed kernels' per-panel
/// partial sums), with the complex multiply split into the SoA kernel's
/// mul/mul/sub and mul/mul/add. The result is therefore bit-identical to
/// the level GEMM's row 0 under both kernels for finite operands; with
/// inf/NaN operands it matches the SoA kernels, while the scalar kernels'
/// std::complex multiply may turn a NaN into an inf (C Annex G recovery).
/// tests/test_row0_helper.cpp pins it against every kernel. DESIGN.md §11.
struct Row0Table {
  usize k = 0;                 ///< R row length (one more than path depth)
  usize p = 0;                 ///< children per parent
  std::vector<real> start_re;  ///< 0 + R(a,a)·c_i, padded to whole blocks
  std::vector<real> start_im;
  std::vector<cplx> term;      ///< entry (t-1)·p + s: R(a,a+t)·c_s
};

/// Builds `table` for R's row a from column a on (`r_row`, k >= 1 entries)
/// and the alphabet `points`; capacity is reused across calls.
void build_row0_table(std::span<const cplx> r_row,
                      std::span<const cplx> points, Row0Table& table);

/// Row 0 of one parent's level product from the level's table. `path`
/// holds the parent's symbol at each depth (k-1 entries, path depth d =
/// column a+k-1-d); `z` receives p values.
void level_row0_from_table(const Row0Table& table,
                           std::span<const std::uint8_t> path,
                           std::span<cplx> z);

/// Options common to all tree-search detectors.
struct SdOptions {
  RadiusPolicy radius_policy = RadiusPolicy::kInfinite;
  double radius_alpha = 2.0;      ///< multiplier for kNoiseScaled
  std::uint64_t max_nodes =
      std::numeric_limits<std::uint64_t>::max();  ///< expansion budget
  bool sorted_qr = false;         ///< use SQRD layer ordering
  bool gemm_eval = true;          ///< batched GEMM child evaluation (paper)
                                  ///< vs scalar incremental (ablation)
  LevelGemm level_gemm = LevelGemm::kRow0;  ///< Best-FS product shape

  friend bool operator==(const SdOptions&, const SdOptions&) = default;
};

/// Result of detection preprocessing: the triangular system ybar = R s.
struct Preprocessed {
  CMat r;                      ///< M x M upper triangular
  CVec ybar;                   ///< Q^H y, first M entries
  std::vector<index_t> perm;   ///< layer -> antenna mapping (empty = identity)
  double seconds = 0.0;        ///< measured preprocessing time
};

/// Reusable preprocessing workspace: the Householder factorization object
/// (which recycles its internal panels across factor() calls), the
/// length-N apply_qh intermediate, and SQRD's thin Q and residual norms.
struct PreprocessScratch {
  QrFactorization qr;
  CVec work;
  CMat q;
  std::vector<double> col_norm_sq;
};

/// Runs QR (plain Householder or SQRD) and computes ybar. SQRD falls back to
/// the plain factorization on a non-finite H (sqrd_applicable), leaving
/// `perm` empty.
[[nodiscard]] Preprocessed preprocess(const CMat& h, std::span<const cplx> y,
                                      bool sorted_qr);

/// Allocation-aware preprocess: writes into `pre`, reusing its capacity and
/// the scratch. Both the Householder and the SQRD path are
/// heap-allocation-free in steady state (after warm-up at a given problem
/// shape). Bitwise-identical to preprocess().
void preprocess_into(const CMat& h, std::span<const cplx> y, bool sorted_qr,
                     PreprocessScratch& scratch, Preprocessed& pre);

/// Per-frame half of the two-phase split: derives ybar (and copies R / the
/// permutation views) from an already-factored channel. `prep.kind` must be
/// kQrPlain or kQrSorted. Bitwise-identical to preprocess_into() on the same
/// H because the factorization bits come from the identical factorization
/// code — only WHEN they were computed differs. pre.seconds records just the
/// per-frame work (the amortized channel cost lives in prep.build_seconds).
/// Heap-allocation-free in steady state for both kinds.
void preprocess_with_channel(const PreprocessedChannel& prep,
                             std::span<const cplx> y,
                             PreprocessScratch& scratch, Preprocessed& pre);

/// A decode hook's per-frame preprocessing: preprocess_with_channel() on
/// `prep` when the caller holds one, else preprocess_into() on h.
void preprocess_frame(const CMat& h, const PreprocessedChannel* prep,
                      std::span<const cplx> y, bool sorted_qr,
                      PreprocessScratch& scratch, Preprocessed& pre);

/// Converts layer-ordered detected indices back to antenna order in `out`,
/// reusing its capacity.
void to_antenna_order_into(const Preprocessed& pre,
                           const std::vector<index_t>& layered,
                           std::vector<index_t>& out);

/// Converts a depth-ordered path (depth d decided column m-1-d) to antenna
/// order in `out`: flips it to column order in `layered`, then undoes any
/// SQRD permutation. Both vectors' capacity is reused.
void path_to_antenna_order(const Preprocessed& pre,
                           std::span<const index_t> path,
                           std::vector<index_t>& layered,
                           std::vector<index_t>& out);

/// The Babai point of `pre`: depth by depth, the symbol nearest to ybar less
/// the interference of the symbols already decided (successive interference
/// cancellation). Writes the symbol of each depth to `path` (m entries;
/// depth d decides column m-1-d) and returns the point's metric. Every tree
/// search answers with it when it reaches no leaf.
double babai_point(const Preprocessed& pre, const Constellation& c,
                   std::span<index_t> path);

/// True if every entry of the upper triangle of `r` is finite. An inf or NaN
/// in H leaves R's rows below its column finite and the rest NaN, so an
/// unbounded search would walk every path through the finite levels before
/// the NaN level pruned them all. The tree searches answer a frame whose R
/// fails this check with babai_point() before their first expansion.
[[nodiscard]] bool finite_triangle(const CMat& r) noexcept;

/// Initial squared radius for the configured policy. kBabaiCapped returns
/// the noise sphere; the BFS engine applies its cap.
[[nodiscard]] double initial_radius_sq(const SdOptions& opts, double sigma2,
                                       index_t num_rx);

/// Radius for the next search attempt after attempt number `attempt`
/// (0-based) found the sphere empty. Doubles the radius while that can help;
/// switches to an unbounded radius when the radius is not finite and
/// positive (zero or vanishing noise variance) or the doublings are used up,
/// counting the switch in stats.radius_fallbacks. An unbounded sphere always
/// reaches a leaf for finite inputs, so every search loop driven by this
/// helper terminates.
[[nodiscard]] double next_radius_sq(double radius_sq, int attempt,
                                    DecodeStats& stats);

}  // namespace sd
