// Common detector interface.
//
// Every decoding scheme in the paper (ZF, MMSE, MRC, ML, the sphere-decoder
// family, and the FPGA pipeline simulation) implements this interface so the
// experiment harness can sweep them uniformly.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "decode/channel_prep.hpp"
#include "linalg/matrix.hpp"
#include "mimo/constellation.hpp"

namespace sd::obs {
class CounterRegistry;
}

namespace sd {

/// Work counters recorded during one decode. These are exact algorithmic
/// counts (not estimates); the device timing models convert them to time.
struct DecodeStats {
  std::uint64_t nodes_expanded = 0;   ///< tree nodes popped and branched
  std::uint64_t nodes_generated = 0;  ///< children created (paper phase 1)
  std::uint64_t nodes_pruned = 0;     ///< children discarded by the radius test
  std::uint64_t leaves_reached = 0;   ///< full-depth candidates evaluated
  std::uint64_t radius_updates = 0;   ///< times the sphere radius shrank
  std::uint64_t gemm_calls = 0;       ///< batched evaluation GEMMs issued
  std::uint64_t flops = 0;            ///< real FLOPs in evaluation GEMMs
  std::uint64_t sort_ops = 0;         ///< comparisons spent ordering children
  std::uint64_t bytes_touched = 0;    ///< evaluation operand traffic (bytes)
  std::uint64_t tree_levels = 0;      ///< levels processed (BFS) or max depth
  std::uint64_t peak_list_size = 0;   ///< high-water mark of the open list
  // Fixed-point datapath counters (zero on float decodes): how hard the
  // int16/int32 quantized path leaned on its saturation semantics.
  std::uint64_t quant_saturations = 0;  ///< int16 clamps (targets + requant)
  std::uint64_t quant_overflows = 0;    ///< int32 PD / radius saturations
  std::uint64_t quant_requants = 0;     ///< between-level Q(2f)->Q(f) narrowings
  std::uint64_t quant_fallbacks = 0;    ///< frames re-run on the float path
  std::uint64_t radius_fallbacks = 0;   ///< empty spheres retried unbounded
  // Neumann-series MMSE counters (zero for every other detector): how the
  // approximate-inversion tier resolved each frame.
  std::uint64_t neumann_terms = 0;      ///< Jacobi/Neumann series terms applied
  std::uint64_t neumann_exact_solves = 0;  ///< exact Cholesky solves (k=0 or fallback)
  std::uint64_t neumann_fallbacks = 0;  ///< series residual exceeded tol -> exact re-solve
  bool node_budget_hit = false;       ///< search stopped by the node budget
  double preprocess_seconds = 0.0;    ///< measured QR / equalizer setup time
  double search_seconds = 0.0;        ///< measured search/slicing time

  /// Pours a snapshot into the unified counter registry (src/obs) under
  /// "<prefix>.<counter>" names, e.g. "decode.nodes_expanded".
  void export_counters(obs::CounterRegistry& registry,
                       std::string_view prefix = "decode") const;
};

/// Output of one decode: hard decisions plus the achieved metric and stats.
struct DecodeResult {
  std::vector<index_t> indices;  ///< detected symbol index per transmit antenna
  CVec symbols;                  ///< corresponding constellation points
  double metric = std::numeric_limits<double>::infinity();  ///< ||y - H s||^2
  DecodeStats stats;

  /// Returns the result to its default state while KEEPING vector capacity,
  /// so decode_into() can recycle a caller-owned result across frames.
  void reset() {
    indices.clear();
    symbols.clear();
    metric = std::numeric_limits<double>::infinity();
    stats = DecodeStats{};
  }
};

/// Abstract detector. A detector names its channel-only phase, prep_kind(),
/// and implements one per-frame hook, decode_frame(); the public entry
/// points decode(), decode_into() and decode_with() are wrappers in this
/// class that reset the output, pick the prep the hook may use and call it,
/// so every entry point gives the same bits for the same frame.
/// decode_wide() loops the hook too, unless a detector overrides it with a
/// fused multi-frame search.
///
/// decode() is safe to call repeatedly with different channels, but an
/// instance may own reusable search scratch (decode/decode_scratch.hpp), so a
/// single instance must NOT be driven from multiple threads concurrently —
/// clone one per thread, as the serve and dispatch runtimes do per lane.
class Detector {
 public:
  virtual ~Detector() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Detects the transmitted vector from the received y (length N) given the
  /// channel estimate h (N x M) and noise variance sigma2.
  [[nodiscard]] DecodeResult decode(const CMat& h, std::span<const cplx> y,
                                    double sigma2);

  /// decode() into a caller-owned result, reusing its capacity (the caller
  /// need not reset() it first). Detectors that keep their scratch across
  /// frames are heap-allocation-free here in steady state.
  void decode_into(const CMat& h, std::span<const cplx> y, double sigma2,
                   DecodeResult& out);

  // ---- Two-phase (channel-split) decoding ----------------------------------
  //
  // Every detector's work splits into a channel-only phase and a per-frame
  // remainder. preprocess() builds the channel-only phase once (directly or
  // via a ChannelPrepCache), and decode_with() runs the per-frame remainder
  // (ybar + search, or equalize + slice). decode_into(h, y, ...) runs both
  // phases on every call. decode_with(preprocess(handle), y, ...) is
  // bitwise-identical to decode_into(handle.matrix(), y, ...) — same
  // factorization code, same H bytes, same search. See DESIGN.md §12.

  /// Which channel-only phase this detector reuses. Every detector names
  /// one; a detector that reads H directly names kChannel, whose prep is the
  /// handle alone.
  [[nodiscard]] virtual PrepKind prep_kind() const noexcept = 0;

  /// Builds the channel-only preprocessing for this detector. Callers that
  /// serve coherent traffic should prefer ChannelPrepCache::get_or_build with
  /// this detector's prep_kind() so coherent frames share one factorization.
  [[nodiscard]] std::shared_ptr<const PreprocessedChannel> preprocess(
      const ChannelHandle& channel) const {
    return build_channel_prep(channel, prep_kind());
  }

  /// Decodes one frame against an already-factored channel. A prep of any
  /// other kind than prep_kind() is not used: the frame is decoded from the
  /// prep's channel matrix, as decode_into() would. Bit-identical to
  /// decode_into() either way.
  void decode_with(const PreprocessedChannel& prep, std::span<const cplx> y,
                   double sigma2, DecodeResult& out);

  /// One frame of a multi-frame ("wide") batch: each frame carries its OWN
  /// prepared channel. The prep pointers must outlive the call; frames may
  /// freely share a prep (a coherent batch points every item at one prep).
  struct WideItem {
    const PreprocessedChannel* prep = nullptr;
    std::span<const cplx> y;
    double sigma2 = 0.0;
    DecodeResult* out = nullptr;
  };

  /// Decodes B frames with per-frame channels. The base implementation loops
  /// decode_with(); ParallelSdDetector overrides it to spread the frames
  /// over its workers (DESIGN.md §16). Every override is REQUIRED to produce
  /// per-frame results bit-identical to sequential decode_with() calls
  /// (pinned by tests/test_coherent_batch.cpp).
  virtual void decode_wide(std::span<WideItem> items);

 protected:
  /// The per-frame hook behind every entry point: decodes y against h into
  /// `out`, which the caller has reset(). `prep` is the factorization of h
  /// when the caller holds one of this detector's prep_kind(), else nullptr,
  /// and the hook factors h itself.
  virtual void decode_frame(const CMat& h, const PreprocessedChannel* prep,
                            std::span<const cplx> y, double sigma2,
                            DecodeResult& out) = 0;

  /// The prep decode_frame() may use for a frame that carries `prep`: the
  /// prep itself if it is of this detector's kind, else nullptr.
  [[nodiscard]] const PreprocessedChannel* matching_prep(
      const PreprocessedChannel& prep) const noexcept {
    return prep.kind == prep_kind() ? &prep : nullptr;
  }
};

/// Convenience: computes ||y - H s||^2 for a candidate, used by detectors to
/// report the achieved metric and by tests as an oracle.
[[nodiscard]] double residual_metric(const CMat& h, std::span<const cplx> y,
                                     std::span<const cplx> s);

/// Fills result.symbols from result.indices using the constellation.
void materialize_symbols(const Constellation& c, DecodeResult& result);

}  // namespace sd
