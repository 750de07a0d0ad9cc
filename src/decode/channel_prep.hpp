// Coherence-block channel reuse: shared channel handles, cacheable
// per-channel preprocessing, and a bounded preprocessing cache.
//
// The decode cost of every detector splits into a per-CHANNEL part (QR or
// sorted QR of H, or the linear equalizer W) and a per-FRAME part (ybar =
// Q^H y plus the tree search). Block-fading uplinks hold H fixed over a
// coherence interval, so the serving stack can pay the channel part once per
// interval instead of once per frame. Three pieces make that safe:
//
//  - ChannelHandle: an immutable, refcounted H plus a content fingerprint.
//    Frames sharing a channel share ONE allocation through every queue hop
//    (FrameRequest used to deep-copy the dense matrix per hop).
//  - PreprocessedChannel: the channel-only factorization output for one
//    detector family (PrepKind). Frame state (ybar) is NOT in here — it is
//    derived per frame by preprocess_with_channel() in sphere_common.
//  - ChannelPrepCache: a sharded-mutex, bounded-LRU map from (fingerprint,
//    kind) to a shared PreprocessedChannel. Hits verify the stored matrix
//    really equals the requested one (fingerprints can collide), so a
//    collision degrades to a rebuild, never to wrong bits.
//
// Bit-exactness: the cached factorization runs the exact same code
// (QrFactorization::factor / qr_sorted / zf_equalizer) on the exact same H
// bytes as the uncached per-frame path, so every downstream PD, metric, and
// golden constant is unchanged. See DESIGN.md §12.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"
#include "quant/quant_spec.hpp"

namespace sd {

/// FNV-1a over the matrix dimensions and element bytes. Deterministic across
/// runs and platforms with identical doubles; equal matrices always get equal
/// fingerprints, unequal ones collide with probability ~2^-64 (and collisions
/// are handled by content verification in the cache, not assumed away).
[[nodiscard]] std::uint64_t channel_fingerprint(const CMat& h) noexcept;

/// Immutable shared channel estimate: refcounted H + content fingerprint.
/// Copying a handle shares the matrix storage; the dense data is allocated
/// exactly once no matter how many frames or queue hops reference it.
class ChannelHandle {
 public:
  ChannelHandle() = default;

  /// Takes ownership of `h` and fingerprints it eagerly (one O(N*M) pass;
  /// amortized over every frame of the coherence block sharing the handle).
  explicit ChannelHandle(CMat h);

  /// Attaches a fingerprint the caller already holds for `h` — the wire
  /// decoder's verified one, so the ingress does not hash H twice. Tests
  /// also attach an arbitrary fingerprint, e.g. to force two distinct
  /// matrices onto one cache key and exercise collision handling
  /// deterministically.
  ChannelHandle(CMat h, std::uint64_t fingerprint);

  [[nodiscard]] bool valid() const noexcept { return h_ != nullptr; }
  [[nodiscard]] const CMat& matrix() const;
  [[nodiscard]] std::uint64_t fingerprint() const noexcept { return fp_; }

  /// True iff both handles reference the same underlying allocation — the
  /// O(1) fast path for "same channel" checks along the coherent run.
  [[nodiscard]] bool same_storage(const ChannelHandle& other) const noexcept {
    return h_ != nullptr && h_ == other.h_;
  }

  [[nodiscard]] long use_count() const noexcept { return h_.use_count(); }

 private:
  std::shared_ptr<const CMat> h_;
  std::uint64_t fp_ = 0;
};

/// Which channel-only factorization a detector needs. One cache entry per
/// (channel, kind): a BFS detector with sorted_qr and a linear ZF fallback
/// draw different prep objects from the same cache without clashing.
enum class PrepKind : std::uint8_t {
  kNone,      ///< detector has no cacheable channel-only phase
  kQrPlain,   ///< Householder QR (plain layer order)
  kQrSorted,  ///< SQRD: sorted QR + explicit thin Q + permutation
  kZf,        ///< zero-forcing equalizer W = (H^H H)^-1 H^H
  // Quantized variants: the SAME factorization as their float counterpart
  // (so the per-frame ybar path is shared), plus the int16-calibrated R
  // planes in `qprep`. Appended so existing kind values — and therefore
  // every existing cache key — are unchanged.
  kQrPlainQuant,   ///< kQrPlain + QuantSpec-calibrated int16 R
  kQrSortedQuant,  ///< kQrSorted + QuantSpec-calibrated int16 R
  // Appended (cache keys mix the kind value, so existing keys are stable):
  kGramMmse,  ///< Gram matrix G = H^H H for the Neumann/Cholesky MMSE tier
};

[[nodiscard]] std::string_view prep_kind_name(PrepKind kind) noexcept;

/// The channel-only half of detection preprocessing, computed once per
/// coherence block and shared (read-only) by every frame that uses it.
struct PreprocessedChannel {
  ChannelHandle channel;
  PrepKind kind = PrepKind::kNone;

  // kQrPlain: the full factorization object (R + compact reflectors), so the
  // per-frame ybar = Q^H y applies reflectors without forming Q.
  QrFactorization qr;

  // kQrSorted: explicit thin Q, R, and the layer->antenna permutation.
  CMat q;
  CMat r;
  std::vector<index_t> perm;

  // kZf: the equalizer matrix.
  CMat w;

  // kGramMmse: the Gram matrix G = H^H H (M x M, Hermitian PSD). sigma2 is a
  // per-FRAME input, so the regularized A = G + sigma2 I and its factorization
  // are formed per frame from this channel-only part (DESIGN.md §17).
  CMat g;

  // kQrPlainQuant / kQrSortedQuant: the per-channel fixed-point calibration
  // and quantized R planes, derived from the float factorization above.
  quant::QuantChannelPrep qprep;

  double build_seconds = 0.0;  ///< measured channel-only factorization time
};

/// Runs the channel-only factorization for `kind` on the handle's matrix.
/// This is THE single construction path — cache misses and direct calls
/// produce byte-identical prep objects because they are the same code.
[[nodiscard]] std::shared_ptr<const PreprocessedChannel> build_channel_prep(
    const ChannelHandle& channel, PrepKind kind);

/// Sharded, bounded-LRU cache of PreprocessedChannel keyed on
/// (fingerprint, kind) with content verification on hit.
///
/// Concurrency: lookups take one shard mutex; builds run OUTSIDE the lock
/// (two lanes racing on the same key may both build — the results are
/// bit-identical, one wins the insert, the loser's copy is dropped). Cached
/// prep objects are immutable after construction, so concurrent readers
/// need no further synchronization.
class ChannelPrepCache {
 public:
  struct Options {
    usize capacity = 64;  ///< total entries across shards (LRU per shard)
    usize shards = 4;     ///< mutex shards (keyed by fingerprint)
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t collisions = 0;  ///< fingerprint matched, content did not
  };

  ChannelPrepCache() : ChannelPrepCache(Options{}) {}
  explicit ChannelPrepCache(Options options);
  ~ChannelPrepCache();

  /// Returns the cached prep for (channel, kind), building and inserting it
  /// on miss. `hit` (optional) reports whether the factorization was reused.
  [[nodiscard]] std::shared_ptr<const PreprocessedChannel> get_or_build(
      const ChannelHandle& channel, PrepKind kind, bool* hit = nullptr);

  [[nodiscard]] Stats stats() const;
  void clear();

 private:
  struct Shard;
  Options opts_;
  std::vector<std::unique_ptr<Shard>> shards_;

  [[nodiscard]] Shard& shard_for(std::uint64_t fp) const;
};

}  // namespace sd
