#include "decode/channel_prep.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "linalg/ordering.hpp"
#include "linalg/solve.hpp"
#include "obs/trace.hpp"

namespace sd {

namespace {

// Fingerprint constants: xxHash64's lane multipliers and its seed-0 lane
// starting values; the finalizer is murmur3's fmix64.
constexpr std::uint64_t kLaneMul = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kLaneOut = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kLaneSeed[4] = {
    0x60EA27EEADC0B5D6ull, 0xC2B2AE3D27D4EB4Full, 0x0000000000000000ull,
    0x61C8864E7A143579ull};

/// One lane step. For a fixed lane state it is a bijection of `word` (odd
/// multiplies, an add, a rotate), and for a fixed word one of the state.
[[nodiscard]] constexpr std::uint64_t lane_round(std::uint64_t acc,
                                                 std::uint64_t word) noexcept {
  return std::rotl(acc + word * kLaneMul, 31) * kLaneOut;
}

[[nodiscard]] constexpr std::uint64_t avalanche(std::uint64_t h) noexcept {
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ull;
  h ^= h >> 33;
  return h;
}

/// Bitwise element equality — stricter than operator== (which would treat
/// -0.0 and +0.0 as equal even though their factorizations may differ in
/// bits). The cache's correctness contract is bit-exact reuse, so the
/// verification must be bit-exact too.
bool same_content(const CMat& a, const CMat& b) noexcept {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const auto fa = a.flat();
  const auto fb = b.flat();
  return std::memcmp(fa.data(), fb.data(), fa.size() * sizeof(cplx)) == 0;
}

}  // namespace

std::uint64_t channel_fingerprint(const CMat& h) noexcept {
  static_assert(sizeof(cplx) == sizeof(std::uint64_t),
                "one complex entry must be one 64-bit hash word");
  static_assert(std::endian::native == std::endian::little,
                "the fingerprint reads each entry's bytes in wire order");
  const auto flat = h.flat();
  const usize n = flat.size();
  std::uint64_t lane[4] = {kLaneSeed[0], kLaneSeed[1], kLaneSeed[2],
                           kLaneSeed[3]};
  usize i = 0;
  for (; i + 4 <= n; i += 4) {
    for (usize l = 0; l < 4; ++l)
      lane[l] = lane_round(lane[l], std::bit_cast<std::uint64_t>(flat[i + l]));
  }
  for (usize l = 0; i < n; ++i, ++l)
    lane[l] = lane_round(lane[l], std::bit_cast<std::uint64_t>(flat[i]));
  // Each rotate-and-add is a bijection of its lane with the others fixed;
  // the shape word goes in by xor, so equal contents of a different shape
  // reach the avalanche (itself a bijection) with a different word.
  std::uint64_t fp = std::rotl(lane[0], 1) + std::rotl(lane[1], 7) +
                     std::rotl(lane[2], 12) + std::rotl(lane[3], 18);
  fp ^= (static_cast<std::uint64_t>(static_cast<std::uint32_t>(h.rows()))
         << 32) |
        static_cast<std::uint32_t>(h.cols());
  return avalanche(fp);
}

ChannelSummary ChannelSummary::of(const CMat& h) noexcept {
  ChannelSummary s;
  for (index_t c = 0; c < h.cols(); ++c) {
    double norm2 = 0.0;
    for (index_t r = 0; r < h.rows(); ++r) {
      const double re = h(r, c).real();
      const double im = h(r, c).imag();
      norm2 += re * re + im * im;
    }
    s.finite = s.finite && std::isfinite(norm2);
    s.min_col_norm2 = std::min(s.min_col_norm2, norm2);
    s.max_col_norm2 = std::max(s.max_col_norm2, norm2);
  }
  return s;
}

ChannelHandle::ChannelHandle(CMat h)
    : h_(std::make_shared<const CMat>(std::move(h))),
      fp_(channel_fingerprint(*h_)),
      summary_(ChannelSummary::of(*h_)) {}

ChannelHandle::ChannelHandle(CMat h, std::uint64_t fingerprint)
    : h_(std::make_shared<const CMat>(std::move(h))),
      fp_(fingerprint),
      summary_(ChannelSummary::of(*h_)) {}

const CMat& ChannelHandle::matrix() const {
  SD_CHECK(h_ != nullptr, "empty ChannelHandle");
  return *h_;
}

std::string_view prep_kind_name(PrepKind kind) noexcept {
  switch (kind) {
    case PrepKind::kChannel: return "channel";
    case PrepKind::kQrPlain: return "qr";
    case PrepKind::kQrSorted: return "sqrd";
    case PrepKind::kZf: return "zf";
    case PrepKind::kQrPlainQuant: return "qr-i16";
    case PrepKind::kQrSortedQuant: return "sqrd-i16";
    case PrepKind::kGramMmse: return "gram";
  }
  return "?";
}

std::shared_ptr<const PreprocessedChannel> build_channel_prep(
    const ChannelHandle& channel, PrepKind kind) {
  SD_TRACE_SPAN("decode.prep.build");
  auto prep = std::make_shared<PreprocessedChannel>();
  prep->channel = channel;
  prep->kind = kind;
  const CMat& h = channel.matrix();
  Timer timer;
  switch (kind) {
    case PrepKind::kQrPlain:
      prep->qr.factor(h);
      break;
    // A non-finite H is factored plain, as preprocess_into() does; its
    // prep then holds no permutation (sqrd_applicable).
    case PrepKind::kQrSorted: {
      std::vector<double> col_norm_sq;
      if (sqrd_applicable(h)) {
        qr_sorted_into(h, prep->q, prep->r, prep->perm, col_norm_sq);
      } else {
        prep->qr.factor(h);
      }
      break;
    }
    case PrepKind::kZf:
      prep->w = zf_equalizer(h);
      break;
    // The quant kinds run the IDENTICAL float factorization as their float
    // counterpart (so the per-frame ybar path and its bits are shared), then
    // calibrate + quantize R. Same code as the uncached decode_into path, so
    // cached and uncached quantized decodes agree bit-for-bit.
    case PrepKind::kQrPlainQuant:
      prep->qr.factor(h);
      quant::quantize_channel_prep(prep->qr.r(), prep->qprep);
      break;
    case PrepKind::kQrSortedQuant: {
      std::vector<double> col_norm_sq;
      if (sqrd_applicable(h)) {
        qr_sorted_into(h, prep->q, prep->r, prep->perm, col_norm_sq);
        quant::quantize_channel_prep(prep->r, prep->qprep);
      } else {
        prep->qr.factor(h);
        quant::quantize_channel_prep(prep->qr.r(), prep->qprep);
      }
      break;
    }
    case PrepKind::kGramMmse:
      prep->g = gram(h);
      break;
    case PrepKind::kChannel:
      break;
  }
  prep->build_seconds = timer.elapsed_seconds();
  return prep;
}

struct ChannelPrepCache::Shard {
  struct Entry {
    std::uint64_t fp = 0;
    PrepKind kind = PrepKind::kChannel;
    std::shared_ptr<const PreprocessedChannel> prep;
  };
  mutable std::mutex mu;
  std::list<Entry> lru;  ///< front = most recently used
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index;
  Stats stats;
};

namespace {

/// Shard-map key: fingerprint mixed with the kind so one channel's QR and ZF
/// preps occupy distinct slots. The mix keeps a key of 0 possible only with
/// astronomically small probability; correctness never depends on the key
/// alone — hits verify kind and matrix content.
std::uint64_t entry_key(std::uint64_t fp, PrepKind kind) noexcept {
  return fp ^ (0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(kind) + 1));
}

}  // namespace

ChannelPrepCache::~ChannelPrepCache() = default;

ChannelPrepCache::ChannelPrepCache(Options options) : opts_(options) {
  SD_CHECK(opts_.capacity >= 1, "prep cache capacity must be at least 1");
  SD_CHECK(opts_.shards >= 1, "prep cache needs at least one shard");
  if (opts_.shards > opts_.capacity) opts_.shards = opts_.capacity;
  shards_.reserve(opts_.shards);
  for (usize s = 0; s < opts_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ChannelPrepCache::Shard& ChannelPrepCache::shard_for(std::uint64_t fp) const {
  return *shards_[static_cast<usize>(fp % shards_.size())];
}

std::shared_ptr<const PreprocessedChannel> ChannelPrepCache::get_or_build(
    const ChannelHandle& channel, PrepKind kind, bool* hit) {
  SD_CHECK(channel.valid(), "prep cache lookup on an empty ChannelHandle");
  const std::uint64_t key = entry_key(channel.fingerprint(), kind);
  Shard& shard = shard_for(channel.fingerprint());
  const usize shard_capacity =
      std::max<usize>(1, opts_.capacity / shards_.size());

  bool collision = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      const Shard::Entry& e = *it->second;
      // Verify the hit: fingerprints can collide, and the test-only
      // explicit-fingerprint constructor makes them collide on purpose.
      // The shared_ptr identity check is the O(1) fast path for the common
      // case of frames sharing one handle within a coherence block.
      const bool same =
          e.kind == kind &&
          (e.prep->channel.same_storage(channel) ||
           same_content(e.prep->channel.matrix(), channel.matrix()));
      if (same) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        ++shard.stats.hits;
        if (hit != nullptr) *hit = true;
        return it->second->prep;
      }
      collision = true;
    }
  }

  // Miss (or collision): build outside the lock. A racing builder on the
  // same key produces bit-identical output, so whichever insert lands last
  // simply replaces an equivalent entry.
  std::shared_ptr<const PreprocessedChannel> prep =
      build_channel_prep(channel, kind);

  std::lock_guard<std::mutex> lock(shard.mu);
  ++shard.stats.misses;
  if (collision) ++shard.stats.collisions;
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Replace in place (collision, or a concurrent builder got here first).
    it->second->prep = prep;
    it->second->fp = channel.fingerprint();
    it->second->kind = kind;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  } else {
    if (shard.lru.size() >= shard_capacity) {
      const Shard::Entry& victim = shard.lru.back();
      shard.index.erase(entry_key(victim.fp, victim.kind));
      shard.lru.pop_back();
      ++shard.stats.evictions;
    }
    shard.lru.push_front(
        Shard::Entry{channel.fingerprint(), kind, prep});
    shard.index.emplace(key, shard.lru.begin());
  }
  if (hit != nullptr) *hit = false;
  return prep;
}

ChannelPrepCache::Stats ChannelPrepCache::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total.hits += shard->stats.hits;
    total.misses += shard->stats.misses;
    total.evictions += shard->stats.evictions;
    total.collisions += shard->stats.collisions;
  }
  return total;
}

void ChannelPrepCache::clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
  }
}

}  // namespace sd
