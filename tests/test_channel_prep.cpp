// Channel handles and the preprocessing cache.
//
// Pins the invariants the coherence-block machinery leans on: fingerprints
// are deterministic and content-derived; handles share storage instead of
// copying H; the cache reuses factorizations on hit, evicts LRU at capacity,
// and survives fingerprint collisions by content verification (a collision
// degrades to a rebuild, never to wrong bits). The Concurrent* suites drive
// the sharded cache and shared read-only preps from many threads and run
// under the TSan CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "decode/channel_prep.hpp"
#include "dispatch/cost_model.hpp"
#include "mimo/channel.hpp"
#include "decode/parallel_sd.hpp"
#include "decode/sd_gemm.hpp"
#include "test_util.hpp"

namespace sd {
namespace {

bool same_bits(const CMat& a, const CMat& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(cplx) * static_cast<usize>(a.rows()) *
                         static_cast<usize>(a.cols())) == 0;
}

TEST(ChannelPrep, FingerprintIsContentDerived) {
  const CMat h = testing::random_cmat(6, 6, 41);
  CMat same = h;
  EXPECT_EQ(channel_fingerprint(h), channel_fingerprint(same));

  CMat other = h;
  other(2, 3) = -other(2, 3);  // any bit flip must change the fingerprint
  EXPECT_NE(channel_fingerprint(h), channel_fingerprint(other));

  // Dimensions participate: a 1x4 and a 4x1 with identical bytes differ.
  CMat wide(1, 4);
  CMat tall(4, 1);
  for (index_t i = 0; i < 4; ++i) {
    wide(0, i) = cplx{static_cast<real>(i), 0.0f};
    tall(i, 0) = cplx{static_cast<real>(i), 0.0f};
  }
  EXPECT_NE(channel_fingerprint(wide), channel_fingerprint(tall));
}

TEST(ChannelFingerprint, EqualContentGivesEqualFingerprints) {
  const CMat h = testing::random_cmat(128, 8, 42);
  const CMat copy = h;
  EXPECT_EQ(channel_fingerprint(h), channel_fingerprint(copy));
  EXPECT_EQ(ChannelHandle(h).fingerprint(), channel_fingerprint(h));
  // The attached-fingerprint constructor stores what it is given.
  EXPECT_EQ(ChannelHandle(h, 12345).fingerprint(), 12345u);
}

TEST(ChannelFingerprint, EverySingleBitFlipOfA4x4ChangesIt) {
  // 4x4 fills the four lanes evenly; 3x5 leaves three entries for the tail.
  for (const auto& [rows, cols] : {std::pair{4, 4}, std::pair{3, 5}}) {
    const CMat h = testing::random_cmat(rows, cols, 43);
    const std::uint64_t fp = channel_fingerprint(h);
    std::vector<std::uint64_t> seen;
    for (usize e = 0; e < h.size(); ++e) {
      for (int bit = 0; bit < 64; ++bit) {
        CMat flipped = h;
        cplx& v = flipped.data()[e];
        v = std::bit_cast<cplx>(std::bit_cast<std::uint64_t>(v) ^
                                (std::uint64_t{1} << bit));
        const std::uint64_t f = channel_fingerprint(flipped);
        EXPECT_NE(f, fp) << rows << "x" << cols << " entry " << e << " bit "
                         << bit;
        seen.push_back(f);
      }
    }
    // And the one-bit neighbours are pairwise distinct.
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
  }
}

TEST(ChannelFingerprint, WideAndTallShapesDiffer) {
  // The same entry bytes under every factorization of 24 entries.
  const CMat src = testing::random_cmat(1, 24, 44);
  std::vector<std::uint64_t> fps;
  for (index_t rows : {1, 2, 3, 4, 6, 8, 12, 24}) {
    CMat h(rows, 24 / rows);
    std::memcpy(h.data(), src.data(), src.size() * sizeof(cplx));
    fps.push_back(channel_fingerprint(h));
  }
  std::sort(fps.begin(), fps.end());
  EXPECT_EQ(std::adjacent_find(fps.begin(), fps.end()), fps.end());
  // Zero matrices of different shapes differ too, empty ones included.
  EXPECT_NE(channel_fingerprint(CMat(2, 3)), channel_fingerprint(CMat(3, 2)));
  EXPECT_NE(channel_fingerprint(CMat(1, 1)), channel_fingerprint(CMat()));
  EXPECT_NE(channel_fingerprint(CMat(3, 0)), channel_fingerprint(CMat(5, 0)));
}

/// FrameFeatures::extract's scan of H as it was before the summary moved
/// onto the handle: the reference the handle's features must reproduce bit
/// for bit.
dispatch::FrameFeatures reference_features(const CMat& h, double sigma2,
                                           index_t mod_order) {
  dispatch::FrameFeatures f;
  f.num_tx = h.cols();
  f.num_rx = h.rows();
  f.mod_order = mod_order;
  f.sigma2 = sigma2;
  f.snr_db = sigma2 > 0.0 && h.cols() > 0 ? sigma2_to_snr_db(sigma2, h.cols())
                                          : 60.0;
  double min_norm = std::numeric_limits<double>::infinity();
  double max_norm = 0.0;
  for (index_t c = 0; c < h.cols(); ++c) {
    double norm2 = 0.0;
    for (index_t r = 0; r < h.rows(); ++r) {
      const double re = h(r, c).real();
      const double im = h(r, c).imag();
      norm2 += re * re + im * im;
    }
    f.finite_h = f.finite_h && std::isfinite(norm2);
    min_norm = std::min(min_norm, norm2);
    max_norm = std::max(max_norm, norm2);
  }
  f.cond_proxy = min_norm > 0.0 ? std::sqrt(max_norm / min_norm) : 16.0;
  f.cond_proxy = std::clamp(f.cond_proxy, 1.0, 16.0);
  return f;
}

void expect_same_features(const dispatch::FrameFeatures& a,
                          const dispatch::FrameFeatures& b) {
  EXPECT_EQ(a.num_tx, b.num_tx);
  EXPECT_EQ(a.num_rx, b.num_rx);
  EXPECT_EQ(a.mod_order, b.mod_order);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.sigma2),
            std::bit_cast<std::uint64_t>(b.sigma2));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.snr_db),
            std::bit_cast<std::uint64_t>(b.snr_db));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.cond_proxy),
            std::bit_cast<std::uint64_t>(b.cond_proxy));
  EXPECT_EQ(a.finite_h, b.finite_h);
}

TEST(ChannelSummary, HandleFeaturesEqualAScanOfH) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<CMat> channels;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    const auto rows = static_cast<index_t>(1 + seed % 9 + (seed % 4) * 30);
    const auto cols = static_cast<index_t>(1 + seed % 8);
    channels.push_back(testing::random_cmat(rows, cols, 500 + seed));
  }
  CMat zero_col = testing::random_cmat(10, 10, 45);
  for (index_t r = 0; r < 10; ++r) zero_col(r, 3) = cplx{0.0f, -0.0f};
  channels.push_back(zero_col);
  CMat inf_col = testing::random_cmat(10, 10, 46);
  inf_col(4, 7) = cplx{inf, 0.0f};
  channels.push_back(inf_col);
  CMat nan_col = testing::random_cmat(128, 8, 47);
  nan_col(90, 0) = cplx{1.0f, nan};
  channels.push_back(nan_col);
  CMat spread = testing::random_cmat(12, 4, 48);
  for (index_t r = 0; r < 12; ++r) spread(r, 1) *= 1e-3f;  // clamps at 16
  channels.push_back(spread);
  channels.push_back(CMat(4, 4));  // all zero

  for (const CMat& h : channels) {
    const ChannelHandle handle(h);
    for (const double sigma2 : {0.0, 1e-3, 0.25, 3.0}) {
      const dispatch::FrameFeatures want = reference_features(h, sigma2, 16);
      SCOPED_TRACE(::testing::Message() << h.rows() << "x" << h.cols()
                                        << " sigma2=" << sigma2);
      expect_same_features(
          dispatch::FrameFeatures::extract(handle, sigma2, 16), want);
    }
  }
  EXPECT_FALSE(ChannelHandle(inf_col).summary().finite);
  EXPECT_FALSE(ChannelHandle(nan_col).summary().finite);
  EXPECT_TRUE(ChannelHandle(zero_col).summary().finite);
  EXPECT_EQ(ChannelHandle(zero_col).summary().min_col_norm2, 0.0);
}

TEST(ChannelSummary, AttachedFingerprintStillSummarizesH) {
  CMat h = testing::random_cmat(8, 4, 49);
  h(2, 2) = cplx{std::numeric_limits<float>::infinity(), 0.0f};
  const ChannelHandle with_fp(h, 7);
  const ChannelHandle plain(h);
  EXPECT_FALSE(with_fp.summary().finite);
  EXPECT_EQ(with_fp.summary().min_col_norm2, plain.summary().min_col_norm2);
  EXPECT_EQ(with_fp.summary().max_col_norm2, plain.summary().max_col_norm2);
}

TEST(ChannelPrep, HandleSharesStorage) {
  ChannelHandle a(testing::random_cmat(5, 5, 7));
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a.use_count(), 1);

  ChannelHandle b = a;  // copy shares the allocation, not the bytes
  EXPECT_TRUE(b.same_storage(a));
  EXPECT_EQ(a.use_count(), 2);
  EXPECT_EQ(&a.matrix(), &b.matrix());
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  ChannelHandle empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_FALSE(empty.same_storage(a));
}

TEST(ChannelPrep, CacheHitsReuseTheFactorization) {
  ChannelPrepCache cache(ChannelPrepCache::Options{8, 2});
  ChannelHandle channel(testing::random_cmat(6, 6, 11));

  bool hit = true;
  auto first = cache.get_or_build(channel, PrepKind::kQrSorted, &hit);
  EXPECT_FALSE(hit);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->kind, PrepKind::kQrSorted);

  auto second = cache.get_or_build(channel, PrepKind::kQrSorted, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(first.get(), second.get());  // the same object, not a rebuild

  // A different kind for the same channel is a distinct entry.
  auto zf = cache.get_or_build(channel, PrepKind::kZf, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(zf->kind, PrepKind::kZf);

  const ChannelPrepCache::Stats st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 2u);
  EXPECT_EQ(st.collisions, 0u);
}

TEST(ChannelPrep, CacheEvictsLeastRecentlyUsed) {
  // One shard so the LRU order is global and deterministic.
  ChannelPrepCache cache(ChannelPrepCache::Options{2, 1});
  ChannelHandle a(testing::random_cmat(5, 5, 1));
  ChannelHandle b(testing::random_cmat(5, 5, 2));
  ChannelHandle c(testing::random_cmat(5, 5, 3));

  bool hit = false;
  (void)cache.get_or_build(a, PrepKind::kQrPlain, &hit);
  (void)cache.get_or_build(b, PrepKind::kQrPlain, &hit);
  (void)cache.get_or_build(a, PrepKind::kQrPlain, &hit);  // a is now MRU
  EXPECT_TRUE(hit);

  (void)cache.get_or_build(c, PrepKind::kQrPlain, &hit);  // evicts b (LRU)
  EXPECT_FALSE(hit);
  EXPECT_GE(cache.stats().evictions, 1u);

  (void)cache.get_or_build(a, PrepKind::kQrPlain, &hit);
  EXPECT_TRUE(hit) << "the recently-used entry must survive the eviction";
  (void)cache.get_or_build(b, PrepKind::kQrPlain, &hit);
  EXPECT_FALSE(hit) << "the evicted entry must rebuild";
}

TEST(ChannelPrep, FingerprintCollisionRebuildsInsteadOfLying) {
  ChannelPrepCache cache(ChannelPrepCache::Options{8, 1});
  const CMat ha = testing::random_cmat(5, 5, 21);
  const CMat hb = testing::random_cmat(5, 5, 22);
  // Force both distinct matrices onto one cache key.
  ChannelHandle a(ha, /*fingerprint=*/0xDEADBEEFull);
  ChannelHandle b(hb, /*fingerprint=*/0xDEADBEEFull);

  bool hit = false;
  auto prep_a = cache.get_or_build(a, PrepKind::kQrSorted, &hit);
  EXPECT_FALSE(hit);
  auto prep_b = cache.get_or_build(b, PrepKind::kQrSorted, &hit);
  EXPECT_FALSE(hit) << "colliding content must not be served as a hit";
  EXPECT_GE(cache.stats().collisions, 1u);

  // Each prep was built from its own matrix despite the shared key.
  EXPECT_TRUE(same_bits(prep_a->channel.matrix(), ha));
  EXPECT_TRUE(same_bits(prep_b->channel.matrix(), hb));
}

TEST(ChannelPrep, BuildMatchesDirectPreprocess) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  const CMat h = testing::random_cmat(6, 6, 55);
  const CVec y = testing::random_cvec(6, 56);
  ChannelHandle channel(h);

  // decode_with on a freshly built prep must equal the one-shot path for a
  // detector of the matching kind (the cache inserts via the same builder).
  SdGemmDetector det(c);
  auto prep = det.preprocess(channel);
  ASSERT_EQ(prep->kind, det.prep_kind());
  DecodeResult cached;
  det.decode_with(*prep, y, 0.08, cached);
  SdGemmDetector fresh(c);
  DecodeResult oneshot;
  fresh.decode_into(h, y, 0.08, oneshot);
  EXPECT_EQ(cached.indices, oneshot.indices);
  EXPECT_EQ(cached.metric, oneshot.metric);
}

TEST(ChannelPrepConcurrent, GetOrBuildRace) {
  // Many threads hammer a small channel set through all shards; every
  // returned prep must be content-correct no matter who won the insert race.
  ChannelPrepCache cache(ChannelPrepCache::Options{16, 4});
  std::vector<ChannelHandle> channels;
  for (std::uint64_t s = 0; s < 4; ++s) {
    channels.emplace_back(testing::random_cmat(5, 5, 100 + s));
  }

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, &channels, t] {
      for (int iter = 0; iter < 50; ++iter) {
        const ChannelHandle& ch = channels[(t + iter) % channels.size()];
        auto prep = cache.get_or_build(ch, PrepKind::kQrSorted);
        ASSERT_NE(prep, nullptr);
        EXPECT_EQ(prep->kind, PrepKind::kQrSorted);
        EXPECT_TRUE(same_bits(prep->channel.matrix(), ch.matrix()));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  const ChannelPrepCache::Stats st = cache.stats();
  EXPECT_EQ(st.collisions, 0u);
  EXPECT_GE(st.hits + st.misses, 200u);
}

TEST(ChannelPrepConcurrent, SharedPrepIsReadOnlyAcrossDetectors) {
  // One cached prep, one detector clone per thread (detectors themselves are
  // single-threaded): every thread must read the shared factorization
  // without synchronization and produce the sequential result. ParallelSd
  // additionally fans its own workers out over the same shared prep.
  const Constellation& c = Constellation::get(Modulation::kQam4);
  const CMat h = testing::random_cmat(6, 6, 77);
  ChannelHandle channel(h);
  SdGemmDetector proto(c);
  auto prep = proto.preprocess(channel);

  std::vector<CVec> ys;
  std::vector<DecodeResult> expected(4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    ys.push_back(testing::random_cvec(6, 200 + i));
    SdGemmDetector seq(c);
    seq.decode_with(*prep, ys.back(), 0.08, expected[i]);
  }

  std::vector<DecodeResult> got(4);
  std::vector<std::thread> threads;
  for (usize i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      SdGemmDetector det(c);
      det.decode_with(*prep, ys[i], 0.08, got[i]);
    });
  }
  for (std::thread& th : threads) th.join();
  for (usize i = 0; i < 4; ++i) {
    EXPECT_EQ(got[i].indices, expected[i].indices);
    EXPECT_EQ(got[i].metric, expected[i].metric);
  }

  ParallelSdDetector multi(c, {});
  DecodeResult via_parallel;
  multi.decode_with(*prep, ys[0], 0.08, via_parallel);
  EXPECT_EQ(via_parallel.indices, expected[0].indices);
}

}  // namespace
}  // namespace sd
