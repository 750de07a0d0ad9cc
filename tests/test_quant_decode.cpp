// End-to-end contracts of the quantized BFS decode path (DESIGN.md §15):
// high-SNR agreement with the float twin, the decode_with == decode_into
// bit-identity the prep cache relies on, fused (batch/wide) == sequential
// bit-identity, the saturated-radius fallback, and the (fingerprint, kind)
// cache keying that keeps quantized and float preps on one channel apart.
#include "decode/sd_gemm_bfs.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "decode/channel_prep.hpp"
#include "mimo/scenario.hpp"
#include "test_util.hpp"

namespace sd {
namespace {

constexpr double kSigma2 = 0.01;  // ~20 dB for a 10x10 unit-energy system

SdGemmBfsDetector make_bfs(bool quantized, bool sorted = false) {
  BfsOptions opts;
  opts.base.sorted_qr = sorted;
  opts.quantized = quantized;
  return SdGemmBfsDetector(Constellation::get(Modulation::kQam4), opts);
}

void expect_same_decode(const DecodeResult& a, const DecodeResult& b,
                        const char* what) {
  EXPECT_EQ(a.indices, b.indices) << what;
  EXPECT_EQ(a.metric, b.metric) << what;
  EXPECT_EQ(a.stats.nodes_expanded, b.stats.nodes_expanded) << what;
  EXPECT_EQ(a.stats.nodes_pruned, b.stats.nodes_pruned) << what;
  EXPECT_EQ(a.stats.gemm_calls, b.stats.gemm_calls) << what;
  EXPECT_EQ(a.stats.flops, b.stats.flops) << what;
  EXPECT_EQ(a.stats.bytes_touched, b.stats.bytes_touched) << what;
  EXPECT_EQ(a.stats.quant_saturations, b.stats.quant_saturations) << what;
  EXPECT_EQ(a.stats.quant_overflows, b.stats.quant_overflows) << what;
  EXPECT_EQ(a.stats.quant_requants, b.stats.quant_requants) << what;
  EXPECT_EQ(a.stats.quant_fallbacks, b.stats.quant_fallbacks) << what;
}

TEST(QuantDecode, HighSnrAgreesWithFloatPath) {
  SdGemmBfsDetector fbfs = make_bfs(false);
  SdGemmBfsDetector qbfs = make_bfs(true);
  EXPECT_EQ(qbfs.name(), "SD-GEMM-BFS-i16");

  usize mismatched = 0, total = 0;
  for (std::uint64_t trial = 0; trial < 24; ++trial) {
    const CMat h = testing::random_cmat(10, 10, 100 + trial);
    const CVec y = testing::random_cvec(10, 200 + trial);
    const DecodeResult rf = fbfs.decode(h, y, kSigma2);
    const DecodeResult rq = qbfs.decode(h, y, kSigma2);
    ASSERT_EQ(rf.indices.size(), rq.indices.size());
    for (usize i = 0; i < rf.indices.size(); ++i) {
      mismatched += rf.indices[i] != rq.indices[i] ? 1 : 0;
      ++total;
    }
    // The quantized path really ran: requants are charged per level column.
    EXPECT_GT(rq.stats.quant_requants, 0u);
    EXPECT_EQ(rq.stats.quant_fallbacks, 0u);
    EXPECT_EQ(rf.stats.quant_requants, 0u) << "float path must stay clean";
  }
  // At ~20 dB the Q(f) grid is far finer than the noise; only rare
  // near-ties may flip a symbol.
  EXPECT_LE(mismatched, total / 50) << mismatched << "/" << total;
}

TEST(QuantDecode, DecodeWithMatchesDecodeIntoBitIdentically) {
  for (const bool sorted : {false, true}) {
    SdGemmBfsDetector det = make_bfs(true, sorted);
    const ChannelHandle channel(testing::random_cmat(8, 8, 301));
    const CVec y = testing::random_cvec(8, 302);

    auto prep = det.preprocess(channel);
    ASSERT_EQ(prep->kind, det.prep_kind());
    ASSERT_TRUE(prep->qprep.valid());

    DecodeResult via_into, via_with;
    det.decode_into(channel.matrix(), y, kSigma2, via_into);
    det.decode_with(*prep, y, kSigma2, via_with);
    expect_same_decode(via_with, via_into,
                       sorted ? "sorted cached-vs-direct"
                              : "plain cached-vs-direct");
  }
}

TEST(QuantDecode, BatchFusedMatchesSequentialBitIdentically) {
  SdGemmBfsDetector det = make_bfs(true);
  const ChannelHandle channel(testing::random_cmat(8, 8, 401));
  auto prep = det.preprocess(channel);

  const usize kFrames = 5;
  std::vector<CVec> ys;
  for (usize f = 0; f < kFrames; ++f) {
    ys.push_back(testing::random_cvec(8, 500 + f));
  }

  std::vector<DecodeResult> seq(kFrames);
  for (usize f = 0; f < kFrames; ++f) {
    det.decode_with(*prep, ys[f], kSigma2, seq[f]);
  }

  std::vector<DecodeResult> fused(kFrames);
  std::vector<Detector::WideItem> items;
  for (usize f = 0; f < kFrames; ++f) {
    items.push_back({prep.get(), ys[f], kSigma2, &fused[f]});
  }
  det.decode_wide(items);

  for (usize f = 0; f < kFrames; ++f) {
    expect_same_decode(fused[f], seq[f], "fused batch frame");
  }
}

TEST(QuantDecode, WideFusedMatchesSequentialBitIdentically) {
  SdGemmBfsDetector det = make_bfs(true);
  const usize kFrames = 6;
  std::vector<ChannelHandle> channels;
  std::vector<std::shared_ptr<const PreprocessedChannel>> preps;
  std::vector<CVec> ys;
  for (usize f = 0; f < kFrames; ++f) {
    // Three distinct channels, each shared by two frames, so the wide path
    // exercises both the distinct-prep blocking and block sharing.
    if (f % 2 == 0) {
      channels.emplace_back(testing::random_cmat(8, 8, 600 + f));
      preps.push_back(det.preprocess(channels.back()));
    }
    ys.push_back(testing::random_cvec(8, 700 + f));
  }

  std::vector<DecodeResult> seq(kFrames);
  for (usize f = 0; f < kFrames; ++f) {
    det.decode_with(*preps[f / 2], ys[f], kSigma2, seq[f]);
  }

  std::vector<DecodeResult> fused(kFrames);
  std::vector<Detector::WideItem> items;
  for (usize f = 0; f < kFrames; ++f) {
    items.push_back({preps[f / 2].get(), ys[f], kSigma2, &fused[f]});
  }
  det.decode_wide(items);

  for (usize f = 0; f < kFrames; ++f) {
    expect_same_decode(fused[f], seq[f], "wide fused frame");
  }
}

TEST(QuantDecode, SaturatedRadiusFallsBackToFloatSearch) {
  SdGemmBfsDetector fbfs = make_bfs(false);
  SdGemmBfsDetector qbfs = make_bfs(true);
  const CMat h = testing::random_cmat(6, 6, 801);
  // A received vector far outside the constellation's image: every quantized
  // target clamps, every child's PD saturates, and no integer radius can
  // admit a leaf — the frame must fall back to the float search.
  CVec y = testing::random_cvec(6, 802);
  for (cplx& v : y) v *= real{1e6};

  const DecodeResult rf = fbfs.decode(h, y, 1.0);
  const DecodeResult rq = qbfs.decode(h, y, 1.0);
  EXPECT_EQ(rq.stats.quant_fallbacks, 1u);
  EXPECT_EQ(rq.indices, rf.indices) << "fallback must produce the float answer";
  EXPECT_EQ(rq.metric, rf.metric);
}

TEST(QuantPrep, CacheKeysForFloatAndQuantKindsNeverCollide) {
  ChannelPrepCache cache;
  const ChannelHandle channel(testing::random_cmat(8, 8, 901));

  bool hit = true;
  auto plain = cache.get_or_build(channel, PrepKind::kQrPlain, &hit);
  EXPECT_FALSE(hit);
  auto quant = cache.get_or_build(channel, PrepKind::kQrPlainQuant, &hit);
  EXPECT_FALSE(hit) << "quant kind must not hit the float entry";
  EXPECT_NE(plain.get(), quant.get());
  EXPECT_FALSE(plain->qprep.valid());
  ASSERT_TRUE(quant->qprep.valid());

  // Both entries stay resident and re-fetchable under one fingerprint.
  auto plain2 = cache.get_or_build(channel, PrepKind::kQrPlain, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(plain.get(), plain2.get());
  auto quant2 = cache.get_or_build(channel, PrepKind::kQrPlainQuant, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(quant.get(), quant2.get());

  const ChannelPrepCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.collisions, 0u)
      << "kind must be part of the key, not a fingerprint collision";

  // The quantized prep carries the identical float factorization: same R
  // bytes as the float prep's, plus the int16 planes.
  ASSERT_EQ(quant->qr.r().rows(), plain->qr.r().rows());
  for (index_t i = 0; i < plain->qr.r().rows(); ++i) {
    for (index_t j = 0; j < plain->qr.r().cols(); ++j) {
      EXPECT_EQ(quant->qr.r()(i, j), plain->qr.r()(i, j)) << i << "," << j;
    }
  }
}

}  // namespace
}  // namespace sd
