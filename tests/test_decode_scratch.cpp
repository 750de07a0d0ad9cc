// Scratch reuse must be invisible in the results.
//
// The detectors now carry a DecodeScratch whose buffers persist across
// decode_into() calls. These tests pin the two properties that make that
// safe: (1) a warm detector produces bit-identical results to a fresh one —
// on the same problem, on different problems in sequence, and across problem
// SHAPE changes (which exercise the Mat::reshape and MST-rebuild paths);
// (2) the default 1 x k evaluation product (row 0 only) matches the paper's
// full k x k product decode bit-for-bit, and charges the same full-block
// flops and bytes.
//
// The ScratchIsolation suite drives concurrent per-thread detector clones
// and runs under the TSan CI job.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "decode/sd_gemm.hpp"
#include "decode/sd_gemm_bfs.hpp"
#include "test_util.hpp"

namespace sd {
namespace {

constexpr double kSigma2 = 0.08;
// Sums of DecodeStats::flops / bytes_touched over Row0MatchesFullLevelGemmBfs's
// 12 seeded decodes, as charged by the full k x k block product.
constexpr std::uint64_t kBfsFullShapeFlops = 1613440;
constexpr std::uint64_t kBfsFullShapeBytes = 670208;

void expect_same_result(const DecodeResult& a, const DecodeResult& b,
                        const char* what) {
  EXPECT_EQ(a.indices, b.indices) << what;
  EXPECT_EQ(a.metric, b.metric) << what;  // bitwise: both paths must agree
  EXPECT_EQ(a.stats.nodes_expanded, b.stats.nodes_expanded) << what;
  EXPECT_EQ(a.stats.nodes_generated, b.stats.nodes_generated) << what;
  EXPECT_EQ(a.stats.nodes_pruned, b.stats.nodes_pruned) << what;
  EXPECT_EQ(a.stats.leaves_reached, b.stats.leaves_reached) << what;
  EXPECT_EQ(a.stats.gemm_calls, b.stats.gemm_calls) << what;
}

TEST(DecodeScratch, WarmDetectorMatchesFreshDetector) {
  const Constellation& c = Constellation::get(Modulation::kQam16);
  SdGemmDetector warm(c);
  for (std::uint64_t trial = 0; trial < 12; ++trial) {
    const CMat h = testing::random_cmat(5, 5, 100 + trial);
    const CVec y = testing::random_cvec(5, 200 + trial);
    SdGemmDetector fresh(c);
    const DecodeResult expect = fresh.decode(h, y, kSigma2);
    DecodeResult got;
    warm.decode_into(h, y, kSigma2, got);
    expect_same_result(expect, got, "warm Best-FS");
    EXPECT_EQ(expect.stats.flops, got.stats.flops);
  }
}

TEST(DecodeScratch, DecodeAndDecodeIntoAgree) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  SdGemmBfsDetector det(c);
  const CMat h = testing::random_cmat(6, 6, 301);
  const CVec y = testing::random_cvec(6, 302);
  const DecodeResult by_value = det.decode(h, y, kSigma2);
  DecodeResult into;
  into.metric = 123.0;  // stale contents must be fully reset
  into.indices.assign(9, 9);
  det.decode_into(h, y, kSigma2, into);
  expect_same_result(by_value, into, "decode vs decode_into");
  EXPECT_EQ(by_value.symbols, into.symbols);
}

TEST(DecodeScratch, ShapeChangesRecycleCleanly) {
  // Alternating problem sizes exercises reshape-shrink, reshape-grow, and
  // the MST rebuild (level count changes). Every decode is checked against
  // a fresh-detector oracle.
  const Constellation& c = Constellation::get(Modulation::kQam4);
  SdGemmDetector warm_bestfs(c);
  SdGemmBfsDetector warm_bfs(c);
  const index_t sizes[] = {6, 2, 4, 6, 3, 5, 2, 6};
  std::uint64_t seed = 400;
  for (const index_t m : sizes) {
    const CMat h = testing::random_cmat(m, m, seed++);
    const CVec y = testing::random_cvec(m, seed++);
    {
      SdGemmDetector fresh(c);
      DecodeResult got;
      warm_bestfs.decode_into(h, y, kSigma2, got);
      expect_same_result(fresh.decode(h, y, kSigma2), got, "Best-FS reshape");
    }
    {
      SdGemmBfsDetector fresh(c);
      DecodeResult got;
      warm_bfs.decode_into(h, y, kSigma2, got);
      expect_same_result(fresh.decode(h, y, kSigma2), got, "BFS reshape");
    }
  }
}

TEST(DecodeScratch, Row0MatchesFullLevelGemmBestFs) {
  const Constellation& c = Constellation::get(Modulation::kQam16);
  SdOptions full_opts;
  full_opts.level_gemm = LevelGemm::kFull;
  SdGemmDetector full(c, full_opts);
  SdGemmDetector row0(c);
  for (std::uint64_t trial = 0; trial < 12; ++trial) {
    const CMat h = testing::random_cmat(6, 6, 500 + trial);
    const CVec y = testing::random_cvec(6, 600 + trial);
    const DecodeResult rf = full.decode(h, y, kSigma2);
    const DecodeResult r0 = row0.decode(h, y, kSigma2);
    expect_same_result(rf, r0, "row0 Best-FS");
    // Both shapes charge the paper's full-block volume.
    EXPECT_EQ(r0.stats.flops, rf.stats.flops);
    EXPECT_EQ(r0.stats.bytes_touched, rf.stats.bytes_touched);
  }
}

TEST(DecodeScratch, Row0MatchesFullLevelGemmBfs) {
  // The BFS engine forms only row 0. Its answer PD must equal the full-block
  // Best-FS one bit for bit (both are the ML point inside the sphere, and
  // each PD increment is the same single-panel reduction), and its charges
  // must be the full-block volume: the sums below were recorded from the
  // engine when it still formed the whole k x k block.
  const Constellation& c = Constellation::get(Modulation::kQam4);
  SdOptions full_opts;
  full_opts.level_gemm = LevelGemm::kFull;
  SdGemmDetector full_bestfs(c, full_opts);
  SdGemmBfsDetector bfs(c);
  std::uint64_t flops = 0;
  std::uint64_t bytes = 0;
  for (std::uint64_t trial = 0; trial < 12; ++trial) {
    const CMat h = testing::random_cmat(6, 6, 700 + trial);
    const CVec y = testing::random_cvec(6, 800 + trial);
    const DecodeResult rf = full_bestfs.decode(h, y, kSigma2);
    const DecodeResult r0 = bfs.decode(h, y, kSigma2);
    EXPECT_EQ(rf.indices, r0.indices) << "trial " << trial;
    EXPECT_EQ(rf.metric, r0.metric) << "trial " << trial;
    flops += r0.stats.flops;
    bytes += r0.stats.bytes_touched;
  }
  EXPECT_EQ(flops, kBfsFullShapeFlops);
  EXPECT_EQ(bytes, kBfsFullShapeBytes);
}

// Runs in the TSan CI job: per-thread detector clones share NOTHING, so
// concurrent decodes on separate instances must be race-free — the contract
// the serve/dispatch per-lane cloning relies on now that detectors own
// mutable scratch.
TEST(ScratchIsolation, ConcurrentDetectorClonesAreRaceFree) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  constexpr unsigned kThreads = 4;
  constexpr int kDecodesPerThread = 8;

  // Single-threaded oracle results first.
  std::vector<DecodeResult> expected;
  for (unsigned t = 0; t < kThreads; ++t) {
    SdGemmDetector det(c);
    const CMat h = testing::random_cmat(5, 5, 900 + t);
    const CVec y = testing::random_cvec(5, 950 + t);
    expected.push_back(det.decode(h, y, kSigma2));
  }

  std::vector<DecodeResult> got(kThreads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      SdGemmDetector det(c);  // per-thread clone, as serve/dispatch lanes do
      const CMat h = testing::random_cmat(5, 5, 900 + t);
      const CVec y = testing::random_cvec(5, 950 + t);
      DecodeResult r;
      for (int i = 0; i < kDecodesPerThread; ++i) {
        det.decode_into(h, y, kSigma2, r);
      }
      got[t] = r;
    });
  }
  for (auto& th : pool) th.join();
  for (unsigned t = 0; t < kThreads; ++t) {
    expect_same_result(expected[t], got[t], "concurrent clone");
  }
}

}  // namespace
}  // namespace sd
