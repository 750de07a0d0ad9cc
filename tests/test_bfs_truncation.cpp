// Regression tests for the BFS frontier-truncation determinism fix
// (src/decode/sd_gemm_bfs.cpp): the memory-guard cut now uses a total
// (pd, parent, symbol) order via partial_sort, so a truncated decode — the
// one code path whose result used to depend on how the stdlib's nth_element
// resolved PD ties — is bit-identical across repeated runs and detector
// instances.
#include "decode/sd_gemm_bfs.hpp"

#include <gtest/gtest.h>

#include "mimo/scenario.hpp"

namespace sd {
namespace {

Trial make_trial(index_t m, Modulation mod, double snr, std::uint64_t seed) {
  ScenarioConfig sc;
  sc.num_tx = m;
  sc.num_rx = m;
  sc.modulation = mod;
  sc.snr_db = snr;
  sc.seed = seed;
  Scenario s(sc);
  return s.next();
}

BfsOptions tiny_frontier() {
  BfsOptions opts;
  opts.max_frontier = 8;  // far below 4^8: every level past ~2 truncates
  return opts;
}

TEST(BfsTruncation, TinyFrontierActuallyTruncates) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  SdGemmBfsDetector det(c, tiny_frontier());
  const Trial t = make_trial(8, Modulation::kQam4, 4.0, 1);
  (void)det.decode(t.h, t.y, t.sigma2);
  ASSERT_TRUE(det.last_truncated())
      << "max_frontier=8 on an 8x8 QPSK tree must hit the memory guard; if "
         "it stops doing so this test no longer covers the truncation path";
}

TEST(BfsTruncation, TruncatedDecodeIsBitIdenticalAcrossRuns) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  SdGemmBfsDetector det(c, tiny_frontier());
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    // Low SNR widens the sphere so ties and deep frontiers are common.
    const Trial t = make_trial(8, Modulation::kQam4, 4.0, seed);
    const DecodeResult first = det.decode(t.h, t.y, t.sigma2);
    for (int run = 0; run < 3; ++run) {
      const DecodeResult again = det.decode(t.h, t.y, t.sigma2);
      EXPECT_EQ(again.indices, first.indices) << "seed=" << seed;
      // Bitwise, not NEAR: the traversal is fully deterministic.
      EXPECT_EQ(again.metric, first.metric) << "seed=" << seed;
      EXPECT_EQ(again.stats.nodes_expanded, first.stats.nodes_expanded);
      EXPECT_EQ(again.stats.nodes_generated, first.stats.nodes_generated);
      EXPECT_EQ(again.stats.nodes_pruned, first.stats.nodes_pruned);
      EXPECT_EQ(again.stats.leaves_reached, first.stats.leaves_reached);
      EXPECT_EQ(again.stats.peak_list_size, first.stats.peak_list_size);
    }
  }
}

TEST(BfsTruncation, FreshDetectorInstanceReproducesTheCut) {
  // A fresh instance shares no state with the first; identical results mean
  // the cut depends only on (pd, parent, symbol), not on allocator or
  // stdlib internals that could differ between instances.
  const Constellation& c = Constellation::get(Modulation::kQam16);
  const Trial t = make_trial(6, Modulation::kQam16, 8.0, 3);
  BfsOptions opts;
  opts.max_frontier = 16;
  SdGemmBfsDetector a(c, opts);
  SdGemmBfsDetector b(c, opts);
  const DecodeResult ra = a.decode(t.h, t.y, t.sigma2);
  const DecodeResult rb = b.decode(t.h, t.y, t.sigma2);
  ASSERT_TRUE(a.last_truncated());
  EXPECT_EQ(ra.indices, rb.indices);
  EXPECT_EQ(ra.metric, rb.metric);
  EXPECT_EQ(ra.stats.nodes_generated, rb.stats.nodes_generated);
}

TEST(BfsTruncation, UntruncatedSearchUnaffectedByFrontierCap) {
  // With a cap the search never reaches, the fix must change nothing: the
  // default-capped and effectively-uncapped decoders agree bitwise.
  const Constellation& c = Constellation::get(Modulation::kQam4);
  const Trial t = make_trial(6, Modulation::kQam4, 12.0, 5);
  SdGemmBfsDetector capped(c, BfsOptions{});  // default 2^18
  BfsOptions huge;
  huge.max_frontier = 1u << 20;
  SdGemmBfsDetector uncapped(c, huge);
  const DecodeResult rc = capped.decode(t.h, t.y, t.sigma2);
  const DecodeResult ru = uncapped.decode(t.h, t.y, t.sigma2);
  EXPECT_FALSE(capped.last_truncated());
  EXPECT_EQ(rc.indices, ru.indices);
  EXPECT_EQ(rc.metric, ru.metric);
  EXPECT_EQ(rc.stats.nodes_generated, ru.stats.nodes_generated);
}

}  // namespace
}  // namespace sd
