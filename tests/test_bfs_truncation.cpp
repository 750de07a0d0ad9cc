// Regression tests for the BFS frontier-truncation determinism fix
// (src/decode/sd_gemm_bfs.cpp): the memory-guard cut now uses a total
// (pd, parent, symbol) order via partial_sort, so a truncated decode — the
// one code path whose result used to depend on how the stdlib's nth_element
// resolved PD ties — is bit-identical across repeated runs and detector
// instances.
//
// The same order is why the served `bfs` may cap its radius at the Babai
// leaf (BfsServedRadius): pruning to a smaller sphere keeps the relative
// order of the nodes it keeps, so every radius above the answer's PD reaches
// the same answer, truncated frontiers and int16 PDs included.
#include "decode/sd_gemm_bfs.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>

#include "core/spec_parse.hpp"
#include "core/sphere_decoder.hpp"
#include "mimo/scenario.hpp"
#include "test_util.hpp"

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

// ---- The served radius ---------------------------------------------------

/// One cell of the served-radius grid: a shape at three SNRs, and the
/// spelling suffix of a precision and frontier.
struct ServedCell {
  Modulation mod;
  index_t m;
  double snrs[3];
  std::string opts;  ///< appended to both specs; empty or ",key=value..."
};

std::string cell_label(const ServedCell& cell) {
  std::string name = std::string(modulation_name(cell.mod)) + "_m" +
                     std::to_string(cell.m) + cell.opts;
  for (char& ch : name) {
    if (std::isalnum(static_cast<unsigned char>(ch)) == 0) ch = '_';
  }
  return name;
}

// gtest prints a failing parameter with this instead of its raw bytes, which
// hold the string's heap address and would rename the ctest cases per build.
void PrintTo(const ServedCell& cell, std::ostream* os) {
  *os << cell_label(cell);
}

std::string cell_name(const ::testing::TestParamInfo<ServedCell>& info) {
  return cell_label(info.param);
}

class BfsServedRadius : public ::testing::TestWithParam<ServedCell> {};

TEST_P(BfsServedRadius, AnswersEqualTheNoiseRadiusWithLessWork) {
  // The served `bfs` caps the sphere of `bfs:sorted,alpha=2` at the Babai
  // leaf. Its answer must be the same bit for bit, and on no frame may it
  // expand more nodes.
  const ServedCell& cell = GetParam();
  const SystemConfig sys{cell.m, cell.m, cell.mod};
  auto served = make_detector(sys, parse_decoder_spec("bfs:" + cell.opts));
  auto noise = make_detector(
      sys, parse_decoder_spec("bfs:sorted,alpha=2" + cell.opts));
  std::uint64_t served_nodes = 0;
  std::uint64_t noise_nodes = 0;
  for (const double snr : cell.snrs) {
    ScenarioConfig sc;
    sc.num_tx = cell.m;
    sc.num_rx = cell.m;
    sc.modulation = cell.mod;
    sc.snr_db = snr;
    sc.seed = 2600 + static_cast<std::uint64_t>(snr);
    Scenario scenario(sc);
    for (int f = 0; f < 48; ++f) {
      const Trial t = scenario.next();
      const DecodeResult a = served->decode(t.h, t.y, t.sigma2);
      const DecodeResult b = noise->decode(t.h, t.y, t.sigma2);
      SCOPED_TRACE("snr=" + std::to_string(snr) + " frame " +
                   std::to_string(f));
      EXPECT_EQ(a.indices, b.indices);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.metric),
                std::bit_cast<std::uint64_t>(b.metric));
      EXPECT_LE(a.stats.nodes_expanded, b.stats.nodes_expanded);
      served_nodes += a.stats.nodes_expanded;
      noise_nodes += b.stats.nodes_expanded;
    }
  }
  EXPECT_LT(served_nodes, noise_nodes);
}

// clang-format off
INSTANTIATE_TEST_SUITE_P(
    Grid, BfsServedRadius,
    ::testing::Values(
        ServedCell{Modulation::kQam4, 10, {4.0, 8.0, 14.0}, ""},
        ServedCell{Modulation::kQam4, 10, {4.0, 8.0, 14.0}, ",precision=int16"},
        ServedCell{Modulation::kQam4, 10, {4.0, 8.0, 14.0}, ",frontier=16"},
        ServedCell{Modulation::kQam4, 10, {4.0, 8.0, 14.0}, ",frontier=16,precision=int16"},
        ServedCell{Modulation::kQam16, 6, {8.0, 14.0, 20.0}, ""},
        ServedCell{Modulation::kQam16, 6, {8.0, 14.0, 20.0}, ",precision=int16"},
        ServedCell{Modulation::kQam16, 6, {8.0, 14.0, 20.0}, ",frontier=16"},
        ServedCell{Modulation::kQam16, 6, {8.0, 14.0, 20.0}, ",frontier=16,precision=int16"},
        ServedCell{Modulation::kQam64, 4, {14.0, 20.0, 26.0}, ""},
        ServedCell{Modulation::kQam64, 4, {14.0, 20.0, 26.0}, ",precision=int16"},
        ServedCell{Modulation::kQam64, 4, {14.0, 20.0, 26.0}, ",frontier=16"},
        ServedCell{Modulation::kQam64, 4, {14.0, 20.0, 26.0}, ",frontier=16,precision=int16"}),
    cell_name);
// clang-format on

/// y = H s for the symbols `s`: a frame with no noise.
CVec noiseless(const CMat& h, const Constellation& c,
               const std::vector<index_t>& s) {
  CVec y(static_cast<usize>(h.rows()), cplx{0, 0});
  for (index_t i = 0; i < h.rows(); ++i) {
    for (index_t j = 0; j < h.cols(); ++j) {
      y[static_cast<usize>(i)] += h(i, j) * c.point(s[static_cast<usize>(j)]);
    }
  }
  return y;
}

TEST(BfsServedRadiusEdge, NoiselessFrameAnswersInBoundedWork) {
  // With no noise the Babai leaf is the sent vector. On the identity channel
  // its metric is exactly 0, so a cap that only scaled the Babai metric
  // would be a zero radius that keeps nothing; the cap sits just above the
  // leaf's PD instead, and the search walks that one path.
  constexpr index_t kN = 8;
  const Constellation& c = Constellation::get(Modulation::kQam16);
  std::vector<index_t> sent(kN);
  for (index_t j = 0; j < kN; ++j) sent[static_cast<usize>(j)] = (5 * j + 3) % 16;
  CMat eye(kN, kN);
  eye.fill(cplx{0, 0});
  for (index_t j = 0; j < kN; ++j) eye(j, j) = cplx{1, 0};
  const SystemConfig sys{kN, kN, Modulation::kQam16};
  for (const char* spec : {"bfs", "bfs:precision=int16"}) {
    auto served = make_detector(sys, parse_decoder_spec(spec));
    for (const CMat& h : {eye, testing::random_cmat(kN, kN, 77)}) {
      const DecodeResult r = served->decode(h, noiseless(h, c, sent), 0.1);
      EXPECT_EQ(r.indices, sent) << spec;
      EXPECT_EQ(r.stats.nodes_expanded, static_cast<std::uint64_t>(kN))
          << spec;
      EXPECT_EQ(r.stats.leaves_reached, 1u) << spec;
      EXPECT_EQ(r.stats.radius_fallbacks, 0u) << spec;
    }
    const DecodeResult exact = served->decode(eye, noiseless(eye, c, sent), 0.1);
    EXPECT_EQ(exact.metric, 0.0) << spec;
  }
}

TEST(BfsServedRadiusEdge, NoCapWithoutANoiseVarianceOrAFiniteBabaiMetric) {
  // sigma2 = 0 takes the radius fallback, and a NaN sample makes the Babai
  // metric NaN: in both the served search runs exactly as the noise radius
  // does, every counter included.
  constexpr index_t kN = 6;
  const SystemConfig sys{kN, kN, Modulation::kQam4};
  const CMat h = testing::random_cmat(kN, kN, 71);
  CVec nan_y = testing::random_cvec(kN, 72);
  nan_y[2] = cplx{std::numeric_limits<real>::quiet_NaN(), 0.0F};
  struct Frame {
    CVec y;
    double sigma2;
  };
  for (const Frame& fr : {Frame{testing::random_cvec(kN, 72), 0.0},
                          Frame{nan_y, 0.1}}) {
    for (const char* opts : {"", ",precision=int16"}) {
      auto served = make_detector(sys, parse_decoder_spec(std::string("bfs:") + opts));
      auto noise = make_detector(
          sys, parse_decoder_spec(std::string("bfs:sorted,alpha=2") + opts));
      const DecodeResult a = served->decode(h, fr.y, fr.sigma2);
      const DecodeResult b = noise->decode(h, fr.y, fr.sigma2);
      SCOPED_TRACE(std::string(opts) + " sigma2=" + std::to_string(fr.sigma2));
      EXPECT_EQ(a.indices, b.indices);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.metric),
                std::bit_cast<std::uint64_t>(b.metric));
      EXPECT_EQ(a.stats.nodes_expanded, b.stats.nodes_expanded);
      EXPECT_EQ(a.stats.nodes_pruned, b.stats.nodes_pruned);
      EXPECT_EQ(a.stats.leaves_reached, b.stats.leaves_reached);
      EXPECT_EQ(a.stats.radius_fallbacks, b.stats.radius_fallbacks);
      EXPECT_EQ(a.stats.quant_overflows, b.stats.quant_overflows);
    }
  }
}

}  // namespace
}  // namespace sd
