// Degenerate noise variances must not crash or wedge a tree search.
//
// A zero (or vanishing) sigma2 makes the noise-scaled radius 0 (or tiny), so
// every child is pruned, and doubling 0 stays 0. The shared retry helper
// (next_radius_sq) then switches the search to an unbounded radius exactly
// once, counted in DecodeStats::radius_fallbacks, and the detector answers.
// Inside a fused BFS batch the degenerate frame must not disturb the others.
// A NaN sample makes every PD NaN: BFS (K-Best with it), Best-FS, DFS, the
// list sphere decoder and the parallel sub-tree SD prune it like a PD
// outside the sphere, so the search ends in a handful of expansions instead
// of filling the frontier or walking the whole tree, and a search that
// reaches no leaf answers with the Babai point, as FSD does when no path
// wins.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/sphere_decoder.hpp"
#include "core/spec_parse.hpp"
#include "decode/parallel_sd.hpp"
#include "decode/sd_gemm_bfs.hpp"
#include "decode/soft_output.hpp"
#include "obs/counters.hpp"
#include "test_util.hpp"

namespace sd {
namespace {

constexpr index_t kM = 6;

// The spec is a std::string, not a const char*: gtest prints a pointer
// parameter with its address, and ctest's discovered test names would then
// change on every build.
class RadiusFallback
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(RadiusFallback, DegenerateNoiseVarianceStillAnswers) {
  const auto [spec, sigma2] = GetParam();
  const SystemConfig sys{kM, kM, Modulation::kQam4};
  auto det = make_detector(sys, parse_decoder_spec(spec));
  const CMat h = testing::random_cmat(kM, kM, 71);
  const CVec y = testing::random_cvec(kM, 72);

  const DecodeResult r = det->decode(h, y, sigma2);
  ASSERT_EQ(r.indices.size(), static_cast<usize>(kM)) << spec;
  for (index_t idx : r.indices) {
    EXPECT_GE(idx, 0) << spec;
    EXPECT_LT(idx, 4) << spec;
  }
  EXPECT_TRUE(std::isfinite(r.metric)) << spec;
  EXPECT_EQ(r.stats.radius_fallbacks, 1u) << spec << " sigma2=" << sigma2;

  obs::CounterRegistry registry;
  r.stats.export_counters(registry);
  EXPECT_EQ(registry.get_or("decode.radius_fallbacks"), 1.0) << spec;
}

INSTANTIATE_TEST_SUITE_P(
    Detectors, RadiusFallback,
    ::testing::Combine(
        ::testing::Values(std::string("bfs"),
                          std::string("bfs:precision=int16"),
                          std::string("sphere:alpha=2"),
                          std::string("dfs:alpha=2"),
                          std::string("sphere@fpga:alpha=2")),
        ::testing::Values(0.0, 1e-300)));

TEST(RadiusFallbackWide, ZeroNoiseFrameIsAnsweredAndOthersStayExact) {
  // One sigma2 = 0 frame among three good ones, each on its own channel:
  // every frame, the degenerate one included, must match its solo
  // decode_with() bit for bit.
  const Constellation& c = Constellation::get(Modulation::kQam4);
  for (const BfsOptions& opts : {BfsOptions{}, BfsOptions{.quantized = true}}) {
    SdGemmBfsDetector seq(c, opts);
    SdGemmBfsDetector wide(c, opts);
    const double sigma2s[] = {0.08, 0.0, 0.08, 0.08};
    constexpr usize kWidth = 4;
    std::vector<std::shared_ptr<const PreprocessedChannel>> preps;
    std::vector<CVec> ys;
    for (usize i = 0; i < kWidth; ++i) {
      preps.push_back(seq.preprocess(
          ChannelHandle(testing::random_cmat(kM, kM, 300 + i))));
      ys.push_back(testing::random_cvec(kM, 400 + i));
    }
    std::vector<DecodeResult> expect(kWidth);
    for (usize i = 0; i < kWidth; ++i) {
      seq.decode_with(*preps[i], ys[i], sigma2s[i], expect[i]);
    }
    std::vector<DecodeResult> got(kWidth);
    std::vector<Detector::WideItem> items;
    for (usize i = 0; i < kWidth; ++i) {
      items.push_back({preps[i].get(), ys[i], sigma2s[i], &got[i]});
    }
    wide.decode_wide(items);

    for (usize i = 0; i < kWidth; ++i) {
      const std::string what =
          std::string(wide.name()) + " frame " + std::to_string(i);
      EXPECT_EQ(got[i].indices, expect[i].indices) << what;
      EXPECT_EQ(got[i].symbols, expect[i].symbols) << what;
      EXPECT_EQ(got[i].metric, expect[i].metric) << what;
      EXPECT_EQ(got[i].stats.nodes_expanded, expect[i].stats.nodes_expanded)
          << what;
      EXPECT_EQ(got[i].stats.nodes_pruned, expect[i].stats.nodes_pruned)
          << what;
      EXPECT_EQ(got[i].stats.leaves_reached, expect[i].stats.leaves_reached)
          << what;
      EXPECT_EQ(got[i].stats.gemm_calls, expect[i].stats.gemm_calls) << what;
      EXPECT_EQ(got[i].stats.quant_overflows, expect[i].stats.quant_overflows)
          << what;
      EXPECT_EQ(got[i].stats.radius_fallbacks,
                expect[i].stats.radius_fallbacks)
          << what;
    }
    ASSERT_EQ(got[1].indices.size(), static_cast<usize>(kM));
    EXPECT_EQ(got[1].stats.radius_fallbacks, 1u) << wide.name();
    for (usize i : {usize{0}, usize{2}, usize{3}}) {
      EXPECT_EQ(got[i].stats.radius_fallbacks, 0u) << wide.name();
    }
  }
}

/// The Babai point of (h, y) in antenna order, under plain or SQRD order.
std::vector<index_t> babai_answer(const CMat& h, const CVec& y,
                                  const Constellation& c, bool sorted_qr) {
  const Preprocessed pre = preprocess(h, y, sorted_qr);
  std::vector<index_t> path(static_cast<usize>(pre.r.rows()));
  (void)babai_point(pre, c, path);
  std::vector<index_t> layered;
  std::vector<index_t> out;
  path_to_antenna_order(pre, path, layered, out);
  return out;
}

TEST(RadiusFallbackNaN, NanSampleIsAnsweredInBoundedWork) {
  // 10x10 4-QAM, one NaN receive sample. Every level-0 PD is NaN, so each
  // radius doubling expands only the root, then the unbounded sphere comes
  // up empty too and the Babai point answers. Without the NaN prune the
  // search kept every node: 349,525 expansions up to the frontier cap.
  // K-Best (the lanes' k = 8 rung) starts unbounded, so it answers after
  // the one root expansion, with no fallback.
  constexpr index_t kN = 10;
  const Constellation& c = Constellation::get(Modulation::kQam4);
  const CMat h = testing::random_cmat(kN, kN, 81);
  CVec y = testing::random_cvec(kN, 82);
  y[3] = cplx{std::numeric_limits<real>::quiet_NaN(), 0.0F};
  for (const BfsOptions& opts :
       {BfsOptions{}, BfsOptions{.quantized = true}, kbest_options(8)}) {
    SdGemmBfsDetector det(c, opts);
    const auto prep = det.preprocess(ChannelHandle(h));
    DecodeResult r;
    det.decode_with(*prep, y, 0.1, r);
    const std::string what(det.name());
    ASSERT_EQ(r.indices.size(), static_cast<usize>(kN)) << what;
    EXPECT_EQ(r.indices, babai_answer(h, y, c, opts.base.sorted_qr)) << what;
    const bool unbounded = opts.base.radius_policy == RadiusPolicy::kInfinite;
    EXPECT_EQ(r.stats.radius_fallbacks, unbounded ? 0u : 1u) << what;
    EXPECT_EQ(r.stats.leaves_reached, 0u) << what;
    EXPECT_LE(r.stats.nodes_expanded, 100u) << what;
    // The int16 search quantizes the NaN to a saturated target, exhausts
    // its integer sphere and reruns on the float policy.
    EXPECT_EQ(r.stats.quant_fallbacks, opts.quantized ? 1u : 0u) << what;
  }
}

TEST(RadiusFallbackNaN, FsdNanSampleIsAnsweredWithTheBabaiPoint) {
  // FSD keeps a path whose PD compares below the best so far; no NaN PD
  // does, so no path wins and the Babai point answers. FSD used to read the
  // empty winning path and crash.
  constexpr index_t kN = 10;
  const SystemConfig sys{kN, kN, Modulation::kQam4};
  const Constellation& c = Constellation::get(sys.modulation);
  const CMat h = testing::random_cmat(kN, kN, 81);
  CVec y = testing::random_cvec(kN, 82);
  y[3] = cplx{std::numeric_limits<real>::quiet_NaN(), 0.0F};
  for (const std::string spec : {"fsd", "fsd:levels=2"}) {
    auto det = make_detector(sys, parse_decoder_spec(spec));
    const DecodeResult r = det->decode(h, y, 0.1);
    ASSERT_EQ(r.indices.size(), static_cast<usize>(kN)) << spec;
    EXPECT_EQ(r.indices, babai_answer(h, y, c, true)) << spec;
    EXPECT_EQ(r.stats.radius_updates, 0u) << spec;
  }
}

TEST(RadiusFallbackNaN, BestFsNanSampleIsAnsweredInBoundedWork) {
  // The same frame through Best-FS. Every root child's PD is NaN and fails
  // the keep test pd < radius, so each attempt expands only the root: once
  // under the paper's unbounded radius (`sphere:sorted=0,alpha=inf`), and
  // under a noise-scaled radius (`sphere:sorted=0,alpha=2`, and the served
  // `sphere`, which also orders by SQRD) once per radius doubling plus once
  // unbounded. The Babai fallback answers.
  constexpr index_t kN = 10;
  const SystemConfig sys{kN, kN, Modulation::kQam4};
  const CMat h = testing::random_cmat(kN, kN, 81);
  CVec y = testing::random_cvec(kN, 82);
  y[3] = cplx{std::numeric_limits<real>::quiet_NaN(), 0.0F};
  for (const std::string spec :
       {"sphere:sorted=0,alpha=inf", "sphere:sorted=0,alpha=2", "sphere"}) {
    auto det = make_detector(sys, parse_decoder_spec(spec));
    const auto prep = det->preprocess(ChannelHandle(h));
    DecodeResult r;
    det->decode_with(*prep, y, 0.1, r);
    ASSERT_EQ(r.indices.size(), static_cast<usize>(kN)) << spec;
    for (index_t idx : r.indices) {
      EXPECT_GE(idx, 0) << spec;
      EXPECT_LT(idx, 4) << spec;
    }
    EXPECT_EQ(r.stats.leaves_reached, 0u) << spec;
    EXPECT_EQ(r.stats.radius_fallbacks,
              spec == "sphere:sorted=0,alpha=inf" ? 0u : 1u)
        << spec;
    EXPECT_LE(r.stats.nodes_expanded, 100u) << spec;
  }
}

TEST(RadiusFallbackNaN, DfsNanSampleIsAnsweredInBoundedWork) {
  // The same frame through the SE depth-first search. Its first root child
  // is NaN and fails pd < radius, which ends the root's siblings too; the
  // search used to keep NaN children and walk all 349,525 nodes.
  constexpr index_t kN = 10;
  const SystemConfig sys{kN, kN, Modulation::kQam4};
  const CMat h = testing::random_cmat(kN, kN, 81);
  CVec y = testing::random_cvec(kN, 82);
  y[3] = cplx{std::numeric_limits<real>::quiet_NaN(), 0.0F};
  for (const std::string spec : {"dfs", "dfs:alpha=2"}) {
    auto det = make_detector(sys, parse_decoder_spec(spec));
    const DecodeResult r = det->decode(h, y, 0.1);
    ASSERT_EQ(r.indices.size(), static_cast<usize>(kN)) << spec;
    for (index_t idx : r.indices) {
      EXPECT_GE(idx, 0) << spec;
      EXPECT_LT(idx, 4) << spec;
    }
    EXPECT_EQ(r.stats.leaves_reached, 0u) << spec;
    EXPECT_EQ(r.stats.radius_fallbacks, spec == "dfs" ? 0u : 1u) << spec;
    EXPECT_LE(r.stats.nodes_expanded, 100u) << spec;
  }
}

TEST(RadiusFallbackNaN, MultiPeNonFiniteFrameIsAnsweredInBoundedWork) {
  // One NaN receive sample, or one inf channel entry, through the parallel
  // sub-tree SD at one and two workers. Under the NaN sample every sub-tree
  // root's PD is NaN and fails pd < radius, so no sub-tree is searched. The
  // inf in column 5 makes R's row 5 and ybar[5] NaN but leaves rows 6-9
  // finite: the unbounded search walked the whole 4-level tree above
  // (1 + 4 + 16 + 64 + 256 = 341 expansions) and pruned every child at the
  // NaN level; the check on R now skips the search. Either way no leaf is
  // reached and the Babai point answers; the search used to end in
  // `invariant failed: found_leaf`.
  constexpr index_t kN = 10;
  const SystemConfig sys{kN, kN, Modulation::kQam4};
  const CMat h = testing::random_cmat(kN, kN, 81);
  const CVec y = testing::random_cvec(kN, 82);
  CVec nan_y = y;
  nan_y[3] = cplx{std::numeric_limits<real>::quiet_NaN(), 0.0F};
  CMat inf_h = h;
  inf_h(2, 5) = cplx{std::numeric_limits<real>::infinity(), 0.0F};
  for (const std::string spec :
       {"multipe:threads=1", "multipe:threads=2", "multipe:threads=2,split=2"}) {
    auto det = make_detector(sys, parse_decoder_spec(spec));
    for (const bool bad_h : {false, true}) {
      const std::string what = spec + (bad_h ? " inf H" : " NaN y");
      const DecodeResult r =
          det->decode(bad_h ? inf_h : h, bad_h ? y : nan_y, 0.1);
      ASSERT_EQ(r.indices.size(), static_cast<usize>(kN)) << what;
      for (index_t idx : r.indices) {
        EXPECT_GE(idx, 0) << what;
        EXPECT_LT(idx, 4) << what;
      }
      EXPECT_EQ(r.stats.leaves_reached, 0u) << what;
      EXPECT_LE(r.stats.nodes_expanded, bad_h ? 341u : 100u) << what;
    }
  }
}

TEST(RadiusFallbackNaN, InfChannelEntryIsAnsweredInBoundedWork) {
  // One inf channel entry in column 1: R's rows 2-9 stay finite and row 1
  // turns NaN, so an unbounded search walked every path through the eight
  // finite levels (87,381 expansions for DFS, Best-FS and multi-PE, and
  // 5.3 million for BFS retrying on grown radii) before the NaN level pruned
  // them all and the Babai point answered. The int16 datapath saturated the
  // NaN instead, expanded 2.2 million nodes and answered with one of 35,280
  // leaves of its clamped arithmetic. Every search now checks R first and
  // answers with the Babai point at once.
  constexpr index_t kN = 10;
  const SystemConfig sys{kN, kN, Modulation::kQam4};
  const Constellation& c = Constellation::get(sys.modulation);
  CMat h = testing::random_cmat(kN, kN, 81);
  h(2, 1) = cplx{std::numeric_limits<real>::infinity(), 0.0F};
  const CVec y = testing::random_cvec(kN, 82);
  for (const std::string spec :
       {"dfs", "sphere:sorted=0,alpha=inf", "multipe:threads=1", "bfs",
        "bfs:precision=int16"}) {
    auto det = make_detector(sys, parse_decoder_spec(spec));
    const DecodeResult r = det->decode(h, y, 0.1);
    EXPECT_EQ(r.indices, babai_answer(h, y, c, false)) << spec;
    EXPECT_EQ(r.stats.leaves_reached, 0u) << spec;
    EXPECT_LE(r.stats.nodes_expanded, 100u) << spec;
  }
}

TEST(RadiusFallbackNaN, MultiPeWideBatchAnswersANanFrameBesideGoodOnes) {
  // The NaN frame shares a fused batch with finite frames; they keep the
  // answers and counters of their one-frame decodes.
  constexpr index_t kN = 8;
  const SystemConfig sys{kN, kN, Modulation::kQam4};
  auto det = make_detector(sys, parse_decoder_spec("multipe:threads=1"));
  std::vector<std::shared_ptr<const PreprocessedChannel>> preps;
  std::vector<CVec> ys;
  for (std::uint64_t f = 0; f < 3; ++f) {
    preps.push_back(
        det->preprocess(ChannelHandle(testing::random_cmat(kN, kN, 90 + f))));
    ys.push_back(testing::random_cvec(kN, 95 + f));
  }
  ys[1][0] = cplx{std::numeric_limits<real>::quiet_NaN(), 0.0F};
  std::vector<DecodeResult> solo(3);
  for (usize f = 0; f < 3; ++f) det->decode_with(*preps[f], ys[f], 0.1, solo[f]);
  std::vector<DecodeResult> wide(3);
  std::vector<Detector::WideItem> items;
  for (usize f = 0; f < 3; ++f) {
    items.push_back({preps[f].get(), ys[f], 0.1, &wide[f]});
  }
  det->decode_wide(items);
  for (usize f = 0; f < 3; ++f) {
    EXPECT_EQ(wide[f].indices, solo[f].indices) << f;
    EXPECT_EQ(wide[f].stats.nodes_expanded, solo[f].stats.nodes_expanded) << f;
    EXPECT_EQ(wide[f].stats.leaves_reached, solo[f].stats.leaves_reached) << f;
  }
  EXPECT_EQ(wide[1].stats.leaves_reached, 0u);
  EXPECT_GT(wide[0].stats.leaves_reached, 0u);
}

TEST(RadiusFallbackNaN, ListSdNanSampleAnswersWithTheBabaiCandidate) {
  // The list sphere decoder on the NaN frame: the SE search prunes the NaN
  // root children, the sphere stays empty at every radius, and the Babai
  // point is the one candidate, so every LLR sits at the clamp. It used to
  // fail its `list sphere decoder found no leaf` check.
  constexpr index_t kN = 10;
  const Constellation& c = Constellation::get(Modulation::kQam4);
  const CMat h = testing::random_cmat(kN, kN, 81);
  CVec y = testing::random_cvec(kN, 82);
  y[3] = cplx{std::numeric_limits<real>::quiet_NaN(), 0.0F};
  for (const bool noise_scaled : {false, true}) {
    ListSdOptions opts;
    if (noise_scaled) opts.base.radius_policy = RadiusPolicy::kNoiseScaled;
    ListSphereDecoder lsd(c, opts);
    const SoftDecodeResult r = lsd.decode_soft(h, y, 0.1);
    ASSERT_EQ(r.hard.indices.size(), static_cast<usize>(kN)) << noise_scaled;
    for (index_t idx : r.hard.indices) {
      EXPECT_GE(idx, 0);
      EXPECT_LT(idx, 4);
    }
    EXPECT_EQ(r.candidates, 1u);
    EXPECT_EQ(r.hard.stats.leaves_reached, 0u);
    EXPECT_EQ(r.hard.stats.radius_fallbacks, noise_scaled ? 1u : 0u);
    EXPECT_LE(r.hard.stats.nodes_expanded, 100u);
    ASSERT_EQ(r.llrs.size(), static_cast<usize>(2 * kN));
    for (double l : r.llrs) EXPECT_EQ(std::abs(l), opts.llr_clamp);
  }
}

TEST(RadiusFallback, ListSdZeroNoiseVarianceGrowsToAnUnboundedSphere) {
  // A noise-scaled list search at sigma2 = 0 starts on radius 0, which
  // holds no leaf; the shared retry switches it to an unbounded sphere,
  // where it fills its list as the unbounded search does.
  const Constellation& c = Constellation::get(Modulation::kQam4);
  const CMat h = testing::random_cmat(kM, kM, 83);
  const CVec y = testing::random_cvec(kM, 84);
  ListSdOptions scaled;
  scaled.list_size = 8;
  scaled.base.radius_policy = RadiusPolicy::kNoiseScaled;
  ListSdOptions unbounded;
  unbounded.list_size = 8;
  ListSphereDecoder a(c, scaled);
  ListSphereDecoder b(c, unbounded);
  const SoftDecodeResult got = a.decode_soft(h, y, 0.0);
  const SoftDecodeResult want = b.decode_soft(h, y, 0.0);
  EXPECT_EQ(got.hard.stats.radius_fallbacks, 1u);
  EXPECT_EQ(got.candidates, 8u);
  EXPECT_EQ(got.hard.indices, want.hard.indices);
  EXPECT_EQ(a.last_candidates().metrics, b.last_candidates().metrics);
}

}  // namespace
}  // namespace sd
