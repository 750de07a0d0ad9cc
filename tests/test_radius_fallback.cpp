// Degenerate noise variances must not crash or wedge a tree search.
//
// A zero (or vanishing) sigma2 makes the noise-scaled radius 0 (or tiny), so
// every child is pruned, and doubling 0 stays 0. The shared retry helper
// (next_radius_sq) then switches the search to an unbounded radius exactly
// once, counted in DecodeStats::radius_fallbacks, and the detector answers.
// Inside a fused BFS batch the degenerate frame must not disturb the others.
// A NaN sample makes every PD NaN: the BFS and Best-FS prune it like a PD
// outside the sphere, so the search ends in a handful of expansions instead
// of filling the frontier.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/sphere_decoder.hpp"
#include "core/spec_parse.hpp"
#include "decode/sd_gemm_bfs.hpp"
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

TEST(RadiusFallbackNaN, NanSampleIsAnsweredInBoundedWork) {
  // 10x10 4-QAM, one NaN receive sample. Every level-0 PD is NaN, so each
  // radius doubling expands only the root, then the unbounded sphere comes
  // up empty too and the answer is all symbol 0. Without the NaN prune the
  // search kept every node: 349,525 expansions up to the frontier cap.
  constexpr index_t kN = 10;
  const Constellation& c = Constellation::get(Modulation::kQam4);
  const CMat h = testing::random_cmat(kN, kN, 81);
  CVec y = testing::random_cvec(kN, 82);
  y[3] = cplx{std::numeric_limits<real>::quiet_NaN(), 0.0F};
  for (const BfsOptions& opts : {BfsOptions{}, BfsOptions{.quantized = true}}) {
    SdGemmBfsDetector det(c, opts);
    const auto prep = det.preprocess(ChannelHandle(h));
    DecodeResult r;
    det.decode_with(*prep, y, 0.1, r);
    const std::string what(det.name());
    ASSERT_EQ(r.indices.size(), static_cast<usize>(kN)) << what;
    for (index_t idx : r.indices) EXPECT_EQ(idx, 0) << what;
    EXPECT_EQ(r.stats.radius_fallbacks, 1u) << what;
    EXPECT_EQ(r.stats.leaves_reached, 0u) << what;
    EXPECT_LE(r.stats.nodes_expanded, 100u) << what;
    // The int16 search quantizes the NaN to a saturated target, exhausts
    // its integer sphere and reruns on the float policy.
    EXPECT_EQ(r.stats.quant_fallbacks, opts.quantized ? 1u : 0u) << what;
  }
}

TEST(RadiusFallbackNaN, BestFsNanSampleIsAnsweredInBoundedWork) {
  // The same frame through Best-FS. Every root child's PD is NaN and fails
  // the keep test pd < radius, so each attempt expands only the root: once
  // under the unbounded radius of `sphere`, and under `sphere:alpha=2` once
  // per radius doubling plus once unbounded. The Babai fallback answers.
  constexpr index_t kN = 10;
  const SystemConfig sys{kN, kN, Modulation::kQam4};
  const CMat h = testing::random_cmat(kN, kN, 81);
  CVec y = testing::random_cvec(kN, 82);
  y[3] = cplx{std::numeric_limits<real>::quiet_NaN(), 0.0F};
  for (const std::string spec : {"sphere", "sphere:alpha=2"}) {
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
    EXPECT_EQ(r.stats.radius_fallbacks, spec == "sphere" ? 0u : 1u) << spec;
    EXPECT_LE(r.stats.nodes_expanded, 100u) << spec;
  }
}

}  // namespace
}  // namespace sd
