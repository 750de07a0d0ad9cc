// The verification backbone of the reproduction: every exact sphere decoder
// (GEMM/Best-FS, scalar Best-FS, classic DFS, GEMM-BFS, multi-PE) must
// return exactly the ML solution, across a parameterized grid of system
// sizes, modulations, SNRs and seeds. The paper's claim that its hardware
// optimizations "improve compute complexity without impacting BER
// performance" rests on this property.
#include <gtest/gtest.h>

#include <cmath>
#include <string_view>
#include <tuple>

#include "core/spec_parse.hpp"
#include "core/sphere_decoder.hpp"
#include "decode/ml.hpp"
#include "decode/parallel_sd.hpp"
#include "decode/sd_dfs.hpp"
#include "decode/sd_gemm.hpp"
#include "decode/sd_gemm_bfs.hpp"
#include "mimo/scenario.hpp"

namespace sd {
namespace {

struct Case {
  index_t m;
  Modulation mod;
  double snr_db;
  std::uint64_t seed;
};

Trial make_trial(const Case& cs) {
  ScenarioConfig sc;
  sc.num_tx = cs.m;
  sc.num_rx = cs.m;
  sc.modulation = cs.mod;
  sc.snr_db = cs.snr_db;
  sc.seed = cs.seed;
  Scenario s(sc);
  return s.next();
}

class SdVsMl
    : public ::testing::TestWithParam<std::tuple<int, Modulation, double>> {};

TEST_P(SdVsMl, AllExactDecodersMatchMlSolution) {
  const auto [m, mod, snr] = GetParam();
  const Constellation& c = Constellation::get(mod);
  MlDetector ml(c);
  SdGemmDetector sd_gemm(c);
  SdOptions scalar_opts;
  scalar_opts.gemm_eval = false;
  SdGemmDetector sd_scalar(c, scalar_opts);
  SdDfsDetector sd_dfs(c);
  SdGemmBfsDetector sd_bfs(c);
  ParallelSdOptions par_opts;
  par_opts.num_threads = 2;
  ParallelSdDetector sd_par(c, par_opts);

  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Trial t = make_trial({static_cast<index_t>(m), mod, snr, seed});
    const DecodeResult r_ml = ml.decode(t.h, t.y, t.sigma2);
    const DecodeResult r_gemm = sd_gemm.decode(t.h, t.y, t.sigma2);
    const DecodeResult r_scalar = sd_scalar.decode(t.h, t.y, t.sigma2);
    const DecodeResult r_dfs = sd_dfs.decode(t.h, t.y, t.sigma2);
    const DecodeResult r_bfs = sd_bfs.decode(t.h, t.y, t.sigma2);
    const DecodeResult r_par = sd_par.decode(t.h, t.y, t.sigma2);

    EXPECT_EQ(r_gemm.indices, r_ml.indices) << "GEMM/BestFS seed " << seed;
    EXPECT_EQ(r_scalar.indices, r_ml.indices) << "scalar seed " << seed;
    EXPECT_EQ(r_dfs.indices, r_ml.indices) << "DFS seed " << seed;
    EXPECT_EQ(r_bfs.indices, r_ml.indices) << "BFS seed " << seed;
    EXPECT_EQ(r_par.indices, r_ml.indices) << "MultiPE seed " << seed;

    // The achieved metrics must agree with ML's to float tolerance.
    EXPECT_NEAR(r_gemm.metric, r_ml.metric, 1e-2 * (1 + r_ml.metric));
    EXPECT_NEAR(r_dfs.metric, r_ml.metric, 1e-2 * (1 + r_ml.metric));
  }
}

std::string case_name(
    const ::testing::TestParamInfo<std::tuple<int, Modulation, double>>& info) {
  const int m = std::get<0>(info.param);
  const Modulation mod = std::get<1>(info.param);
  const double snr = std::get<2>(info.param);
  std::string name = "M" + std::to_string(m) + "_";
  name += std::string(modulation_name(mod)) == "BPSK"
              ? "BPSK"
              : std::to_string(Constellation::get(mod).order()) + "QAM";
  name += "_SNR" + std::to_string(static_cast<int>(snr));
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SdVsMl,
    ::testing::Combine(::testing::Values(2, 4, 6),
                       ::testing::Values(Modulation::kBpsk, Modulation::kQam4,
                                         Modulation::kQam16),
                       ::testing::Values(2.0, 8.0, 16.0)),
    case_name);

TEST(SdEquivalence, SortedQrDoesNotChangeTheSolution) {
  // SQRD permutes detection order; the returned (antenna-ordered) vector
  // must still be the ML solution.
  const Constellation& c = Constellation::get(Modulation::kQam4);
  MlDetector ml(c);
  SdOptions opts;
  opts.sorted_qr = true;
  SdGemmDetector sd(c, opts);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Trial t = make_trial({5, Modulation::kQam4, 6.0, seed});
    EXPECT_EQ(sd.decode(t.h, t.y, t.sigma2).indices,
              ml.decode(t.h, t.y, t.sigma2).indices)
        << "seed " << seed;
  }
}

TEST(SdEquivalence, ServedSphereIsExactMl) {
  // The served `sphere` (SQRD order, noise-scaled radius with the doubling
  // restart) returns the ML solution, and at the paper's 10x10 shape the
  // same vector as the paper's settings.
  const Constellation& c = Constellation::get(Modulation::kQam4);
  MlDetector ml(c);
  auto served =
      make_detector({5, 5, Modulation::kQam4}, parse_decoder_spec("sphere"));
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Trial t = make_trial({5, Modulation::kQam4, 6.0, seed});
    EXPECT_EQ(served->decode(t.h, t.y, t.sigma2).indices,
              ml.decode(t.h, t.y, t.sigma2).indices)
        << "seed " << seed;
  }
  const SystemConfig sys{10, 10, Modulation::kQam4};
  auto served10 = make_detector(sys, parse_decoder_spec("sphere"));
  auto paper10 =
      make_detector(sys, parse_decoder_spec("sphere:sorted=0,alpha=inf"));
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Trial t = make_trial({10, Modulation::kQam4, 8.0, seed});
    EXPECT_EQ(served10->decode(t.h, t.y, t.sigma2).indices,
              paper10->decode(t.h, t.y, t.sigma2).indices)
        << "seed " << seed;
  }
}

TEST(SdEquivalence, ZeroColumnChannelIsAnsweredWithoutThrowing) {
  // One all-zero H column: SQRD factors it as a zero pivot instead of
  // throwing, so every detector answers. That antenna's symbol cannot be
  // told apart; the exact searches still agree on the other nine, and their
  // answers are as close to y as the paper's. (SQRD's own metric leaves out
  // the energy of y outside H's column space, which its thin Q no longer
  // spans: a constant per frame, so the argmin does not move.)
  constexpr index_t kM = 10;
  constexpr index_t kZero = 4;
  const SystemConfig sys{kM, kM, Modulation::kQam4};
  Trial t = make_trial({kM, Modulation::kQam4, 8.0, 3});
  for (index_t i = 0; i < kM; ++i) t.h(i, kZero) = cplx{0, 0};

  const Constellation& c = Constellation::get(Modulation::kQam4);
  auto paper =
      make_detector(sys, parse_decoder_spec("sphere:sorted=0,alpha=inf"));
  const DecodeResult want = paper->decode(t.h, t.y, t.sigma2);
  for (const char* spec : {"sphere", "sphere:sorted", "kbest:k=8", "fsd",
                           "dfs", "bfs:sorted"}) {
    auto det = make_detector(sys, parse_decoder_spec(spec));
    DecodeResult got;
    ASSERT_NO_THROW(got = det->decode(t.h, t.y, t.sigma2)) << spec;
    ASSERT_EQ(got.indices.size(), static_cast<usize>(kM)) << spec;
    for (index_t idx : got.indices) {
      EXPECT_GE(idx, 0) << spec;
      EXPECT_LT(idx, 4) << spec;
    }
    EXPECT_TRUE(std::isfinite(got.metric)) << spec;
    if (std::string_view(spec).starts_with("kbest") ||
        std::string_view(spec) == "fsd") {
      continue;  // not exact searches
    }
    for (index_t k = 0; k < kM; ++k) {
      if (k == kZero) continue;
      EXPECT_EQ(got.indices[static_cast<usize>(k)],
                want.indices[static_cast<usize>(k)])
          << spec << " antenna " << k;
    }
    double distance = 0.0;
    for (index_t i = 0; i < kM; ++i) {
      cplx hs{0, 0};
      for (index_t k = 0; k < kM; ++k) {
        hs += t.h(i, k) * c.point(got.indices[static_cast<usize>(k)]);
      }
      distance += std::norm(t.y[static_cast<usize>(i)] - hs);
    }
    EXPECT_NEAR(distance, want.metric, 1e-4 * (1.0 + want.metric)) << spec;
  }
}

TEST(SdEquivalence, NoiseScaledRadiusStillExact) {
  // A finite initial radius (with enlarge-and-retry) must not change the
  // solution, only the work.
  const Constellation& c = Constellation::get(Modulation::kQam4);
  MlDetector ml(c);
  SdOptions opts;
  opts.radius_policy = RadiusPolicy::kNoiseScaled;
  opts.radius_alpha = 0.5;  // deliberately tight to force retries
  SdGemmDetector sd(c, opts);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Trial t = make_trial({4, Modulation::kQam4, 8.0, seed});
    EXPECT_EQ(sd.decode(t.h, t.y, t.sigma2).indices,
              ml.decode(t.h, t.y, t.sigma2).indices)
        << "seed " << seed;
  }
}

TEST(SdEquivalence, LargerSystemsGemmVsDfsAgree) {
  // ML is infeasible at 10x10, but the two exact decoders must still agree
  // with each other (same traversal by construction).
  const Constellation& c = Constellation::get(Modulation::kQam4);
  SdGemmDetector sd_gemm(c);
  SdDfsDetector sd_dfs(c);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Trial t = make_trial({10, Modulation::kQam4, 8.0, seed});
    const DecodeResult a = sd_gemm.decode(t.h, t.y, t.sigma2);
    const DecodeResult b = sd_dfs.decode(t.h, t.y, t.sigma2);
    EXPECT_EQ(a.indices, b.indices) << "seed " << seed;
    EXPECT_NEAR(a.metric, b.metric, 1e-2 * (1 + a.metric));
  }
}

TEST(SdEquivalence, DecodedMetricMatchesResidual) {
  const Constellation& c = Constellation::get(Modulation::kQam16);
  SdGemmDetector sd(c);
  const Trial t = make_trial({6, Modulation::kQam16, 10.0, 3});
  const DecodeResult r = sd.decode(t.h, t.y, t.sigma2);
  EXPECT_NEAR(r.metric, residual_metric(t.h, t.y, r.symbols),
              1e-2 * (1 + r.metric));
}

}  // namespace
}  // namespace sd
