// Rectangular (N_r > N_t) geometry coverage across the detector zoo (PR 10).
//
// Massive-MIMO traffic is tall by construction, and a detector that silently
// truncates rows would pass square tests while corrupting every tall frame.
// Every strategy must either decode tall channels correctly (receive
// diversity makes moderate-SNR recovery exact) or reject the geometry with a
// clean error at construction — never produce wrong dimensions or wrong bits.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/sphere_decoder.hpp"
#include "decode/sd_gemm_bfs.hpp"
#include "linalg/gemm.hpp"
#include "mimo/scenario.hpp"

namespace sd {
namespace {

Trial make_trial(const SystemConfig& sys, double snr, std::uint64_t seed) {
  ScenarioConfig sc;
  sc.num_tx = sys.num_tx;
  sc.num_rx = sys.num_rx;
  sc.modulation = sys.modulation;
  sc.snr_db = snr;
  sc.seed = seed;
  Scenario s(sc);
  return s.next();
}

constexpr Strategy kZoo[] = {
    Strategy::kZf,           Strategy::kMmse,       Strategy::kMl,
    Strategy::kBestFsGemm,   Strategy::kBestFsScalar, Strategy::kDfs,
    Strategy::kGemmBfs,      Strategy::kFsd,        Strategy::kKBest,
    Strategy::kMultiPe,      Strategy::kMmseNeumann,
};

TEST(Rectangular, ZooDecodesTallChannelsExactly) {
  // Both cases run at N_r/N_t = 8: the zoo includes the k=3 Neumann tier,
  // whose truncation error is signal-proportional (more SNR does not shrink
  // it), and 16-QAM's quarter-size decision cells need the strong diagonal
  // dominance of the 8x ratio for the series to land every seed exactly.
  // Narrower ratios are covered by the FPGA-target test below (N_r/N_t = 4)
  // and by tests/test_mmse_neumann.cpp, which pins the guarded-fallback
  // behavior the series relies on there.
  for (const SystemConfig sys : {SystemConfig{4, 32, Modulation::kQam4},
                                 SystemConfig{4, 32, Modulation::kQam16}}) {
    for (Strategy strat : kZoo) {
      DecoderSpec spec;
      spec.strategy = strat;
      spec.multi_pe.num_threads = 2;
      auto det = make_detector(sys, spec);
      ASSERT_NE(det, nullptr) << strategy_name(strat);
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const Trial t = make_trial(sys, 18.0, seed);
        ASSERT_EQ(t.h.rows(), sys.num_rx);
        ASSERT_EQ(t.h.cols(), sys.num_tx);
        const DecodeResult r = det->decode(t.h, t.y, t.sigma2);
        ASSERT_EQ(r.indices.size(), static_cast<usize>(sys.num_tx))
            << strategy_name(strat);
        ASSERT_EQ(r.symbols.size(), static_cast<usize>(sys.num_tx))
            << strategy_name(strat);
        EXPECT_EQ(r.indices, t.tx.indices)
            << strategy_name(strat) << " seed " << seed;
      }
    }
  }
}

TEST(Rectangular, FpgaTargetsDecodeTallChannels) {
  const SystemConfig sys{4, 16, Modulation::kQam4};
  const Trial t = make_trial(sys, 14.0, 2);
  for (TargetDevice dev :
       {TargetDevice::kFpgaBaseline, TargetDevice::kFpgaOptimized}) {
    DecoderSpec spec;
    spec.device = dev;
    auto det = make_detector(sys, spec);
    const DecodeResult r = det->decode(t.h, t.y, t.sigma2);
    ASSERT_EQ(r.indices.size(), 4u) << device_name(dev);
    EXPECT_EQ(r.indices, t.tx.indices) << device_name(dev);
  }
}

TEST(Rectangular, FullResidualDetectorsMatchTheOracleMetric) {
  // The linear family and MMSE-Neumann report the FULL residual
  // ||y - H s||^2 over all N_r rows (the tree searches report the
  // QR-reduced metric, which legitimately drops the out-of-column-space
  // energy ||Q2^H y||^2 on tall channels). Recompute with the oracle so a
  // row-truncation bug cannot hide in the diversity gain. MMSE-Neumann
  // evaluates the residual through the Gram identity
  // ||y||^2 - 2 Re(s^H y_mf) + s^H G s (O(M^2), DESIGN.md §17), so its
  // agreement is limited by the float-rounded Gram entries rather than by
  // double accumulation — hence the looser band.
  const SystemConfig sys{4, 32, Modulation::kQam16};
  const Trial t = make_trial(sys, 10.0, 9);
  for (Strategy strat :
       {Strategy::kZf, Strategy::kMmse, Strategy::kMmseNeumann}) {
    DecoderSpec spec;
    spec.strategy = strat;
    auto det = make_detector(sys, spec);
    const double tol = strat == Strategy::kMmseNeumann ? 1e-3 : 1e-6;
    const DecodeResult r = det->decode(t.h, t.y, t.sigma2);
    const double oracle = residual_metric(t.h, t.y, r.symbols);
    EXPECT_NEAR(r.metric, oracle, tol * (1.0 + oracle))
        << strategy_name(strat);
  }
}

TEST(Rectangular, UnderdeterminedIsRejectedEverywhere) {
  // rows < cols has no unique solution; every build path must refuse it
  // rather than decode garbage.
  DecoderSpec spec;
  for (Strategy strat : kZoo) {
    spec.strategy = strat;
    EXPECT_THROW(
        (void)make_detector(SystemConfig{8, 4, Modulation::kQam4}, spec),
        invalid_argument_error)
        << strategy_name(strat);
  }
}

TEST(Rectangular, BfsRejectsMoreTransmitAntennasThanOneGemmPanel) {
  // The BFS level engine reproduces single K-panel level products, so it
  // accepts at most kGemmKc transmit antennas and rejects a wider channel
  // up front, on the one-shot and the cached path alike.
  const SystemConfig sys{kGemmKc + 1, kGemmKc + 2, Modulation::kQam4};
  const Trial t = make_trial(sys, 10.0, 3);
  for (const BfsOptions& opts : {BfsOptions{}, BfsOptions{.quantized = true}}) {
    SdGemmBfsDetector det(Constellation::get(sys.modulation), opts);
    EXPECT_THROW((void)det.decode(t.h, t.y, t.sigma2), invalid_argument_error)
        << det.name();
    const auto prep = det.preprocess(ChannelHandle(t.h));
    DecodeResult out;
    EXPECT_THROW(det.decode_with(*prep, t.y, t.sigma2, out),
                 invalid_argument_error)
        << det.name();
  }
}

}  // namespace
}  // namespace sd
