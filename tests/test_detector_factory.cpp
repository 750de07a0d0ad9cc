#include "core/sphere_decoder.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
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

TEST(Factory, BuildsEveryCpuStrategy) {
  const SystemConfig sys{4, 4, Modulation::kQam4};
  const Trial t = make_trial(sys, 10.0, 1);
  for (Strategy strat :
       {Strategy::kMrc, Strategy::kZf, Strategy::kMmse, Strategy::kMl,
        Strategy::kBestFsGemm, Strategy::kBestFsScalar, Strategy::kDfs,
        Strategy::kGemmBfs, Strategy::kFsd, Strategy::kKBest,
        Strategy::kMultiPe}) {
    DecoderSpec spec;
    spec.strategy = strat;
    spec.multi_pe.num_threads = 2;
    auto det = make_detector(sys, spec);
    ASSERT_NE(det, nullptr) << strategy_name(strat);
    EXPECT_EQ(det->name(), strategy_name(strat));
    const DecodeResult r = det->decode(t.h, t.y, t.sigma2);
    EXPECT_EQ(r.indices.size(), 4u) << strategy_name(strat);
  }
}

TEST(Factory, BuildsFpgaTargets) {
  const SystemConfig sys{6, 6, Modulation::kQam4};
  const Trial t = make_trial(sys, 8.0, 2);

  DecoderSpec opt_spec;
  opt_spec.device = TargetDevice::kFpgaOptimized;
  auto opt = make_detector(sys, opt_spec);
  EXPECT_EQ(opt->name(), "FPGA-optimized");

  DecoderSpec base_spec;
  base_spec.device = TargetDevice::kFpgaBaseline;
  auto base = make_detector(sys, base_spec);
  EXPECT_EQ(base->name(), "FPGA-baseline");

  // Both decode to the same (exact) answer as the CPU reference.
  auto cpu = make_detector(sys, DecoderSpec{});
  const auto expected = cpu->decode(t.h, t.y, t.sigma2).indices;
  EXPECT_EQ(opt->decode(t.h, t.y, t.sigma2).indices, expected);
  EXPECT_EQ(base->decode(t.h, t.y, t.sigma2).indices, expected);
}

TEST(Factory, FpgaWithWrongStrategyThrows) {
  const SystemConfig sys{4, 4, Modulation::kQam4};
  DecoderSpec spec;
  spec.device = TargetDevice::kFpgaOptimized;
  spec.strategy = Strategy::kDfs;
  EXPECT_THROW((void)make_detector(sys, spec), invalid_argument_error);
}

TEST(Factory, RefusesBfsAndKBestWiderThanOneGemmPanel) {
  // BFS and K-Best run on the level engine, whose GEMM takes at most
  // kGemmKc transmit antennas; a wider system is refused when the detector
  // is built, not when its first frame is decoded.
  const SystemConfig wide{kGemmKc + 1, kGemmKc + 1, Modulation::kQam4};
  for (const Strategy strat : {Strategy::kGemmBfs, Strategy::kKBest}) {
    DecoderSpec spec;
    spec.strategy = strat;
    EXPECT_THROW((void)make_detector(wide, spec), invalid_argument_error)
        << strategy_name(strat);
  }
  const SystemConfig widest{kGemmKc, kGemmKc, Modulation::kQam4};
  for (const Strategy strat : {Strategy::kGemmBfs, Strategy::kKBest}) {
    DecoderSpec spec;
    spec.strategy = strat;
    EXPECT_NE(make_detector(widest, spec), nullptr) << strategy_name(strat);
  }
}

TEST(Factory, RejectsUnderdeterminedSystem) {
  DecoderSpec spec;
  EXPECT_THROW((void)make_detector(SystemConfig{8, 4, Modulation::kQam4}, spec),
               invalid_argument_error);
  EXPECT_THROW((void)make_detector(SystemConfig{0, 0, Modulation::kQam4}, spec),
               invalid_argument_error);
}

TEST(Factory, RectangularSystemsSupported) {
  // More receivers than transmitters (receive diversity).
  const SystemConfig sys{4, 8, Modulation::kQam16};
  const Trial t = make_trial(sys, 8.0, 3);
  auto det = make_detector(sys, DecoderSpec{});
  const DecodeResult r = det->decode(t.h, t.y, t.sigma2);
  EXPECT_EQ(r.indices.size(), 4u);
  EXPECT_EQ(r.indices, t.tx.indices);  // diversity + moderate SNR: exact
}

TEST(Factory, StrategyAndDeviceNamesAreStable) {
  EXPECT_EQ(strategy_name(Strategy::kBestFsGemm), "SD-GEMM-BestFS");
  EXPECT_EQ(strategy_name(Strategy::kGemmBfs), "SD-GEMM-BFS");
  EXPECT_EQ(device_name(TargetDevice::kCpu), "CPU");
  EXPECT_EQ(device_name(TargetDevice::kFpgaOptimized), "FPGA-optimized");
}

TEST(Factory, Fp16FpgaVariantBuildsAndDecodes) {
  const SystemConfig sys{6, 6, Modulation::kQam4};
  DecoderSpec spec;
  spec.device = TargetDevice::kFpgaOptimized;
  spec.fpga_precision = Precision::kFp16;
  auto det = make_detector(sys, spec);
  const Trial t = make_trial(sys, 12.0, 4);
  const DecodeResult r = det->decode(t.h, t.y, t.sigma2);
  EXPECT_EQ(r.indices.size(), 6u);
}

}  // namespace
}  // namespace sd
