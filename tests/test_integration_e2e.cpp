// End-to-end integration: small-scale versions of the paper's headline
// experiments, run through the public facade exactly as the benches do.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "fpga/fpga_detector.hpp"
#include "fpga/power.hpp"
#include "platform/cpu_model.hpp"
#include "platform/gpu_model.hpp"

namespace sd {
namespace {

TEST(EndToEnd, Fig6ShapeFpgaOptimizedBeatsBaselineAcrossSnr) {
  const SystemConfig sys{8, 8, Modulation::kQam4};
  ExperimentRunner runner(sys, 8, 1);
  DecoderSpec opt_spec;
  opt_spec.device = TargetDevice::kFpgaOptimized;
  DecoderSpec base_spec;
  base_spec.device = TargetDevice::kFpgaBaseline;
  auto opt = make_detector(sys, opt_spec);
  auto base = make_detector(sys, base_spec);
  const std::vector<double> snrs{4.0, 12.0, 20.0};
  const SweepResult r_opt = runner.sweep(*opt, snrs);
  const SweepResult r_base = runner.sweep(*base, snrs);
  for (usize i = 0; i < snrs.size(); ++i) {
    EXPECT_LT(r_opt.points[i].mean_seconds, r_base.points[i].mean_seconds)
        << "SNR " << snrs[i];
  }
  // Decode time falls with SNR for both designs.
  EXPECT_LT(r_opt.points.back().mean_seconds, r_opt.points.front().mean_seconds);
}

TEST(EndToEnd, Fig7ShapeBerBelowThresholdAndFallingWithSnr) {
  // Paper Fig. 7 runs 10x10. Under our per-receive-antenna SNR definition
  // (sigma^2 = M / snr) the exact decoder crosses the paper's 1e-2 BER line
  // at ~10 dB instead of 4 dB — a normalization offset documented in
  // EXPERIMENTS.md. The shape (monotone drop, sub-1e-2 at the crossover) is
  // what this test pins down.
  const SystemConfig sys{10, 10, Modulation::kQam4};
  ExperimentRunner runner(sys, 150, 2);
  auto det = make_detector(sys, DecoderSpec{});
  const SweepPoint p4 = runner.run_point(*det, 4.0);
  const SweepPoint p12 = runner.run_point(*det, 12.0);
  EXPECT_LT(p12.ber, 1e-2);
  EXPECT_LT(p12.ber, p4.ber);
}

TEST(EndToEnd, Fig11ShapeBestFsOrdersOfMagnitudeLessWorkThanBfs) {
  // Fig. 11's regime is low SNR, where BFS's radius-only pruning is weakest
  // relative to the Best-FS radius shrinkage.
  const SystemConfig sys{10, 10, Modulation::kQam4};
  ExperimentRunner runner(sys, 6, 3);
  auto best_fs = make_detector(sys, DecoderSpec{});
  DecoderSpec bfs_spec;
  bfs_spec.strategy = Strategy::kGemmBfs;
  auto bfs = make_detector(sys, bfs_spec);
  const double snr = 4.0;
  const SweepPoint p_best = runner.run_point(*best_fs, snr);
  const SweepPoint p_bfs = runner.run_point(*bfs, snr);
  EXPECT_GT(p_bfs.mean_nodes_generated, 3.0 * p_best.mean_nodes_generated);
  // And the modelled GPU time for BFS exceeds the simulated FPGA time for
  // Best-FS (the Fig. 11 ordering).
  DecoderSpec fpga_spec;
  fpga_spec.device = TargetDevice::kFpgaOptimized;
  auto fpga = make_detector(sys, fpga_spec);
  const SweepPoint p_fpga = runner.run_point(*fpga, snr);
  const SweepPoint p_gpu = runner.run_point(
      *bfs, snr, [](const DecodeResult& r, Detector&) {
        return gpu_decode_seconds(r.stats);
      });
  EXPECT_GT(p_gpu.mean_seconds, p_fpga.mean_seconds);
}

TEST(EndToEnd, TableIIShapeEnergyAdvantage) {
  const SystemConfig sys{8, 8, Modulation::kQam4};
  ExperimentRunner runner(sys, 6, 4);
  DecoderSpec fpga_spec;
  fpga_spec.device = TargetDevice::kFpgaOptimized;
  auto fpga = make_detector(sys, fpga_spec);
  auto cpu = make_detector(sys, DecoderSpec{});
  const SweepPoint p_fpga = runner.run_point(*fpga, 8.0);
  const SweepPoint p_cpu = runner.run_point(*cpu, 8.0);
  const double e_fpga =
      p_fpga.mean_seconds *
      fpga_power_watts(FpgaConfig::optimized_design(8, 8, Modulation::kQam4));
  const double e_cpu =
      p_cpu.mean_seconds * cpu_power_watts(8, Modulation::kQam4);
  EXPECT_LT(e_fpga, e_cpu);
}

TEST(EndToEnd, AllDetectorsAgreeOnBerOrdering) {
  // Exact decoders tie; K-Best with a narrow beam and linear detectors trail.
  const SystemConfig sys{6, 6, Modulation::kQam4};
  ExperimentRunner runner(sys, 200, 5);
  auto exact = make_detector(sys, DecoderSpec{});
  DecoderSpec kbest_spec;
  kbest_spec.strategy = Strategy::kKBest;
  kbest_spec.bfs.max_frontier = 2;
  auto kbest = make_detector(sys, kbest_spec);
  DecoderSpec zf_spec;
  zf_spec.strategy = Strategy::kZf;
  auto zf = make_detector(sys, zf_spec);
  const double snr = 6.0;
  const double ber_exact = runner.run_point(*exact, snr).ber;
  const double ber_kbest = runner.run_point(*kbest, snr).ber;
  const double ber_zf = runner.run_point(*zf, snr).ber;
  EXPECT_LE(ber_exact, ber_kbest);
  EXPECT_LT(ber_exact, ber_zf);
}

TEST(EndToEnd, AntennaScalingIncreasesWork) {
  // §IV-D: more antennas, more decode work for the same SNR.
  ExperimentRunner small(SystemConfig{6, 6, Modulation::kQam4}, 10, 6);
  ExperimentRunner large(SystemConfig{12, 12, Modulation::kQam4}, 10, 6);
  auto det6 = make_detector(SystemConfig{6, 6, Modulation::kQam4}, DecoderSpec{});
  auto det12 =
      make_detector(SystemConfig{12, 12, Modulation::kQam4}, DecoderSpec{});
  EXPECT_GT(large.run_point(*det12, 8.0).mean_nodes_generated,
            small.run_point(*det6, 8.0).mean_nodes_generated);
}

}  // namespace
}  // namespace sd
