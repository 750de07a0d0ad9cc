// The FPGA pipeline simulator must (a) decode exactly like the CPU Best-FS
// decoder — the paper mimics the CPU execution profile in hardware — and
// (b) produce cycle accounting consistent with the design points' structure
// (optimized beats baseline, prefetch hides HBM latency, etc.).
#include "fpga/pipeline.hpp"

#include <gtest/gtest.h>

#include "decode/sd_gemm.hpp"
#include "fpga/fpga_detector.hpp"
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

// The CPU decodes from the channel; its default plain QR is the factorization
// preprocess(h, y, false) hands the pipeline.
TEST(FpgaPipeline, DecodesIdenticallyToCpuBestFs) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  SdGemmDetector cpu(c);
  FpgaPipeline fpga(FpgaConfig::optimized_design(8, 8, Modulation::kQam4));
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Trial t = make_trial(8, Modulation::kQam4, 8.0, seed);
    const Preprocessed pre = preprocess(t.h, t.y, false);
    DecodeResult cpu_result;
    cpu.decode_into(t.h, t.y, t.sigma2, cpu_result);
    const FpgaRunReport report = fpga.run(pre, c, t.sigma2);
    EXPECT_EQ(report.result.indices, cpu_result.indices) << "seed " << seed;
    EXPECT_EQ(report.result.stats.nodes_expanded,
              cpu_result.stats.nodes_expanded);
    EXPECT_EQ(report.result.stats.leaves_reached,
              cpu_result.stats.leaves_reached);
  }
}

TEST(FpgaPipeline, BaselineDecodesIdenticallyToo) {
  const Constellation& c = Constellation::get(Modulation::kQam16);
  SdGemmDetector cpu(c);
  FpgaPipeline fpga(FpgaConfig::baseline(5, 5, Modulation::kQam16));
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Trial t = make_trial(5, Modulation::kQam16, 8.0, seed);
    const Preprocessed pre = preprocess(t.h, t.y, false);
    DecodeResult cpu_result;
    cpu.decode_into(t.h, t.y, t.sigma2, cpu_result);
    const FpgaRunReport report = fpga.run(pre, c, t.sigma2);
    EXPECT_EQ(report.result.indices, cpu_result.indices) << "seed " << seed;
  }
}

TEST(FpgaPipeline, OptimizedFasterThanBaselineOnSameWork) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  FpgaPipeline opt(FpgaConfig::optimized_design(10, 10, Modulation::kQam4));
  FpgaPipeline base(FpgaConfig::baseline(10, 10, Modulation::kQam4));
  double opt_time = 0, base_time = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Trial t = make_trial(10, Modulation::kQam4, 8.0, seed);
    const Preprocessed pre = preprocess(t.h, t.y, false);
    opt_time += opt.run(pre, c, t.sigma2).total_seconds;
    base_time += base.run(pre, c, t.sigma2).total_seconds;
  }
  EXPECT_LT(opt_time * 2.0, base_time);  // at least 2x; paper shows ~3-5x
}

TEST(FpgaPipeline, CycleBreakdownSumsToTotal) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  FpgaPipeline fpga(FpgaConfig::optimized_design(6, 6, Modulation::kQam4));
  const Trial t = make_trial(6, Modulation::kQam4, 8.0, 1);
  const Preprocessed pre = preprocess(t.h, t.y, false);
  const FpgaRunReport r = fpga.run(pre, c, t.sigma2);
  const auto& cyc = r.cycles;
  EXPECT_EQ(cyc.total(), cyc.branch + cyc.prefetch_exposed + cyc.gemm +
                             cyc.norm + cyc.sort + cyc.mst + cyc.radius);
  EXPECT_GT(cyc.gemm, 0u);
  EXPECT_GT(cyc.branch, 0u);
  EXPECT_GT(cyc.sort, 0u);
  EXPECT_NEAR(r.compute_seconds,
              static_cast<double>(cyc.total()) / (300e6), 1e-12);
  EXPECT_GT(r.total_seconds, r.compute_seconds);  // + PCIe staging
}

TEST(FpgaPipeline, PrefetchHidesMemoryInOptimizedDesign) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  FpgaPipeline opt(FpgaConfig::optimized_design(10, 10, Modulation::kQam4));
  FpgaPipeline base(FpgaConfig::baseline(10, 10, Modulation::kQam4));
  const Trial t = make_trial(10, Modulation::kQam4, 8.0, 2);
  const Preprocessed pre = preprocess(t.h, t.y, false);
  const FpgaRunReport r_opt = opt.run(pre, c, t.sigma2);
  const FpgaRunReport r_base = base.run(pre, c, t.sigma2);
  // Same traversal -> same fetch demand, but the optimized design exposes a
  // small fraction of it.
  EXPECT_LT(r_opt.cycles.prefetch_exposed * 2,
            r_base.cycles.prefetch_exposed);
}

TEST(FpgaPipeline, CopyChargesItsOwnHbmBank) {
  // A copied pipeline used to stage its prefetches from the HBM bank of the
  // pipeline it was copied from, and reported hbm_bytes = 0.
  const Constellation& c = Constellation::get(Modulation::kQam4);
  FpgaPipeline source(FpgaConfig::optimized_design(8, 8, Modulation::kQam4));
  FpgaPipeline copy = source;
  const Trial t = make_trial(8, Modulation::kQam4, 8.0, 3);
  const Preprocessed pre = preprocess(t.h, t.y, false);
  const FpgaRunReport from_copy = copy.run(pre, c, t.sigma2);
  const FpgaRunReport from_source = source.run(pre, c, t.sigma2);
  EXPECT_GT(from_source.hbm_bytes, 0u);
  EXPECT_EQ(from_copy.hbm_bytes, from_source.hbm_bytes);
  EXPECT_EQ(from_copy.cycles.prefetch_exposed,
            from_source.cycles.prefetch_exposed);
}

TEST(FpgaPipeline, TransferTimeIsSmallFraction) {
  // The paper: PCIe staging is under 3% of overall execution (measured on
  // their ms-scale decodes). Reproduce that on a comparably heavy decode
  // (15x15 at low SNR); on light decodes the fixed DMA latency may be a
  // somewhat larger share, but never dominant.
  const Constellation& c = Constellation::get(Modulation::kQam4);
  FpgaPipeline heavy(FpgaConfig::optimized_design(15, 15, Modulation::kQam4));
  const Trial t15 = make_trial(15, Modulation::kQam4, 4.0, 3);
  const Preprocessed pre15 = preprocess(t15.h, t15.y, false);
  const FpgaRunReport r15 = heavy.run(pre15, c, t15.sigma2);
  EXPECT_LT(r15.transfer_seconds, 0.03 * r15.total_seconds);

  FpgaPipeline light(FpgaConfig::optimized_design(10, 10, Modulation::kQam4));
  const Trial t10 = make_trial(10, Modulation::kQam4, 4.0, 3);
  const Preprocessed pre10 = preprocess(t10.h, t10.y, false);
  const FpgaRunReport r10 = light.run(pre10, c, t10.sigma2);
  EXPECT_LT(r10.transfer_seconds, 0.25 * r10.total_seconds);
}

TEST(FpgaPipeline, MstPeakTrackedAndNoOverflowAtModerateSize) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  FpgaPipeline fpga(FpgaConfig::optimized_design(8, 8, Modulation::kQam4));
  const Trial t = make_trial(8, Modulation::kQam4, 8.0, 4);
  const Preprocessed pre = preprocess(t.h, t.y, false);
  const FpgaRunReport r = fpga.run(pre, c, t.sigma2);
  EXPECT_GT(r.mst_peak_nodes, 0u);
  EXPECT_FALSE(r.mst_overflow);
}

TEST(FpgaPipeline, TinyMstCapacityReportsOverflow) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  FpgaConfig cfg = FpgaConfig::optimized_design(8, 8, Modulation::kQam4);
  cfg.mst_capacity_per_level = 2;
  FpgaPipeline fpga(cfg);
  const Trial t = make_trial(8, Modulation::kQam4, 4.0, 5);
  const Preprocessed pre = preprocess(t.h, t.y, false);
  EXPECT_TRUE(fpga.run(pre, c, t.sigma2).mst_overflow);
}

TEST(FpgaDetector, DecodeWrapsPipelineWithSimulatedTime) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  FpgaDetector det(c, FpgaConfig::optimized_design(8, 8, Modulation::kQam4));
  SdGemmDetector cpu(c);
  const Trial t = make_trial(8, Modulation::kQam4, 8.0, 6);
  const DecodeResult r = det.decode(t.h, t.y, t.sigma2);
  EXPECT_EQ(r.indices, cpu.decode(t.h, t.y, t.sigma2).indices);
  EXPECT_NEAR(r.stats.search_seconds, det.last_report().total_seconds, 1e-15);
  EXPECT_EQ(det.name(), "FPGA-optimized");
}

TEST(FpgaDetector, RejectsModulationMismatch) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  EXPECT_THROW(
      FpgaDetector(c, FpgaConfig::optimized_design(8, 8, Modulation::kQam16)),
      invalid_argument_error);
}

TEST(FpgaPipeline, SimulatedTimeScalesWithWork) {
  // Low SNR -> more nodes -> more cycles. Averaged over seeds.
  const Constellation& c = Constellation::get(Modulation::kQam4);
  FpgaPipeline fpga(FpgaConfig::optimized_design(10, 10, Modulation::kQam4));
  auto mean_time = [&](double snr) {
    double acc = 0;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const Trial t = make_trial(10, Modulation::kQam4, snr, seed);
      const Preprocessed pre = preprocess(t.h, t.y, false);
      acc += fpga.run(pre, c, t.sigma2).total_seconds;
    }
    return acc / 10;
  };
  EXPECT_LT(mean_time(16.0), mean_time(4.0));
}

}  // namespace
}  // namespace sd
