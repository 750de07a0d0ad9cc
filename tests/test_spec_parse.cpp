#include "core/spec_parse.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace sd {
namespace {

TEST(SpecParse, PlainNames) {
  EXPECT_EQ(parse_decoder_spec("sphere").strategy, Strategy::kBestFsGemm);
  EXPECT_EQ(parse_decoder_spec("bestfs").strategy, Strategy::kBestFsGemm);
  EXPECT_EQ(parse_decoder_spec("sphere-scalar").strategy,
            Strategy::kBestFsScalar);
  EXPECT_EQ(parse_decoder_spec("dfs").strategy, Strategy::kDfs);
  EXPECT_EQ(parse_decoder_spec("geosphere").strategy, Strategy::kDfs);
  EXPECT_EQ(parse_decoder_spec("bfs").strategy, Strategy::kGemmBfs);
  EXPECT_EQ(parse_decoder_spec("ml").strategy, Strategy::kMl);
  EXPECT_EQ(parse_decoder_spec("zf").strategy, Strategy::kZf);
  EXPECT_EQ(parse_decoder_spec("mmse").strategy, Strategy::kMmse);
  EXPECT_EQ(parse_decoder_spec("mrc").strategy, Strategy::kMrc);
  EXPECT_EQ(parse_decoder_spec("kbest").strategy, Strategy::kKBest);
  EXPECT_EQ(parse_decoder_spec("fsd").strategy, Strategy::kFsd);
  EXPECT_EQ(parse_decoder_spec("multipe").strategy, Strategy::kMultiPe);
  EXPECT_EQ(parse_decoder_spec("mmse-neumann").strategy,
            Strategy::kMmseNeumann);
}

TEST(SpecParse, Devices) {
  EXPECT_EQ(parse_decoder_spec("sphere").device, TargetDevice::kCpu);
  EXPECT_EQ(parse_decoder_spec("sphere@cpu").device, TargetDevice::kCpu);
  EXPECT_EQ(parse_decoder_spec("sphere@fpga").device,
            TargetDevice::kFpgaOptimized);
  EXPECT_EQ(parse_decoder_spec("sphere@fpga-opt").device,
            TargetDevice::kFpgaOptimized);
  EXPECT_EQ(parse_decoder_spec("sphere@fpga-base").device,
            TargetDevice::kFpgaBaseline);
}

TEST(SpecParse, Options) {
  const DecoderSpec kbest = parse_decoder_spec("kbest:k=48");
  EXPECT_EQ(kbest.bfs.max_frontier, 48u);

  const DecoderSpec fsd = parse_decoder_spec("fsd:levels=2");
  EXPECT_EQ(fsd.fsd.full_levels, 2);

  const DecoderSpec mp = parse_decoder_spec("multipe:threads=4,split=2");
  EXPECT_EQ(mp.multi_pe.num_threads, 4u);
  EXPECT_EQ(mp.multi_pe.split_depth, 2);

  const DecoderSpec sorted = parse_decoder_spec("sphere:sorted");
  EXPECT_TRUE(sorted.sd.sorted_qr);

  const DecoderSpec budget = parse_decoder_spec("sphere:max-nodes=5000");
  EXPECT_EQ(budget.sd.max_nodes, 5000u);

  const DecoderSpec fp16 = parse_decoder_spec("sphere@fpga:fp16");
  EXPECT_EQ(fp16.fpga_precision, Precision::kFp16);

  const DecoderSpec bfs = parse_decoder_spec("bfs:frontier=1024");
  EXPECT_EQ(bfs.bfs.max_frontier, 1024u);

  const DecoderSpec i16 = parse_decoder_spec("sphere@fpga:int16");
  EXPECT_EQ(i16.fpga_precision, Precision::kInt16);

  const DecoderSpec neumann = parse_decoder_spec("mmse-neumann:k=2,tol=0.5");
  EXPECT_EQ(neumann.mmse_neumann.k, 2u);
  EXPECT_DOUBLE_EQ(neumann.mmse_neumann.residual_tol, 0.5);

  const DecoderSpec scalar = parse_decoder_spec("sphere:scalar");
  EXPECT_EQ(scalar.strategy, Strategy::kBestFsScalar);

  const DecoderSpec alpha = parse_decoder_spec("sphere:alpha=2");
  EXPECT_EQ(alpha.sd.radius_policy, RadiusPolicy::kNoiseScaled);

  // alpha is a real multiplier.
  const DecoderSpec real_alpha = parse_decoder_spec("sphere:alpha=2.5");
  EXPECT_EQ(real_alpha.sd.radius_policy, RadiusPolicy::kNoiseScaled);
  EXPECT_DOUBLE_EQ(real_alpha.sd.radius_alpha, 2.5);
}

TEST(SpecParse, TreeSearchOptionsReachTheDetectorsOptions) {
  // sorted / alpha= land in the SdOptions the chosen detector reads:
  // spec.sd for Best-FS, DFS and the FPGA model, the base options of BFS and
  // of the parallel sub-tree SD. max-nodes= lands only where a search
  // honours it.
  const DecoderSpec bfs = parse_decoder_spec("bfs:sorted,alpha=2.5");
  EXPECT_TRUE(bfs.bfs.base.sorted_qr);
  EXPECT_EQ(bfs.bfs.base.radius_policy, RadiusPolicy::kNoiseScaled);
  EXPECT_DOUBLE_EQ(bfs.bfs.base.radius_alpha, 2.5);
  EXPECT_FALSE(bfs.sd.sorted_qr);  // untouched: BFS never reads spec.sd
  // The BFS reads no max_nodes.
  EXPECT_THROW((void)parse_decoder_spec("bfs:sorted,alpha=2.5,max-nodes=100"),
               invalid_argument_error);

  const DecoderSpec mp = parse_decoder_spec("multipe:sorted");
  EXPECT_TRUE(mp.multi_pe.base.sorted_qr);
  EXPECT_FALSE(mp.sd.sorted_qr);

  EXPECT_TRUE(parse_decoder_spec("sphere-scalar:sorted").sd.sorted_qr);
  EXPECT_EQ(parse_decoder_spec("dfs:max-nodes=7").sd.max_nodes, 7u);
  EXPECT_DOUBLE_EQ(parse_decoder_spec("sphere@fpga:alpha=3").sd.radius_alpha,
                   3.0);

  // Detectors that read no SdOptions reject the keys instead of ignoring
  // them, and so does any detector a key would not reach: a node budget
  // where the spec serves none, a radius where the search starts unbounded
  // only, an FPGA datapath precision on the CPU.
  for (const char* spec :
       {"zf:sorted", "mmse:alpha=2", "kbest:max-nodes=9", "fsd:sorted",
        "ml:sorted", "mmse-neumann:sorted", "bfs:max-nodes=10",
        "multipe:max-nodes=10", "multipe:threads=2,max-nodes=10",
        "multipe:alpha=2", "multipe:threads=2,alpha=inf",
        "sphere:fp16", "sphere@cpu:int16", "dfs:fp16", "bfs:int16",
        "multipe:fp16", "sphere-scalar:int16"}) {
    EXPECT_THROW((void)parse_decoder_spec(spec), invalid_argument_error)
        << spec;
  }
}

TEST(SpecParse, SphereOnTheCpuStartsFromTheServedOptions) {
  for (const char* text : {"sphere", "bestfs", "sphere@cpu", "bestfs@cpu"}) {
    EXPECT_EQ(parse_decoder_spec(text).sd, kServedBestFs) << text;
  }
  EXPECT_TRUE(kServedBestFs.sorted_qr);
  EXPECT_EQ(kServedBestFs.radius_policy, RadiusPolicy::kNoiseScaled);
  EXPECT_DOUBLE_EQ(kServedBestFs.radius_alpha, 2.0);

  // Explicit keys override the served options one at a time.
  const DecoderSpec budget = parse_decoder_spec("sphere:max-nodes=9");
  EXPECT_EQ(budget.sd.max_nodes, 9u);
  EXPECT_TRUE(budget.sd.sorted_qr);
  EXPECT_EQ(budget.sd.radius_policy, RadiusPolicy::kNoiseScaled);
  const DecoderSpec alpha = parse_decoder_spec("sphere:alpha=3");
  EXPECT_DOUBLE_EQ(alpha.sd.radius_alpha, 3.0);
  EXPECT_TRUE(alpha.sd.sorted_qr);

  // The paper's Best-FS has an explicit spelling, and it is SdOptions{}.
  EXPECT_EQ(parse_decoder_spec("sphere:sorted=0,alpha=inf").sd, SdOptions{});
  EXPECT_EQ(DecoderSpec{}.sd, SdOptions{});

  // Every other name and device keeps the paper's settings.
  for (const char* text : {"sphere@fpga", "sphere@fpga-base", "sphere-scalar",
                           "dfs", "geosphere"}) {
    EXPECT_EQ(parse_decoder_spec(text).sd, SdOptions{}) << text;
  }
  EXPECT_EQ(parse_decoder_spec("multipe").multi_pe.base, SdOptions{});
}

TEST(SpecParse, BfsOnTheCpuStartsFromTheServedOptions) {
  for (const char* text : {"bfs", "bfs@cpu", "bfs:precision=int16",
                           "bfs:precision=fp32", "bfs:frontier=16"}) {
    EXPECT_EQ(parse_decoder_spec(text).bfs.base, kServedBfs) << text;
  }
  EXPECT_TRUE(parse_decoder_spec("bfs:precision=int16").bfs.quantized);
  EXPECT_EQ(parse_decoder_spec("bfs:frontier=16").bfs.max_frontier, 16u);
  EXPECT_TRUE(kServedBfs.sorted_qr);
  EXPECT_EQ(kServedBfs.radius_policy, RadiusPolicy::kBabaiCapped);
  EXPECT_DOUBLE_EQ(kServedBfs.radius_alpha, 2.0);

  // An explicit alpha selects the plain noise (or infinite) radius, so the
  // paper's BFS is spelled sorted=0,alpha=2 and is BfsOptions{}.base.
  EXPECT_EQ(parse_decoder_spec("bfs:sorted=0,alpha=2").bfs.base,
            BfsOptions{}.base);
  const DecoderSpec sorted = parse_decoder_spec("bfs:sorted,alpha=2");
  EXPECT_EQ(sorted.bfs.base.radius_policy, RadiusPolicy::kNoiseScaled);
  EXPECT_TRUE(sorted.bfs.base.sorted_qr);
  EXPECT_EQ(parse_decoder_spec("bfs:alpha=inf").bfs.base.radius_policy,
            RadiusPolicy::kInfinite);
  const DecoderSpec plain = parse_decoder_spec("bfs:sorted=0");
  EXPECT_EQ(plain.bfs.base.radius_policy, RadiusPolicy::kBabaiCapped);
  EXPECT_FALSE(plain.bfs.base.sorted_qr);

  // The FPGA model, K-Best and the options struct keep the paper's settings.
  EXPECT_EQ(parse_decoder_spec("bfs@fpga").sd, SdOptions{});
  EXPECT_EQ(parse_decoder_spec("kbest").bfs.base, kbest_options().base);
  EXPECT_EQ(BfsOptions{}.base.radius_policy, RadiusPolicy::kNoiseScaled);
  EXPECT_FALSE(BfsOptions{}.base.sorted_qr);
}

TEST(SpecParse, SortedTakesAnOptionalBoolean) {
  EXPECT_TRUE(parse_decoder_spec("bfs:sorted").bfs.base.sorted_qr);
  EXPECT_TRUE(parse_decoder_spec("bfs:sorted=1").bfs.base.sorted_qr);
  EXPECT_FALSE(parse_decoder_spec("bfs:sorted=0").bfs.base.sorted_qr);
  EXPECT_FALSE(parse_decoder_spec("sphere:sorted=0").sd.sorted_qr);
  EXPECT_TRUE(parse_decoder_spec("sphere@fpga:sorted=1").sd.sorted_qr);
  for (const char* text : {"sphere:sorted=2", "sphere:sorted=yes",
                           "bfs:sorted=true", "dfs:sorted=-1"}) {
    EXPECT_THROW((void)parse_decoder_spec(text), invalid_argument_error)
        << text;
  }
}

TEST(SpecParse, AlphaIsPositiveOrInf) {
  const DecoderSpec inf = parse_decoder_spec("sphere:alpha=inf");
  EXPECT_EQ(inf.sd.radius_policy, RadiusPolicy::kInfinite);
  EXPECT_TRUE(inf.sd.sorted_qr);
  EXPECT_EQ(parse_decoder_spec("bfs:alpha=inf").bfs.base.radius_policy,
            RadiusPolicy::kInfinite);
  EXPECT_EQ(parse_decoder_spec("dfs:alpha=2,alpha=inf").sd, SdOptions{});
  // A non-positive or NaN multiplier is refused at parse time, not by the
  // first decode on a lane.
  for (const char* text : {"sphere:alpha=0", "sphere:alpha=-1",
                           "sphere:alpha=nan", "sphere:alpha=-inf",
                           "dfs:alpha=0", "bfs:alpha=-0.5",
                           "sphere@fpga:alpha=0"}) {
    EXPECT_THROW((void)parse_decoder_spec(text), invalid_argument_error)
        << text;
  }
}

TEST(SpecParse, QuantPrecisionOption) {
  EXPECT_FALSE(parse_decoder_spec("bfs").bfs.quantized);
  EXPECT_TRUE(parse_decoder_spec("bfs:precision=int16").bfs.quantized);
  EXPECT_FALSE(parse_decoder_spec("bfs:precision=fp32").bfs.quantized);
  EXPECT_FALSE(parse_decoder_spec("bfs:precision=float").bfs.quantized);
  const DecoderSpec combo =
      parse_decoder_spec("bfs:precision=int16,frontier=512");
  EXPECT_TRUE(combo.bfs.quantized);
  EXPECT_EQ(combo.bfs.max_frontier, 512u);
  // precision is a bfs-only option in the spec grammar...
  EXPECT_THROW((void)parse_decoder_spec("sphere:precision=int16"),
               invalid_argument_error);
  EXPECT_THROW((void)parse_decoder_spec("bfs:precision=int8"),
               invalid_argument_error);
}

TEST(SpecParse, QuantApplyPrecisionHelper) {
  // ...and apply_precision is the --precision flag's path to the same state.
  DecoderSpec bfs = parse_decoder_spec("bfs");
  apply_precision(bfs, "int16");
  EXPECT_TRUE(bfs.bfs.quantized);
  EXPECT_EQ(decoder_precision_name(bfs), "int16");
  apply_precision(bfs, "fp32");
  EXPECT_FALSE(bfs.bfs.quantized);
  EXPECT_EQ(decoder_precision_name(bfs), "fp32");

  DecoderSpec sphere = parse_decoder_spec("sphere");
  EXPECT_THROW(apply_precision(sphere, "int16"), invalid_argument_error);
  EXPECT_THROW(apply_precision(sphere, "bf16"), invalid_argument_error);
  apply_precision(sphere, "fp32");  // always a valid no-op
  EXPECT_EQ(decoder_precision_name(sphere), "fp32");

  const SystemConfig sys{4, 4, Modulation::kQam4};
  auto det = make_detector(sys, parse_decoder_spec("bfs:precision=int16"));
  ASSERT_NE(det, nullptr);
  EXPECT_EQ(det->name(), "SD-GEMM-BFS-i16");
}

TEST(SpecParse, CombinedDeviceAndOptions) {
  const DecoderSpec spec =
      parse_decoder_spec("sphere@fpga:sorted,max-nodes=100,fp16");
  EXPECT_EQ(spec.device, TargetDevice::kFpgaOptimized);
  EXPECT_TRUE(spec.sd.sorted_qr);
  EXPECT_EQ(spec.sd.max_nodes, 100u);
  EXPECT_EQ(spec.fpga_precision, Precision::kFp16);
}

TEST(SpecParse, BuildsWorkingDetectors) {
  const SystemConfig sys{4, 4, Modulation::kQam4};
  for (const char* text : {"sphere", "sphere@fpga", "zf", "kbest:k=8",
                           "fsd:levels=1", "mmse-neumann:k=3"}) {
    auto det = make_detector(sys, parse_decoder_spec(text));
    EXPECT_NE(det, nullptr) << text;
  }
}

TEST(SpecParse, Rejections) {
  EXPECT_THROW((void)parse_decoder_spec(""), invalid_argument_error);
  EXPECT_THROW((void)parse_decoder_spec("turbo"), invalid_argument_error);
  EXPECT_THROW((void)parse_decoder_spec("sphere@gpu"), invalid_argument_error);
  EXPECT_THROW((void)parse_decoder_spec("sphere:bogus"), invalid_argument_error);
  EXPECT_THROW((void)parse_decoder_spec("zf:k=4"), invalid_argument_error);
  EXPECT_THROW((void)parse_decoder_spec("kbest:k=abc"), invalid_argument_error);
}

TEST(SpecParse, HelpMentionsEveryFamily) {
  const std::string help(decoder_spec_help());
  for (const char* token : {"sphere", "dfs", "bfs", "zf", "mmse", "kbest",
                            "fsd", "multipe", "mmse-neumann", "int16",
                            "@fpga"}) {
    EXPECT_NE(help.find(token), std::string::npos) << token;
  }
}

}  // namespace
}  // namespace sd
