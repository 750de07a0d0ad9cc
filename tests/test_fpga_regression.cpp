// Cycle-model regression pins: the simulated device times in EXPERIMENTS.md
// derive from these cycle formulas; changing any timing constant moves the
// published numbers and must be a conscious decision.
#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>

#include "fpga/pipeline.hpp"
#include "fpga/power.hpp"
#include "fpga/resources.hpp"
#include "mimo/scenario.hpp"

namespace sd {
namespace {

FpgaRunReport run_fixed(const FpgaConfig& cfg, std::uint64_t seed) {
  ScenarioConfig sc;
  sc.num_tx = cfg.num_tx;
  sc.num_rx = cfg.num_rx;
  sc.modulation = cfg.modulation;
  sc.snr_db = 8.0;
  sc.seed = seed;
  Scenario s(sc);
  const Trial t = s.next();
  FpgaPipeline pipeline(cfg);
  return pipeline.run(preprocess(t.h, t.y, false),
                      Constellation::get(cfg.modulation), t.sigma2);
}

TEST(FpgaRegression, OptimizedCycleCountsPinned) {
  const FpgaRunReport r =
      run_fixed(FpgaConfig::optimized_design(8, 8, Modulation::kQam4), 42);
  // One fixed decode: the traversal and every unit's cycle charge are
  // deterministic functions of the seeded trial.
  EXPECT_EQ(r.result.stats.nodes_expanded, 69u);
  const auto& cyc = r.cycles;
  EXPECT_EQ(cyc.total(), cyc.branch + cyc.prefetch_exposed + cyc.gemm +
                             cyc.norm + cyc.sort + cyc.mst + cyc.radius);
  // Per-expansion averages stay inside the structural envelope:
  // branch = setup(4) + P(4) cycles exactly.
  EXPECT_EQ(cyc.branch, r.result.stats.nodes_expanded * 8);
  // GEMM: one tile per expansion, (k + fill) cycles with k <= 8, fill 12.
  EXPECT_GE(cyc.gemm, r.result.stats.nodes_expanded * (1 + 12));
  EXPECT_LE(cyc.gemm, r.result.stats.nodes_expanded * (8 + 12));
  // Sort: bitonic over 4 elements = 3 stages x 2 + 4 streaming = 10.
  EXPECT_EQ(cyc.sort, r.result.stats.nodes_expanded * 10);
}

TEST(FpgaRegression, BaselineChargesStalledMacChain) {
  const FpgaConfig cfg = FpgaConfig::baseline(8, 8, Modulation::kQam4);
  const FpgaRunReport r = run_fixed(cfg, 42);
  // Same traversal as optimized (seed 42): 69 expansions.
  EXPECT_EQ(r.result.stats.nodes_expanded, 69u);
  // Row evaluation on the 1x1 chain: 1*P*k*mac_ii + fill per expansion,
  // k in [1, 8], mac_ii = 6, fill = 8.
  EXPECT_GE(r.cycles.gemm, 69u * (4 * 1 * 6 + 8));
  EXPECT_LE(r.cycles.gemm, 69u * (4 * 8 * 6 + 8));
  // No prefetch overlap: every staging fetch fully exposed.
  const FpgaRunReport opt =
      run_fixed(FpgaConfig::optimized_design(8, 8, Modulation::kQam4), 42);
  EXPECT_GT(r.cycles.prefetch_exposed, opt.cycles.prefetch_exposed);
}

TEST(FpgaRegression, ClockAndTransferArithmetic) {
  const FpgaConfig cfg = FpgaConfig::optimized_design(8, 8, Modulation::kQam4);
  const FpgaRunReport r = run_fixed(cfg, 7);
  EXPECT_NEAR(r.compute_seconds,
              static_cast<double>(r.cycles.total()) / 300e6, 1e-15);
  EXPECT_NEAR(r.total_seconds, r.compute_seconds + r.transfer_seconds, 1e-15);
  // Transfer = DMA latency + staged bytes at the PCIe rate.
  EXPECT_GT(r.transfer_seconds, cfg.pcie_latency_s);
  EXPECT_LT(r.transfer_seconds, cfg.pcie_latency_s + 1e-6);
}

TEST(FpgaRegression, ResourceModelValuesPinned) {
  const auto opt4 =
      estimate_resources(FpgaConfig::optimized_design(10, 10, Modulation::kQam4));
  EXPECT_DOUBLE_EQ(opt4.luts, 65'000 + 10'000 * 4 + 600 * 32);
  EXPECT_DOUBLE_EQ(opt4.dsps, 20 + 4 * 4 + 5 * 32);
  EXPECT_DOUBLE_EQ(opt4.urams, 52 + 0.92 * 16);
  const auto base16 =
      estimate_resources(FpgaConfig::baseline(10, 10, Modulation::kQam16));
  EXPECT_DOUBLE_EQ(base16.luts, 287'000 + 22'800 * 16);
  EXPECT_DOUBLE_EQ(base16.urams, 104 + 1.84 * 256);
}

TEST(FpgaRegression, PowerModelValuesPinned) {
  EXPECT_NEAR(
      fpga_power_watts(FpgaConfig::optimized_design(10, 10, Modulation::kQam4)),
      8.03, 0.05);
  EXPECT_NEAR(
      fpga_power_watts(FpgaConfig::optimized_design(20, 20, Modulation::kQam4)),
      11.07, 0.05);
}

// ---- Pinned model fingerprints ---------------------------------------------
//
// Each case runs the pipeline model over a seeded frame set and folds every
// output bit the model determines into one 64-bit FNV-1a hash: the detected
// indices, the metric's bits, every DecodeStats counter, every
// CycleBreakdown field, the MST and memory gauges, and the bits of the
// modelled seconds. The grid spans both design points, the three datapath
// precisions, 4/16/64-QAM at 4/8/14 dB and the infinite and noise-scaled
// radius, plus node-budget and zero-noise cases. The hashes were recorded
// from the model that kept a Meta State Table of the search tree, so any
// restructuring of the model must reproduce it bit for bit.
//
// To re-derive a constant after an intentional behaviour change, run the
// suite and copy the "got" values from the failure messages.

/// FNV-1a over the bytes of 64-bit words.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

void fold(Fnv& f, const FpgaRunReport& r) {
  f.add(static_cast<std::uint64_t>(r.result.indices.size()));
  for (index_t idx : r.result.indices) f.add(static_cast<std::uint64_t>(idx));
  f.add(r.result.metric);
  const DecodeStats& s = r.result.stats;
  for (std::uint64_t v :
       {s.nodes_expanded, s.nodes_generated, s.nodes_pruned, s.leaves_reached,
        s.radius_updates, s.gemm_calls, s.flops, s.sort_ops, s.bytes_touched,
        s.tree_levels, s.peak_list_size, s.quant_saturations,
        s.quant_overflows, s.quant_requants, s.quant_fallbacks,
        s.radius_fallbacks, s.neumann_terms, s.neumann_exact_solves,
        s.neumann_fallbacks}) {
    f.add(v);
  }
  f.add(std::uint64_t{s.node_budget_hit ? 1u : 0u});
  const CycleBreakdown& c = r.cycles;
  for (std::uint64_t v : {c.branch, c.prefetch_exposed, c.gemm, c.norm, c.sort,
                          c.mst, c.radius}) {
    f.add(v);
  }
  f.add(static_cast<std::uint64_t>(r.mst_peak_nodes));
  f.add(std::uint64_t{r.mst_overflow ? 1u : 0u});
  f.add(r.hbm_bytes);
  f.add(r.uram_bytes_written);
  f.add(r.transfer_seconds);
  f.add(r.compute_seconds);
  f.add(r.total_seconds);
}

constexpr double kInf = std::numeric_limits<double>::infinity();

struct GridCase {
  bool optimized;
  Precision precision;
  Modulation mod;
  index_t m;
  double snr_db;
  double alpha;           ///< kInf = the paper's unbounded radius
  std::uint64_t max_nodes;  ///< 0 = no node budget
  bool zero_sigma2;       ///< run with sigma2 = 0 (radius fallback)
  std::uint64_t hash;
};

constexpr usize kGridFrames = 16;

std::uint64_t grid_hash(const GridCase& cs) {
  ScenarioConfig sc;
  sc.num_tx = cs.m;
  sc.num_rx = cs.m;
  sc.modulation = cs.mod;
  sc.snr_db = cs.snr_db;
  sc.seed = 31000 + static_cast<std::uint64_t>(cs.m);
  Scenario scenario(sc);
  FpgaConfig cfg = cs.optimized
                       ? FpgaConfig::optimized_design(cs.m, cs.m, cs.mod)
                       : FpgaConfig::baseline(cs.m, cs.m, cs.mod);
  cfg.precision = cs.precision;
  SdOptions opts;
  if (cs.alpha != kInf) {
    opts.radius_policy = RadiusPolicy::kNoiseScaled;
    opts.radius_alpha = cs.alpha;
  }
  if (cs.max_nodes != 0) opts.max_nodes = cs.max_nodes;
  // One pipeline for the whole set: every run must start from clean state.
  FpgaPipeline pipeline(cfg);
  const Constellation& c = Constellation::get(cs.mod);
  Fnv f;
  for (usize i = 0; i < kGridFrames; ++i) {
    const Trial t = scenario.next();
    const double sigma2 = cs.zero_sigma2 ? 0.0 : t.sigma2;
    fold(f, pipeline.run(preprocess(t.h, t.y, false), c, sigma2, opts));
  }
  return f.h;
}

std::string grid_label(const GridCase& cs) {
  static constexpr const char* kPrecision[] = {"fp32", "fp16", "int16"};
  std::string name =
      std::string(cs.optimized ? "opt_" : "base_") +
      kPrecision[static_cast<int>(cs.precision)] + "_" +
      std::string(modulation_name(cs.mod)) + "_m" + std::to_string(cs.m) +
      "_" + std::to_string(static_cast<int>(cs.snr_db)) + "dB_alpha" +
      (cs.alpha == kInf ? std::string("inf")
                        : std::to_string(static_cast<int>(cs.alpha)));
  if (cs.max_nodes != 0) name += "_maxnodes" + std::to_string(cs.max_nodes);
  if (cs.zero_sigma2) name += "_sigma0";
  for (char& ch : name) {
    if (std::isalnum(static_cast<unsigned char>(ch)) == 0) ch = '_';
  }
  return name;
}

// gtest prints a failing parameter with this instead of its raw bytes.
void PrintTo(const GridCase& cs, std::ostream* os) { *os << grid_label(cs); }

std::string grid_name(const ::testing::TestParamInfo<GridCase>& info) {
  return grid_label(info.param);
}

class FpgaRegressionGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(FpgaRegressionGrid, ModelMatchesPinnedHash) {
  const GridCase& cs = GetParam();
  const std::uint64_t got = grid_hash(cs);
  EXPECT_EQ(got, cs.hash) << grid_label(cs) << " got 0x" << std::hex << got;
}

// clang-format off
const GridCase kGrid[] = {
    {true, Precision::kFp32, Modulation::kQam4, 8, 4.0, kInf, 0, false, 0x639e67da24cb3c3bull},
    {true, Precision::kFp32, Modulation::kQam4, 8, 4.0, 2.0, 0, false, 0xd22f467d6b2afebaull},
    {true, Precision::kFp32, Modulation::kQam4, 8, 8.0, kInf, 0, false, 0xaf30207ad576926eull},
    {true, Precision::kFp32, Modulation::kQam4, 8, 8.0, 2.0, 0, false, 0x9ba0d8ea4b2efff9ull},
    {true, Precision::kFp32, Modulation::kQam4, 8, 14.0, kInf, 0, false, 0x6881cadf8d3ee238ull},
    {true, Precision::kFp32, Modulation::kQam4, 8, 14.0, 2.0, 0, false, 0x1188cbb09bdd916full},
    {true, Precision::kFp32, Modulation::kQam16, 4, 4.0, kInf, 0, false, 0xce5368b2b7158705ull},
    {true, Precision::kFp32, Modulation::kQam16, 4, 4.0, 2.0, 0, false, 0x6a84e065a4a63fb6ull},
    {true, Precision::kFp32, Modulation::kQam16, 4, 8.0, kInf, 0, false, 0x32b20f3aec9c1981ull},
    {true, Precision::kFp32, Modulation::kQam16, 4, 8.0, 2.0, 0, false, 0x761595ffe29fa7c4ull},
    {true, Precision::kFp32, Modulation::kQam16, 4, 14.0, kInf, 0, false, 0x61a2c5c24f7c1d6aull},
    {true, Precision::kFp32, Modulation::kQam16, 4, 14.0, 2.0, 0, false, 0x11aaafa065ceebe9ull},
    {true, Precision::kFp32, Modulation::kQam64, 3, 4.0, kInf, 0, false, 0x97dd81fedab5d3eull},
    {true, Precision::kFp32, Modulation::kQam64, 3, 4.0, 2.0, 0, false, 0x8a3ec3c124a06b92ull},
    {true, Precision::kFp32, Modulation::kQam64, 3, 8.0, kInf, 0, false, 0x817aa44d85fc1a2eull},
    {true, Precision::kFp32, Modulation::kQam64, 3, 8.0, 2.0, 0, false, 0xeca309701e54dd9full},
    {true, Precision::kFp32, Modulation::kQam64, 3, 14.0, kInf, 0, false, 0x44486409627582eeull},
    {true, Precision::kFp32, Modulation::kQam64, 3, 14.0, 2.0, 0, false, 0x7e6eb692111ec28eull},
    {true, Precision::kFp16, Modulation::kQam4, 8, 4.0, kInf, 0, false, 0xbb08ec885545c2c7ull},
    {true, Precision::kFp16, Modulation::kQam4, 8, 4.0, 2.0, 0, false, 0x2b11d505eea8998cull},
    {true, Precision::kFp16, Modulation::kQam4, 8, 8.0, kInf, 0, false, 0x5753970e4fe20076ull},
    {true, Precision::kFp16, Modulation::kQam4, 8, 8.0, 2.0, 0, false, 0x1aab9ab9fed91f5ull},
    {true, Precision::kFp16, Modulation::kQam4, 8, 14.0, kInf, 0, false, 0x22abab2d4b1a37cfull},
    {true, Precision::kFp16, Modulation::kQam4, 8, 14.0, 2.0, 0, false, 0x6aa518d8c93b364cull},
    {true, Precision::kFp16, Modulation::kQam16, 4, 4.0, kInf, 0, false, 0x59e67b1a9bb6f12bull},
    {true, Precision::kFp16, Modulation::kQam16, 4, 4.0, 2.0, 0, false, 0x6067b6e127e1c094ull},
    {true, Precision::kFp16, Modulation::kQam16, 4, 8.0, kInf, 0, false, 0xb620ca5622a1820eull},
    {true, Precision::kFp16, Modulation::kQam16, 4, 8.0, 2.0, 0, false, 0x64a466d0873209ull},
    {true, Precision::kFp16, Modulation::kQam16, 4, 14.0, kInf, 0, false, 0x751e6347cfbc4ea2ull},
    {true, Precision::kFp16, Modulation::kQam16, 4, 14.0, 2.0, 0, false, 0x9879e4aedbc9387dull},
    {true, Precision::kFp16, Modulation::kQam64, 3, 4.0, kInf, 0, false, 0xef3235998c53843ull},
    {true, Precision::kFp16, Modulation::kQam64, 3, 4.0, 2.0, 0, false, 0x71482dbdce2143c3ull},
    {true, Precision::kFp16, Modulation::kQam64, 3, 8.0, kInf, 0, false, 0x77f5cf516d249cccull},
    {true, Precision::kFp16, Modulation::kQam64, 3, 8.0, 2.0, 0, false, 0x996479fbf8a11e86ull},
    {true, Precision::kFp16, Modulation::kQam64, 3, 14.0, kInf, 0, false, 0x8ef1b2a656141d59ull},
    {true, Precision::kFp16, Modulation::kQam64, 3, 14.0, 2.0, 0, false, 0xc9fe567eb24ca126ull},
    {true, Precision::kInt16, Modulation::kQam4, 8, 4.0, kInf, 0, false, 0x63ce68654039e47eull},
    {true, Precision::kInt16, Modulation::kQam4, 8, 4.0, 2.0, 0, false, 0x6ee6723940329b70ull},
    {true, Precision::kInt16, Modulation::kQam4, 8, 8.0, kInf, 0, false, 0x74bc2aebd7da192eull},
    {true, Precision::kInt16, Modulation::kQam4, 8, 8.0, 2.0, 0, false, 0x9a95294df5474822ull},
    {true, Precision::kInt16, Modulation::kQam4, 8, 14.0, kInf, 0, false, 0xc0f6f8842e5837b4ull},
    {true, Precision::kInt16, Modulation::kQam4, 8, 14.0, 2.0, 0, false, 0x255363ce904a5b9cull},
    {true, Precision::kInt16, Modulation::kQam16, 4, 4.0, kInf, 0, false, 0xdff9b2c274ab2d6eull},
    {true, Precision::kInt16, Modulation::kQam16, 4, 4.0, 2.0, 0, false, 0xcdd6fac98ba89c30ull},
    {true, Precision::kInt16, Modulation::kQam16, 4, 8.0, kInf, 0, false, 0xe366612a8ae405a9ull},
    {true, Precision::kInt16, Modulation::kQam16, 4, 8.0, 2.0, 0, false, 0x3cad5b681bbac98aull},
    {true, Precision::kInt16, Modulation::kQam16, 4, 14.0, kInf, 0, false, 0x9820816fcbdb41b4ull},
    {true, Precision::kInt16, Modulation::kQam16, 4, 14.0, 2.0, 0, false, 0xdb3d798cc6b4c160ull},
    {true, Precision::kInt16, Modulation::kQam64, 3, 4.0, kInf, 0, false, 0x96dc5f1ba3abf4fdull},
    {true, Precision::kInt16, Modulation::kQam64, 3, 4.0, 2.0, 0, false, 0x427379f280c35439ull},
    {true, Precision::kInt16, Modulation::kQam64, 3, 8.0, kInf, 0, false, 0x755a60e8eb9da3e3ull},
    {true, Precision::kInt16, Modulation::kQam64, 3, 8.0, 2.0, 0, false, 0x782c0c65854c3840ull},
    {true, Precision::kInt16, Modulation::kQam64, 3, 14.0, kInf, 0, false, 0x2673f2474db58541ull},
    {true, Precision::kInt16, Modulation::kQam64, 3, 14.0, 2.0, 0, false, 0x11d23ee5d2ba44cull},
    {false, Precision::kFp32, Modulation::kQam4, 8, 4.0, kInf, 0, false, 0xef6e1713de6f3741ull},
    {false, Precision::kFp32, Modulation::kQam4, 8, 4.0, 2.0, 0, false, 0xa583be068ccacb52ull},
    {false, Precision::kFp32, Modulation::kQam4, 8, 8.0, kInf, 0, false, 0x1810f467b8f61696ull},
    {false, Precision::kFp32, Modulation::kQam4, 8, 8.0, 2.0, 0, false, 0x55e89bd994d83dc0ull},
    {false, Precision::kFp32, Modulation::kQam4, 8, 14.0, kInf, 0, false, 0xfc022f9a5e0826c9ull},
    {false, Precision::kFp32, Modulation::kQam4, 8, 14.0, 2.0, 0, false, 0xd95639f655045e78ull},
    {false, Precision::kFp32, Modulation::kQam16, 4, 4.0, kInf, 0, false, 0x78f9598272121051ull},
    {false, Precision::kFp32, Modulation::kQam16, 4, 4.0, 2.0, 0, false, 0xb4ea211d22a21706ull},
    {false, Precision::kFp32, Modulation::kQam16, 4, 8.0, kInf, 0, false, 0x91ec138c14052a62ull},
    {false, Precision::kFp32, Modulation::kQam16, 4, 8.0, 2.0, 0, false, 0xb6b20725250afb50ull},
    {false, Precision::kFp32, Modulation::kQam16, 4, 14.0, kInf, 0, false, 0x1b01c7de8b94136aull},
    {false, Precision::kFp32, Modulation::kQam16, 4, 14.0, 2.0, 0, false, 0x969968a628d055beull},
    {false, Precision::kFp32, Modulation::kQam64, 3, 4.0, kInf, 0, false, 0x82b24d7092bebe43ull},
    {false, Precision::kFp32, Modulation::kQam64, 3, 4.0, 2.0, 0, false, 0x625bf16b234df10bull},
    {false, Precision::kFp32, Modulation::kQam64, 3, 8.0, kInf, 0, false, 0x45c6eb4da4a58c30ull},
    {false, Precision::kFp32, Modulation::kQam64, 3, 8.0, 2.0, 0, false, 0x9c75fbbc3b9c365cull},
    {false, Precision::kFp32, Modulation::kQam64, 3, 14.0, kInf, 0, false, 0x91d66b844eb85498ull},
    {false, Precision::kFp32, Modulation::kQam64, 3, 14.0, 2.0, 0, false, 0xcfeb558369f38600ull},
    {false, Precision::kFp16, Modulation::kQam4, 8, 4.0, kInf, 0, false, 0x41fb9d9e9448df88ull},
    {false, Precision::kFp16, Modulation::kQam4, 8, 4.0, 2.0, 0, false, 0xafe9667baa53bb7aull},
    {false, Precision::kFp16, Modulation::kQam4, 8, 8.0, kInf, 0, false, 0x162213204a64a602ull},
    {false, Precision::kFp16, Modulation::kQam4, 8, 8.0, 2.0, 0, false, 0xa80575eeca4b7628ull},
    {false, Precision::kFp16, Modulation::kQam4, 8, 14.0, kInf, 0, false, 0xb610836daa6f2f52ull},
    {false, Precision::kFp16, Modulation::kQam4, 8, 14.0, 2.0, 0, false, 0x6681f1ddacd25bd3ull},
    {false, Precision::kFp16, Modulation::kQam16, 4, 4.0, kInf, 0, false, 0xd40dfc49d08321f9ull},
    {false, Precision::kFp16, Modulation::kQam16, 4, 4.0, 2.0, 0, false, 0x9f68f782666b8ad0ull},
    {false, Precision::kFp16, Modulation::kQam16, 4, 8.0, kInf, 0, false, 0x9650635df07e35eeull},
    {false, Precision::kFp16, Modulation::kQam16, 4, 8.0, 2.0, 0, false, 0x2459865f162bc5c7ull},
    {false, Precision::kFp16, Modulation::kQam16, 4, 14.0, kInf, 0, false, 0x1a57e7386b526eeull},
    {false, Precision::kFp16, Modulation::kQam16, 4, 14.0, 2.0, 0, false, 0x1aab7dc3b6d2ad9eull},
    {false, Precision::kFp16, Modulation::kQam64, 3, 4.0, kInf, 0, false, 0xee851742b45a2399ull},
    {false, Precision::kFp16, Modulation::kQam64, 3, 4.0, 2.0, 0, false, 0xb207a88e58791390ull},
    {false, Precision::kFp16, Modulation::kQam64, 3, 8.0, kInf, 0, false, 0x95ac52c2096daa80ull},
    {false, Precision::kFp16, Modulation::kQam64, 3, 8.0, 2.0, 0, false, 0x4aa766f74b9b8260ull},
    {false, Precision::kFp16, Modulation::kQam64, 3, 14.0, kInf, 0, false, 0xe10d2f8e55f7a549ull},
    {false, Precision::kFp16, Modulation::kQam64, 3, 14.0, 2.0, 0, false, 0xb99ecd9be6619679ull},
    {false, Precision::kInt16, Modulation::kQam4, 8, 4.0, kInf, 0, false, 0x84878f5c6f1b5d26ull},
    {false, Precision::kInt16, Modulation::kQam4, 8, 4.0, 2.0, 0, false, 0x8447960442629314ull},
    {false, Precision::kInt16, Modulation::kQam4, 8, 8.0, kInf, 0, false, 0xd71c82b8a87e8710ull},
    {false, Precision::kInt16, Modulation::kQam4, 8, 8.0, 2.0, 0, false, 0x3ec8b8d0b9ddea02ull},
    {false, Precision::kInt16, Modulation::kQam4, 8, 14.0, kInf, 0, false, 0xa61b1e8ef553077dull},
    {false, Precision::kInt16, Modulation::kQam4, 8, 14.0, 2.0, 0, false, 0x11c2782f809126adull},
    {false, Precision::kInt16, Modulation::kQam16, 4, 4.0, kInf, 0, false, 0xfe997e053e354000ull},
    {false, Precision::kInt16, Modulation::kQam16, 4, 4.0, 2.0, 0, false, 0x2a67c60986c11670ull},
    {false, Precision::kInt16, Modulation::kQam16, 4, 8.0, kInf, 0, false, 0x995b50b73c792c64ull},
    {false, Precision::kInt16, Modulation::kQam16, 4, 8.0, 2.0, 0, false, 0x7c2c1f956388af1full},
    {false, Precision::kInt16, Modulation::kQam16, 4, 14.0, kInf, 0, false, 0x218650f2f7389772ull},
    {false, Precision::kInt16, Modulation::kQam16, 4, 14.0, 2.0, 0, false, 0x6191c9966ab27e10ull},
    {false, Precision::kInt16, Modulation::kQam64, 3, 4.0, kInf, 0, false, 0xb5912c43e711a443ull},
    {false, Precision::kInt16, Modulation::kQam64, 3, 4.0, 2.0, 0, false, 0x523eade3b9543da6ull},
    {false, Precision::kInt16, Modulation::kQam64, 3, 8.0, kInf, 0, false, 0xd87f0cecc17e3727ull},
    {false, Precision::kInt16, Modulation::kQam64, 3, 8.0, 2.0, 0, false, 0xd8b38ce0dd90f853ull},
    {false, Precision::kInt16, Modulation::kQam64, 3, 14.0, kInf, 0, false, 0xd1ac75c3f05eb243ull},
    {false, Precision::kInt16, Modulation::kQam64, 3, 14.0, 2.0, 0, false, 0xfa4bf8d316ea26bdull},
    {true, Precision::kFp32, Modulation::kQam4, 8, 4.0, kInf, 4, false, 0x6ba6c5f76afa575dull},
    {false, Precision::kFp16, Modulation::kQam16, 4, 4.0, kInf, 4, false, 0x1c8d8d984d55bb1aull},
    {true, Precision::kFp32, Modulation::kQam4, 8, 14.0, 2.0, 0, true, 0x59b4e6faa91d8858ull},
    {false, Precision::kInt16, Modulation::kQam4, 8, 14.0, 2.0, 0, true, 0x9e2039ce2436da0bull},
};
// clang-format on

INSTANTIATE_TEST_SUITE_P(Seeded, FpgaRegressionGrid,
                         ::testing::ValuesIn(kGrid), grid_name);

}  // namespace
}  // namespace sd
