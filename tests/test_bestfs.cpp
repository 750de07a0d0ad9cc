// Best-FS search loop: one loop for every evaluation form.
//
// SdGemmDetector::search tabulates row 0 of every level's product once per
// search (LevelGemm::kRow0), or multiplies out the paper's full block per
// expansion (LevelGemm::kFull); everything after the child PDs — prune,
// sort, push, leaf update, accounting — is the same code. The row-0 tables
// reproduce the GEMM's row 0 bit for bit, so the two forms must agree on
// every output bit: indices, metric and every DecodeStats counter, across
// alphabets, tree depths (a one-level tree, two levels, the paper's 10 and
// one past a K panel), radius policies and a node budget. Tied PDs keep
// the order the search gave them before it dropped its Meta State Table.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "decode/sd_gemm.hpp"
#include "mimo/scenario.hpp"

namespace sd {
namespace {

void expect_same_bits(const DecodeResult& want, const DecodeResult& got,
                      const std::string& what) {
  EXPECT_EQ(want.indices, got.indices) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want.metric),
            std::bit_cast<std::uint64_t>(got.metric))
      << what;
  const DecodeStats& a = want.stats;
  const DecodeStats& b = got.stats;
  EXPECT_EQ(a.nodes_expanded, b.nodes_expanded) << what;
  EXPECT_EQ(a.nodes_generated, b.nodes_generated) << what;
  EXPECT_EQ(a.nodes_pruned, b.nodes_pruned) << what;
  EXPECT_EQ(a.leaves_reached, b.leaves_reached) << what;
  EXPECT_EQ(a.radius_updates, b.radius_updates) << what;
  EXPECT_EQ(a.gemm_calls, b.gemm_calls) << what;
  EXPECT_EQ(a.flops, b.flops) << what;
  EXPECT_EQ(a.sort_ops, b.sort_ops) << what;
  EXPECT_EQ(a.bytes_touched, b.bytes_touched) << what;
  EXPECT_EQ(a.tree_levels, b.tree_levels) << what;
  EXPECT_EQ(a.peak_list_size, b.peak_list_size) << what;
  EXPECT_EQ(a.radius_fallbacks, b.radius_fallbacks) << what;
  EXPECT_EQ(a.node_budget_hit, b.node_budget_hit) << what;
}

std::vector<Trial> trials(index_t m, Modulation mod, double snr_db,
                          usize count, std::uint64_t seed) {
  ScenarioConfig sc;
  sc.num_tx = m;
  sc.num_rx = m;
  sc.modulation = mod;
  sc.snr_db = snr_db;
  sc.seed = seed;
  Scenario scenario(sc);
  std::vector<Trial> out;
  for (usize i = 0; i < count; ++i) out.push_back(scenario.next());
  return out;
}

/// Decodes every trial with the row-0 tables and with the full block
/// product under `base` and expects identical bits.
void expect_row0_matches_full(const std::vector<Trial>& ts, Modulation mod,
                              SdOptions base, const std::string& what) {
  const Constellation& c = Constellation::get(mod);
  SdOptions full_opts = base;
  full_opts.level_gemm = LevelGemm::kFull;
  SdOptions row0_opts = base;
  row0_opts.level_gemm = LevelGemm::kRow0;
  SdGemmDetector full(c, full_opts);
  SdGemmDetector row0(c, row0_opts);
  DecodeResult want;
  DecodeResult got;
  for (usize i = 0; i < ts.size(); ++i) {
    full.decode_into(ts[i].h, ts[i].y, ts[i].sigma2, want);
    row0.decode_into(ts[i].h, ts[i].y, ts[i].sigma2, got);
    expect_same_bits(want, got, what + " trial " + std::to_string(i));
  }
}

struct Shape {
  Modulation mod;
  double snr_db;  ///< high enough that 64-QAM at m = 10 stays quick
};

TEST(BestFsLoop, Row0TablesMatchFullBlockOnEveryCounter) {
  const Shape shapes[] = {{Modulation::kQam4, 8.0},
                          {Modulation::kQam16, 16.0},
                          {Modulation::kQam64, 28.0}};
  SdOptions noise_scaled;
  noise_scaled.radius_policy = RadiusPolicy::kNoiseScaled;
  noise_scaled.radius_alpha = 1.0;
  SdOptions budget;
  budget.max_nodes = 12;
  const std::pair<const char*, SdOptions> variants[] = {
      {"infinite radius", SdOptions{}},
      {"noise-scaled radius", noise_scaled},
      {"node budget", budget}};
  std::uint64_t seed = 41;
  for (const Shape& shape : shapes) {
    for (const index_t m : {1, 2, 10}) {
      const std::vector<Trial> ts =
          trials(m, shape.mod, shape.snr_db, 6, seed++);
      for (const auto& [name, opts] : variants) {
        expect_row0_matches_full(
            ts, shape.mod, opts,
            std::string(Constellation::get(shape.mod).name()) + " m=" +
                std::to_string(m) + " " + name);
      }
    }
  }
}

TEST(BestFsLoop, Row0TablesMatchFullBlockPastOneKPanel) {
  // 130 levels: the deepest tables span two K panels of the packed GEMM.
  const std::vector<Trial> ts = trials(130, Modulation::kQam4, 30.0, 2, 77);
  expect_row0_matches_full(ts, Modulation::kQam4, SdOptions{}, "4-QAM m=130");
}

TEST(BestFsLoop, TiedPdsKeepTheirRecordedOrder) {
  // H = I and y = 0: every symbol of equal energy gives its child the same
  // PD, so the sort's handling of ties decides which nodes are expanded,
  // which leaf wins and how deep the open list grows. The expected values
  // were recorded from the search when it still kept its nodes in a Meta
  // State Table. 64-QAM's root keeps all 64 children, past the 16 elements
  // at which libstdc++'s std::sort is an insertion sort.
  struct Tie {
    Modulation mod;
    index_t m;
    index_t symbol;  ///< the winning symbol, the same on every antenna
    double metric;
    std::uint64_t expanded;
    std::uint64_t pruned;
    std::uint64_t peak;
    std::uint64_t sort_ops;
  };
  const Tie ties[] = {
      {Modulation::kQam4, 4, 0, 0x1.fffffep+1, 85, 255, 10, 176},
      {Modulation::kQam16, 3, 5, 0x1.333334p-1, 21, 315, 31, 384},
      {Modulation::kQam64, 2, 36, 0x1.861864p-4, 5, 315, 64, 768}};
  for (const Tie& t : ties) {
    const Constellation& c = Constellation::get(t.mod);
    const std::string what =
        std::string(c.name()) + " m=" + std::to_string(t.m);
    CMat h(t.m, t.m);
    for (index_t i = 0; i < t.m; ++i) h(i, i) = cplx{1, 0};
    const CVec y(static_cast<usize>(t.m), cplx{0, 0});
    SdGemmDetector det(c);
    const DecodeResult r = det.decode(h, y, 0.1);
    EXPECT_EQ(r.indices, std::vector<index_t>(static_cast<usize>(t.m),
                                              t.symbol))
        << what;
    EXPECT_EQ(r.metric, t.metric) << what;
    EXPECT_EQ(r.stats.nodes_expanded, t.expanded) << what;
    EXPECT_EQ(r.stats.nodes_pruned, t.pruned) << what;
    EXPECT_EQ(r.stats.leaves_reached, 1u) << what;
    EXPECT_EQ(r.stats.peak_list_size, t.peak) << what;
    EXPECT_EQ(r.stats.sort_ops, t.sort_ops) << what;
  }
}

// 20x20 64-QAM at 30 dB, the 21st frame of Scenario seed 7. Best-FS with
// no node budget (the `sphere` default) does not answer it: the search
// with a Meta State Table threw internal_error from MetaStateTable::insert
// after about 15 s, and the flat search runs on for more than 300 s. A lane
// serving this frame is wedged. Disabled until Best-FS has a per-frame work
// budget (ROADMAP item 2(e)), which should enable this test and pin the
// budget; --gtest_also_run_disabled_tests runs it.
TEST(BestFsLoop, DISABLED_Unbudgeted20x20Qam64FrameAnswers) {
  constexpr index_t kM = 20;
  const Trial t = trials(kM, Modulation::kQam64, 30.0, 21, 7).back();
  SdGemmDetector det(Constellation::get(Modulation::kQam64));
  DecodeResult r;
  det.decode_into(t.h, t.y, t.sigma2, r);
  EXPECT_EQ(r.indices.size(), static_cast<usize>(kM));
  EXPECT_FALSE(r.stats.node_budget_hit);
}

}  // namespace
}  // namespace sd
