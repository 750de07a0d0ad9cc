#include "decode/parallel_sd.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/error.hpp"
#include "decode/channel_prep.hpp"
#include "decode/ml.hpp"
#include "decode/sd_dfs.hpp"
#include "decode/sd_gemm.hpp"
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

class ThreadCounts : public ::testing::TestWithParam<unsigned> {};

TEST_P(ThreadCounts, MatchesMlForAnyPoolSize) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  ParallelSdOptions opts;
  opts.num_threads = GetParam();
  ParallelSdDetector par(c, opts);
  MlDetector ml(c);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Trial t = make_trial(5, Modulation::kQam4, 6.0, seed);
    EXPECT_EQ(par.decode(t.h, t.y, t.sigma2).indices,
              ml.decode(t.h, t.y, t.sigma2).indices)
        << "threads=" << GetParam() << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Pools, ThreadCounts, ::testing::Values(1u, 2u, 4u, 8u));

TEST(ParallelSd, DeeperSplitStillExact) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  ParallelSdOptions opts;
  opts.num_threads = 3;
  opts.split_depth = 2;  // 16 sub-trees
  ParallelSdDetector par(c, opts);
  MlDetector ml(c);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Trial t = make_trial(5, Modulation::kQam4, 8.0, seed);
    EXPECT_EQ(par.decode(t.h, t.y, t.sigma2).indices,
              ml.decode(t.h, t.y, t.sigma2).indices);
  }
}

TEST(ParallelSd, SharedRadiusPrunesAcrossSubtrees) {
  // With best-first dispatch, later sub-trees should be pruned near-wholesale
  // by the radius published from the first: total expansions must stay well
  // under a per-subtree independent bound (P subtrees x full independent SD).
  const Constellation& c = Constellation::get(Modulation::kQam4);
  ParallelSdOptions opts;
  opts.num_threads = 1;  // deterministic schedule
  ParallelSdDetector par(c, opts);
  SdDfsDetector dfs(c);
  double par_nodes = 0, dfs_nodes = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Trial t = make_trial(8, Modulation::kQam4, 10.0, seed);
    par_nodes += static_cast<double>(
        par.decode(t.h, t.y, t.sigma2).stats.nodes_expanded);
    dfs_nodes += static_cast<double>(
        dfs.decode(t.h, t.y, t.sigma2).stats.nodes_expanded);
  }
  // Sub-tree partitioning loses some pruning context; allow 3x but not the
  // 4x full-replication blowup.
  EXPECT_LT(par_nodes, 3.0 * dfs_nodes);
}

TEST(ParallelSd, MetricMatchesResidual) {
  const Constellation& c = Constellation::get(Modulation::kQam16);
  ParallelSdOptions opts;
  opts.num_threads = 2;
  ParallelSdDetector par(c, opts);
  const Trial t = make_trial(5, Modulation::kQam16, 8.0, 2);
  const DecodeResult r = par.decode(t.h, t.y, t.sigma2);
  EXPECT_NEAR(r.metric, residual_metric(t.h, t.y, r.symbols),
              1e-2 * (1 + r.metric));
}

// The serving runtime clones one detector per worker and treats the clones
// as interchangeable: the decoded indices (and hence the metric) must not
// depend on the pool size, including on systems too large for the ML oracle.
TEST(ParallelSd, ResultsInvariantToNumThreads) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Trial t = make_trial(8, Modulation::kQam4, 8.0, seed);
    ParallelSdOptions base;
    base.num_threads = 1;
    ParallelSdDetector reference(c, base);
    const DecodeResult expect = reference.decode(t.h, t.y, t.sigma2);
    for (unsigned threads : {2u, 8u}) {
      ParallelSdOptions opts;
      opts.num_threads = threads;
      ParallelSdDetector par(c, opts);
      const DecodeResult got = par.decode(t.h, t.y, t.sigma2);
      EXPECT_EQ(got.indices, expect.indices)
          << "threads=" << threads << " seed=" << seed;
      EXPECT_NEAR(got.metric, expect.metric, 1e-9 * (1.0 + expect.metric))
          << "threads=" << threads << " seed=" << seed;
    }
  }
}

// Regression companion to the shrink-safety audit at the radius-publication
// site in parallel_sd.cpp: with many workers racing to publish leaves on a
// wide low-SNR tree, the lock-free CAS-min may only tighten the frame's
// radius, so the decode stays exact. Runs under the TSan CI job (name
// matches its -R filter), which additionally proves the publication is
// race-free.
TEST(ParallelSd, RadiusPublicationUnderContention) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  ParallelSdOptions contended;
  contended.num_threads = 8;
  contended.split_depth = 2;  // 16 sub-trees over 8 threads
  ParallelSdDetector par(c, contended);
  ParallelSdOptions sequential;
  sequential.num_threads = 1;
  ParallelSdDetector seq(c, sequential);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    // SNR 2 dB: the sphere stays wide, so many sub-trees reach leaves and
    // the radius is republished repeatedly while other workers prune on it.
    const Trial t = make_trial(7, Modulation::kQam4, 2.0, seed);
    const DecodeResult got = par.decode(t.h, t.y, t.sigma2);
    const DecodeResult expect = seq.decode(t.h, t.y, t.sigma2);
    EXPECT_EQ(got.indices, expect.indices) << "seed=" << seed;
    EXPECT_DOUBLE_EQ(got.metric, expect.metric) << "seed=" << seed;
    EXPECT_GE(got.stats.radius_updates, 1u) << "seed=" << seed;
  }
}

// ---- wide fused decode (DESIGN.md §16) ------------------------------------

// decode_wide partitions EVERY frame's sub-trees into one global unit list,
// interleaved round-robin in best-first rank order, and assigns unit j to
// worker j mod W statically. Per-frame radii shrink via a publication-only
// CAS-min and the per-worker bests are reduced in worker order after the
// join, so which leaf wins never depends on thread timing: indices, symbols
// and metric must be bit-identical to sequential decode_with() for any W.
// (Work counters are schedule-dependent — a frame's radius tightens while
// interleaved with other frames' sub-trees — and deliberately not pinned.)
TEST(ParallelSd, WideDecodeMatchesSequentialForAnyWorkerCount) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  constexpr usize kWidth = 5;
  ParallelSdOptions seq_opts;
  seq_opts.num_threads = 1;
  ParallelSdDetector seq(c, seq_opts);

  // Mixed channels and SNRs: the 2 dB frames keep their spheres wide, so
  // their radii are republished repeatedly while other frames' units run.
  std::vector<Trial> trials;
  std::vector<std::shared_ptr<const PreprocessedChannel>> preps;
  for (usize i = 0; i < kWidth; ++i) {
    trials.push_back(
        make_trial(7, Modulation::kQam4, i % 2 == 0 ? 8.0 : 2.0, 100 + i));
    preps.push_back(seq.preprocess(ChannelHandle(trials[i].h)));
  }
  std::vector<DecodeResult> expect(kWidth);
  for (usize i = 0; i < kWidth; ++i) {
    seq.decode_with(*preps[i], trials[i].y, trials[i].sigma2, expect[i]);
  }

  for (unsigned threads : {1u, 2u, 4u}) {
    ParallelSdOptions opts;
    opts.num_threads = threads;
    ParallelSdDetector wide(c, opts);
    std::vector<DecodeResult> got(kWidth);
    std::vector<Detector::WideItem> items;
    for (usize i = 0; i < kWidth; ++i) {
      items.push_back(
          {preps[i].get(), trials[i].y, trials[i].sigma2, &got[i]});
    }
    wide.decode_wide(items);
    for (usize i = 0; i < kWidth; ++i) {
      EXPECT_EQ(got[i].indices, expect[i].indices)
          << "threads=" << threads << " frame=" << i;
      ASSERT_EQ(got[i].symbols.size(), expect[i].symbols.size());
      for (usize k = 0; k < expect[i].symbols.size(); ++k) {
        EXPECT_EQ(got[i].symbols[k], expect[i].symbols[k])
            << "threads=" << threads << " frame=" << i << " symbol=" << k;
      }
      EXPECT_EQ(got[i].metric, expect[i].metric)
          << "threads=" << threads << " frame=" << i;
      EXPECT_EQ(got[i].stats.tree_levels, expect[i].stats.tree_levels);
    }
  }
}

/// A one-frame wide batch and a sequential decode_with of the same frame.
void decode_one_frame_both_ways(unsigned threads, DecodeResult& expect,
                                DecodeResult& got) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  ParallelSdOptions opts;
  opts.num_threads = threads;
  ParallelSdDetector seq(c, opts);
  ParallelSdDetector wide(c, opts);
  const Trial t = make_trial(6, Modulation::kQam4, 8.0, 11);
  auto prep = seq.preprocess(ChannelHandle(t.h));
  seq.decode_with(*prep, t.y, t.sigma2, expect);
  std::vector<Detector::WideItem> items{{prep.get(), t.y, t.sigma2, &got}};
  wide.decode_wide(items);
}

TEST(ParallelSd, WideDecodeSingleItemFallsBackToSequential) {
  // A one-frame wide batch takes the decode_with path verbatim. With one
  // worker the search is deterministic, so even the work counters match.
  DecodeResult expect;
  DecodeResult got;
  decode_one_frame_both_ways(1, expect, got);
  EXPECT_EQ(got.indices, expect.indices);
  EXPECT_EQ(got.metric, expect.metric);
  EXPECT_EQ(got.stats.nodes_expanded, expect.stats.nodes_expanded);
  EXPECT_EQ(got.stats.nodes_generated, expect.stats.nodes_generated);
  EXPECT_EQ(got.stats.nodes_pruned, expect.stats.nodes_pruned);
  EXPECT_EQ(got.stats.leaves_reached, expect.stats.leaves_reached);
  EXPECT_EQ(got.stats.radius_updates, expect.stats.radius_updates);
}

TEST(ParallelSd, WideDecodeSingleItemMatchesSequentialAnswerWithTwoWorkers) {
  // Two workers share the radius, so how much each prunes depends on thread
  // timing; the answer does not.
  DecodeResult expect;
  DecodeResult got;
  decode_one_frame_both_ways(2, expect, got);
  EXPECT_EQ(got.indices, expect.indices);
  EXPECT_EQ(got.metric, expect.metric);
}

TEST(ParallelSd, RejectsBadSplitDepth) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  ParallelSdOptions opts;
  opts.split_depth = 0;
  EXPECT_THROW(ParallelSdDetector(c, opts), invalid_argument_error);
}

TEST(ParallelSd, RefusesAFiniteInitialRadius) {
  // The sub-trees start unbounded; a noise-scaled policy used to be
  // rewritten to the unbounded one without a word.
  const Constellation& c = Constellation::get(Modulation::kQam4);
  ParallelSdOptions opts;
  opts.base.radius_policy = RadiusPolicy::kNoiseScaled;
  EXPECT_THROW(ParallelSdDetector(c, opts), invalid_argument_error);
}

TEST(ParallelSd, NodeBudgetHoldsPerWorkerAndFrame) {
  // One worker, split 1, an 8-level tree: the partition expands the root,
  // then the first sub-tree stops at the fourth expansion, before any
  // leaf, and the remaining sub-trees are skipped. The Babai point answers.
  const Constellation& c = Constellation::get(Modulation::kQam4);
  ParallelSdOptions opts;
  opts.num_threads = 1;
  opts.base.max_nodes = 4;
  ParallelSdDetector par(c, opts);
  // Best-FS out of budget after the root answers with the same Babai point.
  SdOptions one_expansion;
  one_expansion.max_nodes = 1;
  SdGemmDetector babai(c, one_expansion);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Trial t = make_trial(8, Modulation::kQam4, 8.0, seed);
    const DecodeResult r = par.decode(t.h, t.y, t.sigma2);
    EXPECT_TRUE(r.stats.node_budget_hit) << "seed=" << seed;
    EXPECT_EQ(r.stats.nodes_expanded, 1u + 4u) << "seed=" << seed;
    EXPECT_EQ(r.stats.leaves_reached, 0u) << "seed=" << seed;
    const DecodeResult want = babai.decode(t.h, t.y, t.sigma2);
    EXPECT_EQ(r.indices, want.indices) << "seed=" << seed;
    EXPECT_EQ(r.metric, want.metric) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace sd
