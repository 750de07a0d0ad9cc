// Coherence-block decoding must be invisible in the bits.
//
// Two equivalences underwrite the whole reuse stack:
//  (1) decode_with(preprocess(H), y) == decode(H, y) for every detector —
//      the cached factorization is the same code on the same bytes, so
//      results AND work counters match exactly. The same holds for
//      decode_into(), for a prep of the wrong kind (decoded from its
//      channel) and for decode_wide() over mixed prep kinds.
//  (2) decode_wide(items sharing prep) == sequential decode_with() per frame —
//      the fused BFS stacks B frames' frontier columns into one level GEMM,
//      and each output column depends only on A and its own B-column, so
//      fusion cannot change any frame's numbers.
// Both are pinned bit-for-bit (EXPECT_EQ on doubles is deliberate) across
// detector variants, GEMM kernels, and batch widths.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/spec_parse.hpp"
#include "decode/linear.hpp"
#include "decode/lr_sic.hpp"
#include "decode/parallel_sd.hpp"
#include "decode/sd_gemm.hpp"
#include "decode/sd_gemm_bfs.hpp"
#include "linalg/gemm.hpp"
#include "test_util.hpp"

namespace sd {
namespace {

constexpr index_t kM = 6;
constexpr double kSigma2 = 0.08;

/// Indices, symbols and metric.
void expect_same_answer(const DecodeResult& a, const DecodeResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.indices, b.indices) << what;
  ASSERT_EQ(a.symbols.size(), b.symbols.size()) << what;
  for (usize i = 0; i < a.symbols.size(); ++i) {
    EXPECT_EQ(a.symbols[i], b.symbols[i]) << what << " symbol " << i;
  }
  EXPECT_EQ(a.metric, b.metric) << what;
}

void expect_bit_identical(const DecodeResult& a, const DecodeResult& b,
                          const std::string& what) {
  expect_same_answer(a, b, what);
  // Every work counter except the measured *_seconds wall times.
  EXPECT_EQ(a.stats.nodes_expanded, b.stats.nodes_expanded) << what;
  EXPECT_EQ(a.stats.nodes_generated, b.stats.nodes_generated) << what;
  EXPECT_EQ(a.stats.nodes_pruned, b.stats.nodes_pruned) << what;
  EXPECT_EQ(a.stats.leaves_reached, b.stats.leaves_reached) << what;
  EXPECT_EQ(a.stats.radius_updates, b.stats.radius_updates) << what;
  EXPECT_EQ(a.stats.gemm_calls, b.stats.gemm_calls) << what;
  EXPECT_EQ(a.stats.flops, b.stats.flops) << what;
  EXPECT_EQ(a.stats.sort_ops, b.stats.sort_ops) << what;
  EXPECT_EQ(a.stats.bytes_touched, b.stats.bytes_touched) << what;
  EXPECT_EQ(a.stats.tree_levels, b.stats.tree_levels) << what;
  EXPECT_EQ(a.stats.peak_list_size, b.stats.peak_list_size) << what;
  EXPECT_EQ(a.stats.quant_saturations, b.stats.quant_saturations) << what;
  EXPECT_EQ(a.stats.quant_overflows, b.stats.quant_overflows) << what;
  EXPECT_EQ(a.stats.quant_requants, b.stats.quant_requants) << what;
  EXPECT_EQ(a.stats.quant_fallbacks, b.stats.quant_fallbacks) << what;
  EXPECT_EQ(a.stats.radius_fallbacks, b.stats.radius_fallbacks) << what;
  EXPECT_EQ(a.stats.neumann_terms, b.stats.neumann_terms) << what;
  EXPECT_EQ(a.stats.neumann_exact_solves, b.stats.neumann_exact_solves)
      << what;
  EXPECT_EQ(a.stats.neumann_fallbacks, b.stats.neumann_fallbacks) << what;
  EXPECT_EQ(a.stats.node_budget_hit, b.stats.node_budget_hit) << what;
}

/// A result left over from some other frame: every decode entry point must
/// overwrite all of it.
DecodeResult dirty_result() {
  DecodeResult r;
  r.indices.assign(9, 3);
  r.symbols.assign(9, cplx{5, -5});
  r.metric = -1.0;
  DecodeStats& s = r.stats;
  s.nodes_expanded = s.nodes_generated = s.nodes_pruned = 11;
  s.leaves_reached = s.radius_updates = s.gemm_calls = s.flops = 12;
  s.sort_ops = s.bytes_touched = s.tree_levels = s.peak_list_size = 13;
  s.quant_saturations = s.quant_overflows = s.quant_requants = 14;
  s.quant_fallbacks = s.radius_fallbacks = 15;
  s.neumann_terms = s.neumann_exact_solves = s.neumann_fallbacks = 16;
  s.node_budget_hit = true;
  return r;
}

// ---- (1) cached prep == one-shot, across the detector zoo -----------------

struct NamedDetector {
  std::string label;
  std::unique_ptr<Detector> det;      // drives decode_with (warm)
  std::unique_ptr<Detector> oneshot;  // drives decode_into (fresh)
  // Several workers share one radius, so the pruning counters depend on
  // thread timing; only the answer is deterministic.
  bool timing_dependent_counters = false;
};

/// One instance of every Detector class, and of each variant of the classes
/// with more than one search or arithmetic path.
std::vector<NamedDetector> detector_zoo() {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  std::vector<NamedDetector> zoo;
  auto add = [&zoo](std::string label, auto make, bool timing = false) {
    zoo.push_back({std::move(label), make(), make(), timing});
  };
  auto add_spec = [&add](std::string spec) {
    add(spec, [spec] {
      return make_detector(SystemConfig{kM, kM, Modulation::kQam4},
                           parse_decoder_spec(spec));
    });
  };
  add("bestfs", [&c] { return std::make_unique<SdGemmDetector>(c); });
  add("bestfs-sorted", [&c] {
    SdOptions o;
    o.sorted_qr = true;
    return std::make_unique<SdGemmDetector>(c, o);
  });
  add("bestfs-scalar", [&c] {
    SdOptions o;
    o.gemm_eval = false;
    return std::make_unique<SdGemmDetector>(c, o);
  });
  add("bestfs-full", [&c] {
    SdOptions o;
    o.level_gemm = LevelGemm::kFull;
    return std::make_unique<SdGemmDetector>(c, o);
  });
  add("bfs", [&c] { return std::make_unique<SdGemmBfsDetector>(c); });
  add("kbest", [&c] {
    return std::make_unique<SdGemmBfsDetector>(c, kbest_options());
  });
  add("zf", [&c] {
    return std::make_unique<LinearDetector>(LinearKind::kZf, c);
  });
  add("multipe", [&c] {
    ParallelSdOptions o;
    o.num_threads = 1;
    return std::make_unique<ParallelSdDetector>(c, o);
  });
  add(
      "multipe-2t",
      [&c] {
        ParallelSdOptions o;
        o.num_threads = 2;
        return std::make_unique<ParallelSdDetector>(c, o);
      },
      true);
  add_spec("mrc");
  add_spec("mmse");
  add_spec("ml");
  add_spec("dfs");
  add_spec("fsd");
  add_spec("mmse-neumann");
  add_spec("bfs:precision=int16");
  add_spec("sphere@fpga");
  add_spec("sphere@fpga-base");
  add("lr-sic", [&c] { return std::make_unique<LrSicDetector>(c); });
  return zoo;
}

/// The detector's own prep.
std::shared_ptr<const PreprocessedChannel> own_prep(
    const Detector& det, const ChannelHandle& channel) {
  return build_channel_prep(channel, det.prep_kind());
}

/// A prep of some kind the detector does not use.
std::shared_ptr<const PreprocessedChannel> foreign_prep(
    const Detector& det, const ChannelHandle& channel) {
  return build_channel_prep(channel, det.prep_kind() == PrepKind::kZf
                                         ? PrepKind::kQrPlain
                                         : PrepKind::kZf);
}

void expect_same_decode(const NamedDetector& nd, const DecodeResult& expect,
                        const DecodeResult& got, const std::string& what) {
  if (nd.timing_dependent_counters) {
    expect_same_answer(expect, got, what);
  } else {
    expect_bit_identical(expect, got, what);
  }
}

TEST(CoherentBatch, CachedPrepMatchesOneShotForEveryDetector) {
  const ChannelHandle channel(testing::random_cmat(kM, kM, 501));
  for (NamedDetector& nd : detector_zoo()) {
    auto prep = own_prep(*nd.det, channel);
    ASSERT_EQ(nd.det->preprocess(channel)->kind, prep->kind) << nd.label;
    auto foreign = foreign_prep(*nd.det, channel);
    ASSERT_NE(foreign->kind, nd.det->prep_kind()) << nd.label;
    // Several frames through one warm detector into reused, dirty results:
    // every entry point must keep matching a one-shot decode().
    DecodeResult into = dirty_result();
    DecodeResult with = dirty_result();
    DecodeResult with_foreign = dirty_result();
    for (std::uint64_t f = 0; f < 4; ++f) {
      const CVec y = testing::random_cvec(kM, 600 + f);
      const DecodeResult expect =
          nd.oneshot->decode(channel.matrix(), y, kSigma2);
      const std::string what = nd.label + " frame " + std::to_string(f);
      nd.det->decode_into(channel.matrix(), y, kSigma2, into);
      expect_same_decode(nd, expect, into, what + " decode_into");
      nd.det->decode_with(*prep, y, kSigma2, with);
      expect_same_decode(nd, expect, with, what + " decode_with");
      nd.det->decode_with(*foreign, y, kSigma2, with_foreign);
      expect_same_decode(nd, expect, with_foreign,
                         what + " decode_with(wrong kind)");
    }

    // One wide call over three channels whose middle frame carries a prep
    // of the wrong kind.
    std::vector<ChannelHandle> channels;
    std::vector<CVec> ys;
    for (usize i = 0; i < 3; ++i) {
      channels.emplace_back(testing::random_cmat(kM, kM, 510 + i));
      ys.push_back(testing::random_cvec(kM, 610 + i));
    }
    const std::shared_ptr<const PreprocessedChannel> preps[3] = {
        own_prep(*nd.det, channels[0]), foreign_prep(*nd.det, channels[1]),
        own_prep(*nd.det, channels[2])};
    std::vector<DecodeResult> got(3, dirty_result());
    std::vector<Detector::WideItem> items;
    for (usize i = 0; i < 3; ++i) {
      items.push_back({preps[i].get(), ys[i], kSigma2, &got[i]});
    }
    nd.det->decode_wide(items);
    for (usize i = 0; i < 3; ++i) {
      const DecodeResult expect =
          nd.oneshot->decode(channels[i].matrix(), ys[i], kSigma2);
      expect_same_decode(nd, expect, got[i],
                         nd.label + " wide frame " + std::to_string(i));
    }
  }
}

TEST(CoherentBatch, MismatchedPrepFallsBackToOneShot) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  const ChannelHandle channel(testing::random_cmat(kM, kM, 71));
  const CVec y = testing::random_cvec(kM, 72);

  // A sorted-QR prep handed to a plain-QR detector must not be trusted.
  SdOptions sorted;
  sorted.sorted_qr = true;
  SdGemmDetector sorted_det(c, sorted);
  auto sorted_prep = sorted_det.preprocess(channel);
  ASSERT_EQ(sorted_prep->kind, PrepKind::kQrSorted);

  SdGemmDetector plain(c);
  DecodeResult via_mismatch;
  plain.decode_with(*sorted_prep, y, kSigma2, via_mismatch);
  SdGemmDetector fresh(c);
  DecodeResult expect;
  fresh.decode_into(channel.matrix(), y, kSigma2, expect);
  expect_bit_identical(expect, via_mismatch, "mismatched prep fallback");
}

// ---- (2) fused == sequential, across widths, variants, kernels ------------

void run_fused_equivalence(const BfsOptions& options, GemmKernel kernel,
                           const std::string& label) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  const GemmKernel saved = gemm_kernel_override();
  set_gemm_kernel_override(kernel);

  const ChannelHandle channel(testing::random_cmat(kM, kM, 900));
  SdGemmBfsDetector seq_det(c, options);
  SdGemmBfsDetector fused_det(c, options);
  auto prep = seq_det.preprocess(channel);

  for (usize width : {usize{1}, usize{2}, usize{4}, usize{8}}) {
    std::vector<CVec> ys;
    for (usize i = 0; i < width; ++i) {
      ys.push_back(testing::random_cvec(kM, 1000 + 16 * width + i));
    }
    std::vector<DecodeResult> expect(width);
    for (usize i = 0; i < width; ++i) {
      seq_det.decode_with(*prep, ys[i], kSigma2, expect[i]);
    }
    std::vector<DecodeResult> got(width);
    std::vector<Detector::WideItem> items;
    for (usize i = 0; i < width; ++i) {
      items.push_back({prep.get(), ys[i], kSigma2, &got[i]});
    }
    fused_det.decode_wide(items);
    for (usize i = 0; i < width; ++i) {
      expect_bit_identical(expect[i], got[i],
                           label + " B=" + std::to_string(width) + " frame " +
                               std::to_string(i));
    }
  }
  set_gemm_kernel_override(saved);
}

TEST(CoherentBatch, FusedBfsMatchesSequential) {
  run_fused_equivalence(BfsOptions{}, GemmKernel::kAuto, "bfs");
}

TEST(CoherentBatch, FusedBfsSortedQrMatchesSequential) {
  BfsOptions o;
  o.base.sorted_qr = true;
  run_fused_equivalence(o, GemmKernel::kAuto, "bfs-sorted");
}

TEST(CoherentBatch, FusedBfsScalarKernelMatchesSequential) {
  run_fused_equivalence(BfsOptions{}, GemmKernel::kScalar, "bfs-scalar-kernel");
}

TEST(CoherentBatch, FusedBfsSoaKernelMatchesSequential) {
  if (!gemm_soa_available()) {
    GTEST_SKIP() << "SoA SIMD kernel not available on this host";
  }
  run_fused_equivalence(BfsOptions{}, GemmKernel::kSoa, "bfs-soa-kernel");
}

TEST(CoherentBatch, BaseBatchLoopsDecodeWith) {
  // Detectors without a fused override get the base loop — same contract.
  const Constellation& c = Constellation::get(Modulation::kQam4);
  SdGemmBfsDetector seq(c, kbest_options());
  SdGemmBfsDetector batched(c, kbest_options());
  const ChannelHandle channel(testing::random_cmat(kM, kM, 1300));
  auto prep = seq.preprocess(channel);

  std::vector<CVec> ys;
  for (usize i = 0; i < 3; ++i) ys.push_back(testing::random_cvec(kM, 1400 + i));
  std::vector<DecodeResult> expect(3);
  for (usize i = 0; i < 3; ++i) seq.decode_with(*prep, ys[i], kSigma2, expect[i]);

  std::vector<DecodeResult> got(3);
  std::vector<Detector::WideItem> items;
  for (usize i = 0; i < 3; ++i) {
    items.push_back({prep.get(), ys[i], kSigma2, &got[i]});
  }
  batched.decode_wide(items);
  for (usize i = 0; i < 3; ++i) {
    expect_bit_identical(expect[i], got[i], "kbest batch frame " +
                                                std::to_string(i));
  }
}

// ---- (3) wide (cross-channel) fused == sequential -------------------------

// decode_wide takes frames with DIFFERENT channels in one call; every frame
// must still match its own sequential decode_with() bit for bit, whatever
// the batch width or kernel.
void run_wide_equivalence(const BfsOptions& options, GemmKernel kernel,
                          const std::string& label) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  const GemmKernel saved = gemm_kernel_override();
  set_gemm_kernel_override(kernel);

  SdGemmBfsDetector seq_det(c, options);
  SdGemmBfsDetector wide_det(c, options);

  for (usize width : {usize{1}, usize{2}, usize{3}, usize{5}, usize{8}}) {
    std::vector<std::shared_ptr<const PreprocessedChannel>> preps;
    std::vector<CVec> ys;
    for (usize i = 0; i < width; ++i) {
      const ChannelHandle channel(
          testing::random_cmat(kM, kM, 2000 + 31 * width + i));
      preps.push_back(seq_det.preprocess(channel));
      ys.push_back(testing::random_cvec(kM, 3000 + 16 * width + i));
    }
    std::vector<DecodeResult> expect(width);
    for (usize i = 0; i < width; ++i) {
      seq_det.decode_with(*preps[i], ys[i], kSigma2, expect[i]);
    }
    std::vector<DecodeResult> got(width);
    std::vector<Detector::WideItem> items;
    for (usize i = 0; i < width; ++i) {
      items.push_back({preps[i].get(), ys[i], kSigma2, &got[i]});
    }
    wide_det.decode_wide(items);
    for (usize i = 0; i < width; ++i) {
      expect_bit_identical(expect[i], got[i],
                           label + " B=" + std::to_string(width) + " frame " +
                               std::to_string(i));
    }
    EXPECT_EQ(wide_det.last_truncated(), seq_det.last_truncated())
        << label << " B=" << width;
  }
  set_gemm_kernel_override(saved);
}

TEST(WideBatch, WideBfsMatchesSequentialAcrossChannels) {
  run_wide_equivalence(BfsOptions{}, GemmKernel::kAuto, "wide");
}

TEST(WideBatch, WideBfsSortedQrMatchesSequential) {
  BfsOptions o;
  o.base.sorted_qr = true;
  run_wide_equivalence(o, GemmKernel::kAuto, "wide-sorted");
}

TEST(WideBatch, WideBfsScalarKernelMatchesSequential) {
  run_wide_equivalence(BfsOptions{}, GemmKernel::kScalar, "wide-scalar-kernel");
}

TEST(WideBatch, WideBfsSoaKernelMatchesSequential) {
  if (!gemm_soa_available()) {
    GTEST_SKIP() << "SoA SIMD kernel not available on this host";
  }
  run_wide_equivalence(BfsOptions{}, GemmKernel::kSoa, "wide-soa-kernel");
}

TEST(WideBatch, SharedChannelsAndBudgetPeelStayBitIdentical) {
  // Frames sharing a channel inside a mixed batch, and a frontier cap tiny
  // enough to truncate every frame's levels — none of which may change a
  // single bit against sequential decodes.
  const Constellation& c = Constellation::get(Modulation::kQam4);
  BfsOptions o;
  o.max_frontier = 8;  // small enough that 8 fused frames blow the budget
  SdGemmBfsDetector seq_det(c, o);
  SdGemmBfsDetector wide_det(c, o);

  constexpr usize kWidth = 8;
  // Channel pattern A,A,B,C,C,C,D,A: shared blocks, interleaved re-use.
  const ChannelHandle a(testing::random_cmat(kM, kM, 4100));
  const ChannelHandle b(testing::random_cmat(kM, kM, 4200));
  const ChannelHandle cc(testing::random_cmat(kM, kM, 4300));
  const ChannelHandle d(testing::random_cmat(kM, kM, 4400));
  const ChannelHandle* pattern[kWidth] = {&a, &a, &b, &cc, &cc, &cc, &d, &a};

  std::vector<std::shared_ptr<const PreprocessedChannel>> preps;
  std::vector<CVec> ys;
  for (usize i = 0; i < kWidth; ++i) {
    preps.push_back(seq_det.preprocess(*pattern[i]));
    ys.push_back(testing::random_cvec(kM, 4500 + i));
  }
  std::vector<DecodeResult> expect(kWidth);
  for (usize i = 0; i < kWidth; ++i) {
    seq_det.decode_with(*preps[i], ys[i], kSigma2, expect[i]);
  }
  std::vector<DecodeResult> got(kWidth);
  std::vector<Detector::WideItem> items;
  for (usize i = 0; i < kWidth; ++i) {
    items.push_back({preps[i].get(), ys[i], kSigma2, &got[i]});
  }
  wide_det.decode_wide(items);
  for (usize i = 0; i < kWidth; ++i) {
    expect_bit_identical(expect[i], got[i],
                         "wide-peel frame " + std::to_string(i));
  }
  EXPECT_EQ(wide_det.last_truncated(), seq_det.last_truncated());
}

TEST(WideBatch, MismatchedPrepKindPeelsToSequential) {
  // A frame carrying a foreign prep kind (linear ZF) inside a wide batch is
  // peeled up front and must behave exactly like decode_with() on that prep,
  // which itself falls back to a one-shot decode.
  const Constellation& c = Constellation::get(Modulation::kQam4);
  SdGemmBfsDetector seq_det(c);
  SdGemmBfsDetector wide_det(c);
  LinearDetector zf(LinearKind::kZf, c);

  const ChannelHandle ca(testing::random_cmat(kM, kM, 5100));
  const ChannelHandle cb(testing::random_cmat(kM, kM, 5200));
  const ChannelHandle cm(testing::random_cmat(kM, kM, 5300));
  auto pa = seq_det.preprocess(ca);
  auto pb = seq_det.preprocess(cb);
  auto pm = zf.preprocess(cm);  // kZf: wrong kind for a BFS detector
  ASSERT_NE(pm->kind, seq_det.prep_kind());

  std::vector<CVec> ys;
  for (usize i = 0; i < 3; ++i) ys.push_back(testing::random_cvec(kM, 5400 + i));
  const PreprocessedChannel* preps[3] = {pa.get(), pm.get(), pb.get()};
  std::vector<DecodeResult> expect(3);
  for (usize i = 0; i < 3; ++i) {
    seq_det.decode_with(*preps[i], ys[i], kSigma2, expect[i]);
  }
  std::vector<DecodeResult> got(3);
  std::vector<Detector::WideItem> items;
  for (usize i = 0; i < 3; ++i) {
    items.push_back({preps[i], ys[i], kSigma2, &got[i]});
  }
  wide_det.decode_wide(items);
  for (usize i = 0; i < 3; ++i) {
    expect_bit_identical(expect[i], got[i],
                         "wide-mismatch frame " + std::to_string(i));
  }
}

TEST(WideBatch, DefaultDecodeWideLoopsDecodeWithAcrossZoo) {
  // Every detector accepts decode_wide(); those without a fused engine get
  // the base per-item loop — the contract the dispatcher's cross-channel
  // fusion relies on when the chosen detector is not the wide BFS.
  //
  // ParallelSd has its own fused wide engine (DESIGN.md §16): the detected
  // indices/symbols/metric stay bit-identical per frame, but its pruning
  // counters are schedule-dependent (each frame's shared radius shrinks
  // while interleaved with other frames' sub-trees), so only the result is
  // pinned for it — the per-worker-count pinning lives in
  // tests/test_parallel_sd.cpp.
  for (NamedDetector& nd : detector_zoo()) {
    std::vector<std::shared_ptr<const PreprocessedChannel>> preps;
    std::vector<CVec> ys;
    for (usize i = 0; i < 3; ++i) {
      const ChannelHandle channel(
          testing::random_cmat(kM, kM, 6000 + 10 * i));
      preps.push_back(own_prep(*nd.det, channel));
      ys.push_back(testing::random_cvec(kM, 6100 + i));
    }
    std::vector<DecodeResult> expect(3);
    for (usize i = 0; i < 3; ++i) {
      nd.det->decode_with(*preps[i], ys[i], kSigma2, expect[i]);
    }
    std::vector<DecodeResult> got(3);
    std::vector<Detector::WideItem> items;
    for (usize i = 0; i < 3; ++i) {
      items.push_back({preps[i].get(), ys[i], kSigma2, &got[i]});
    }
    nd.oneshot->decode_wide(items);
    for (usize i = 0; i < 3; ++i) {
      const std::string what = nd.label + " wide frame " + std::to_string(i);
      if (nd.label.starts_with("multipe")) {
        expect_same_answer(expect[i], got[i], what);
        EXPECT_EQ(expect[i].stats.tree_levels, got[i].stats.tree_levels)
            << what;
        continue;
      }
      expect_bit_identical(expect[i], got[i], what);
    }
  }
}

}  // namespace
}  // namespace sd
