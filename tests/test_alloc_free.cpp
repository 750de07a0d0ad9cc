// Steady-state decode must not touch the heap.
//
// This is the acceptance test for the detector-owned DecodeScratch + the
// GEMM workspace arena: after a warm-up that grows every buffer to its
// high-water mark, repeated decode_into() calls on the same problem shape
// must perform ZERO heap allocations. The binary links sd_alloc_count, whose
// global operator new/delete replacements feed the counters read here; when
// observability is compiled out (SPHEREDEC_OBS=OFF) the hooks vanish and the
// test skips.
//
// The guarded region includes preprocessing (Householder QR), the full tree
// search, and result materialization — the entire per-frame path the serve
// and dispatch runtimes execute per lane.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/spec_parse.hpp"
#include "core/sphere_decoder.hpp"
#include "decode/mmse_neumann.hpp"
#include "decode/sd_gemm.hpp"
#include "decode/sd_gemm_bfs.hpp"
#include "dispatch/cost_model.hpp"
#include "linalg/gemm.hpp"
#include "obs/alloc_count.hpp"
#include "obs/counters.hpp"
#include "test_util.hpp"

namespace sd {
namespace {

constexpr index_t kM = 6;
constexpr double kSigma2 = 0.05;

class AllocFree : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::alloc_counting_available()) {
      GTEST_SKIP() << "allocation counting not linked (SPHEREDEC_OBS=OFF)";
    }
  }
};

/// Runs `detector` on a fixed problem: warm-up decodes grow every scratch
/// buffer, then a measured window of decodes must not allocate.
void expect_steady_state_alloc_free(Detector& detector, const char* what) {
  const CMat h = testing::random_cmat(kM, kM, 9001);
  const CVec y = testing::random_cvec(kM, 9002);
  DecodeResult result;
  for (int warm = 0; warm < 3; ++warm) {
    detector.decode_into(h, y, kSigma2, result);
  }
  const DecodeResult warm_result = result;

  const obs::AllocCounts before = obs::alloc_counts();
  for (int rep = 0; rep < 10; ++rep) {
    detector.decode_into(h, y, kSigma2, result);
  }
  const obs::AllocCounts after = obs::alloc_counts();

  EXPECT_EQ(after.allocations, before.allocations)
      << what << ": steady-state decode_into allocated ("
      << (after.allocations - before.allocations) << " allocations, "
      << (after.bytes - before.bytes) << " bytes over 10 decodes)";
  EXPECT_EQ(after.deallocations, before.deallocations)
      << what << ": steady-state decode_into freed heap memory";

  // Reuse must not change the answer.
  EXPECT_EQ(result.indices, warm_result.indices);
  EXPECT_EQ(result.metric, warm_result.metric);
}

TEST_F(AllocFree, CountersMoveWhenTheHeapIsUsed) {
  // Sanity: the hooks really are interposed in this binary.
  const obs::AllocCounts before = obs::alloc_counts();
  {
    std::vector<int> v(1024, 7);
    ASSERT_EQ(v.back(), 7);
  }
  const obs::AllocCounts after = obs::alloc_counts();
  EXPECT_GT(after.allocations, before.allocations);
  EXPECT_GT(after.deallocations, before.deallocations);
  EXPECT_GE(after.bytes - before.bytes, 1024u * sizeof(int));
}

TEST_F(AllocFree, BestFsDecodeIsAllocationFreeAfterWarmup) {
  SdGemmDetector det(Constellation::get(Modulation::kQam16));
  expect_steady_state_alloc_free(det, "SD-GEMM-BestFS");
}

TEST_F(AllocFree, BestFsFullDecodeIsAllocationFreeAfterWarmup) {
  SdOptions opts;
  opts.level_gemm = LevelGemm::kFull;
  SdGemmDetector det(Constellation::get(Modulation::kQam16), opts);
  expect_steady_state_alloc_free(det, "SD-GEMM-BestFS/full");
}

TEST_F(AllocFree, BfsDecodeIsAllocationFreeAfterWarmup) {
  SdGemmBfsDetector det(Constellation::get(Modulation::kQam16));
  expect_steady_state_alloc_free(det, "SD-GEMM-BFS");
}

TEST_F(AllocFree, ScalarAblationDecodeIsAllocationFreeAfterWarmup) {
  SdOptions opts;
  opts.gemm_eval = false;
  SdGemmDetector det(Constellation::get(Modulation::kQam16), opts);
  expect_steady_state_alloc_free(det, "SD-Scalar-BestFS");
}

/// Same contract for the cached-prep path: once the prep is built and the
/// detector is warm, repeated decode_with() calls must not allocate — the
/// serving hot loop under coherent traffic is prep-cache hit + decode_with.
void expect_cached_prep_alloc_free(Detector& detector, const char* what) {
  const ChannelHandle channel(testing::random_cmat(kM, kM, 9001));
  const CVec y = testing::random_cvec(kM, 9002);
  auto prep = detector.preprocess(channel);
  DecodeResult result;
  for (int warm = 0; warm < 3; ++warm) {
    detector.decode_with(*prep, y, kSigma2, result);
  }
  const DecodeResult warm_result = result;

  const obs::AllocCounts before = obs::alloc_counts();
  for (int rep = 0; rep < 10; ++rep) {
    detector.decode_with(*prep, y, kSigma2, result);
  }
  const obs::AllocCounts after = obs::alloc_counts();

  EXPECT_EQ(after.allocations, before.allocations)
      << what << ": steady-state decode_with allocated ("
      << (after.allocations - before.allocations) << " allocations over 10 "
      << "decodes)";

  EXPECT_EQ(result.indices, warm_result.indices);
  EXPECT_EQ(result.metric, warm_result.metric);
}

TEST_F(AllocFree, BestFsCachedPrepDecodeIsAllocationFreeAfterWarmup) {
  SdGemmDetector det(Constellation::get(Modulation::kQam16));
  expect_cached_prep_alloc_free(det, "SD-GEMM-BestFS/decode_with");
}

/// Runs `detector` on a fresh channel per decode, as on an i.i.d. uplink:
/// the served searches factor every frame with SQRD into their scratch.
void expect_fresh_channel_alloc_free(Detector& detector, const char* what) {
  constexpr usize kChannels = 4;
  std::vector<CMat> hs;
  std::vector<CVec> ys;
  for (usize i = 0; i < kChannels; ++i) {
    hs.push_back(testing::random_cmat(kM, kM, 9300 + i));
    ys.push_back(testing::random_cvec(kM, 9400 + i));
  }
  DecodeResult result;
  for (int warm = 0; warm < 3; ++warm) {
    for (usize i = 0; i < kChannels; ++i) {
      detector.decode_into(hs[i], ys[i], kSigma2, result);
    }
  }
  const obs::AllocCounts before = obs::alloc_counts();
  for (int rep = 0; rep < 10; ++rep) {
    const usize i = static_cast<usize>(rep) % kChannels;
    detector.decode_into(hs[i], ys[i], kSigma2, result);
  }
  const obs::AllocCounts after = obs::alloc_counts();
  EXPECT_EQ(after.allocations, before.allocations)
      << what << ": steady-state decode_into allocated ("
      << (after.allocations - before.allocations) << " allocations over 10 "
      << "decodes)";
  EXPECT_EQ(after.deallocations, before.deallocations) << what;
}

TEST_F(AllocFree, ServedSphereDecodeIsAllocationFreeAfterWarmup) {
  auto det = make_detector({kM, kM, Modulation::kQam16},
                           parse_decoder_spec("sphere"));
  expect_fresh_channel_alloc_free(*det, "served sphere");
}

TEST_F(AllocFree, ServedBfsDecodeIsAllocationFreeAfterWarmup) {
  // The served `bfs` also finds each frame's Babai point, into the path
  // buffer the answer later reuses, at both precisions.
  for (const char* spec : {"bfs", "bfs:precision=int16"}) {
    auto det = make_detector({kM, kM, Modulation::kQam16},
                             parse_decoder_spec(spec));
    ASSERT_EQ(det->prep_kind(), spec == std::string("bfs")
                                    ? PrepKind::kQrSorted
                                    : PrepKind::kQrSortedQuant);
    expect_fresh_channel_alloc_free(*det, spec);
    expect_cached_prep_alloc_free(*det, spec);
  }
}

TEST_F(AllocFree, ServedSphereCachedPrepDecodeIsAllocationFreeAfterWarmup) {
  auto det = make_detector({kM, kM, Modulation::kQam16},
                           parse_decoder_spec("sphere"));
  ASSERT_EQ(det->prep_kind(), PrepKind::kQrSorted);
  expect_cached_prep_alloc_free(*det, "served sphere/decode_with");
}

TEST_F(AllocFree, FpgaModelDecodeIsAllocationFreeAfterWarmup) {
  // A served `fpga` lane takes the host QR from the prep cache; a one-shot
  // decode factors H itself. Both run the modelled search and the report.
  for (const char* spec : {"sphere@fpga", "sphere@fpga-base"}) {
    auto det = make_detector({kM, kM, Modulation::kQam16},
                             parse_decoder_spec(spec));
    ASSERT_EQ(det->prep_kind(), PrepKind::kQrPlain) << spec;
    expect_steady_state_alloc_free(*det, spec);
    expect_cached_prep_alloc_free(*det, spec);
  }
}

TEST_F(AllocFree, DfsAndFsdDecodesAreAllocationFreeAfterWarmup) {
  for (const char* spec : {"dfs", "fsd"}) {
    auto det = make_detector({kM, kM, Modulation::kQam16},
                             parse_decoder_spec(spec));
    expect_steady_state_alloc_free(*det, spec);
    expect_cached_prep_alloc_free(*det, spec);
  }
}

TEST_F(AllocFree, MlDecodeIsAllocationFreeAfterWarmup) {
  // 4-QAM keeps the exhaustive search at 4^6 candidates per decode.
  auto det =
      make_detector({kM, kM, Modulation::kQam4}, parse_decoder_spec("ml"));
  ASSERT_EQ(det->prep_kind(), PrepKind::kChannel);
  expect_steady_state_alloc_free(*det, "ML");
  expect_cached_prep_alloc_free(*det, "ML/decode_with");
}

TEST_F(AllocFree, BfsCachedPrepDecodeIsAllocationFreeAfterWarmup) {
  SdGemmBfsDetector det(Constellation::get(Modulation::kQam16));
  expect_cached_prep_alloc_free(det, "SD-GEMM-BFS/decode_with");
}

TEST_F(AllocFree, KBestDecodeIsAllocationFreeAfterWarmup) {
  // Every lane's overload rung: K-Best on the BFS level engine, through both
  // entry points.
  auto det = make_detector({kM, kM, Modulation::kQam16},
                           parse_decoder_spec("kbest:k=8"));
  expect_steady_state_alloc_free(*det, "K-Best");
  expect_cached_prep_alloc_free(*det, "K-Best/decode_with");
}

TEST_F(AllocFree, QuantBfsDecodeIsAllocationFreeAfterWarmup) {
  BfsOptions opts;
  opts.quantized = true;
  SdGemmBfsDetector det(Constellation::get(Modulation::kQam16), opts);
  expect_steady_state_alloc_free(det, "SD-GEMM-BFS-i16");
}

TEST_F(AllocFree, QuantBfsCachedPrepDecodeIsAllocationFreeAfterWarmup) {
  BfsOptions opts;
  opts.quantized = true;
  SdGemmBfsDetector det(Constellation::get(Modulation::kQam16), opts);
  expect_cached_prep_alloc_free(det, "SD-GEMM-BFS-i16/decode_with");
}

TEST_F(AllocFree, BfsWideDecodeIsAllocationFreeAfterWarmup) {
  // The cross-lane former's product (DESIGN.md §16) is a wide run over
  // DISTINCT channels; once warm, it must hold the same zero-allocation
  // contract as the single-frame paths, under both arithmetic policies.
  constexpr usize kWidth = 4;
  for (const BfsOptions& opts : {BfsOptions{}, BfsOptions{.quantized = true}}) {
    SdGemmBfsDetector det(Constellation::get(Modulation::kQam16), opts);
    std::vector<std::shared_ptr<const PreprocessedChannel>> preps;
    std::vector<CVec> ys;
    std::vector<DecodeResult> results(kWidth);
    for (usize i = 0; i < kWidth; ++i) {
      preps.push_back(det.preprocess(ChannelHandle(
          testing::random_cmat(kM, kM, 9100 + static_cast<int>(i)))));
      ys.push_back(testing::random_cvec(kM, 9200 + static_cast<int>(i)));
    }
    std::vector<Detector::WideItem> items(kWidth);
    const auto run = [&] {
      for (usize i = 0; i < kWidth; ++i) {
        items[i] = {preps[i].get(), ys[i], kSigma2, &results[i]};
      }
      det.decode_wide(items);
    };
    for (int warm = 0; warm < 3; ++warm) run();
    const std::vector<DecodeResult> warm_results = results;

    const obs::AllocCounts before = obs::alloc_counts();
    for (int rep = 0; rep < 10; ++rep) run();
    const obs::AllocCounts after = obs::alloc_counts();

    EXPECT_EQ(after.allocations, before.allocations)
        << det.name() << "/decode_wide: steady-state wide decode allocated ("
        << (after.allocations - before.allocations) << " allocations over 10 "
        << "wide runs)";
    for (usize i = 0; i < kWidth; ++i) {
      EXPECT_EQ(results[i].indices, warm_results[i].indices) << det.name();
      EXPECT_EQ(results[i].metric, warm_results[i].metric) << det.name();
    }
  }
}

TEST_F(AllocFree, MmseNeumannDecodeIsAllocationFreeAfterWarmup) {
  // Tall channel: the series path (matched filter + Jacobi sweeps). The
  // guard never trips here, so this pins the pure-Neumann hot loop.
  MmseNeumannDetector det(MmseNeumannOptions{}, Constellation::get(Modulation::kQam16));
  const CMat h = testing::random_cmat(4 * kM, kM, 9001);
  const CVec y = testing::random_cvec(4 * kM, 9002);
  DecodeResult result;
  for (int warm = 0; warm < 3; ++warm) det.decode_into(h, y, kSigma2, result);
  const DecodeResult warm_result = result;

  const obs::AllocCounts before = obs::alloc_counts();
  for (int rep = 0; rep < 10; ++rep) det.decode_into(h, y, kSigma2, result);
  const obs::AllocCounts after = obs::alloc_counts();

  EXPECT_EQ(after.allocations, before.allocations)
      << "MMSE-Neumann: steady-state decode_into allocated ("
      << (after.allocations - before.allocations) << " allocations over 10 "
      << "decodes)";
  EXPECT_EQ(result.indices, warm_result.indices);
  EXPECT_EQ(result.metric, warm_result.metric);
  EXPECT_EQ(result.stats.neumann_fallbacks, 0u);
}

TEST_F(AllocFree, MmseNeumannFallbackDecodeIsAllocationFreeAfterWarmup) {
  // Square channel: the residual guard trips and the frame re-solves via
  // Cholesky — the fallback path must hold the same contract (l_ and the
  // solve run entirely in the scratch arena).
  MmseNeumannDetector det(MmseNeumannOptions{}, Constellation::get(Modulation::kQam16));
  const CMat h = testing::random_cmat(kM, kM, 9001);
  const CVec y = testing::random_cvec(kM, 9002);
  DecodeResult result;
  for (int warm = 0; warm < 3; ++warm) det.decode_into(h, y, kSigma2, result);
  ASSERT_GT(result.stats.neumann_fallbacks, 0u)
      << "fixture no longer exercises the fallback path";
  const DecodeResult warm_result = result;

  const obs::AllocCounts before = obs::alloc_counts();
  for (int rep = 0; rep < 10; ++rep) det.decode_into(h, y, kSigma2, result);
  const obs::AllocCounts after = obs::alloc_counts();

  EXPECT_EQ(after.allocations, before.allocations)
      << "MMSE-Neumann/fallback: steady-state decode_into allocated ("
      << (after.allocations - before.allocations) << " allocations over 10 "
      << "decodes)";
  EXPECT_EQ(result.indices, warm_result.indices);
  EXPECT_EQ(result.metric, warm_result.metric);
}

TEST_F(AllocFree, MmseNeumannCachedPrepDecodeIsAllocationFreeAfterWarmup) {
  // The serving hot loop at a massive-MIMO cell: prep-cache hit on the Gram
  // matrix, then decode_with per frame. The (channel, sigma2) system cache
  // makes repeat frames skip even the A-assembly; none of it may allocate.
  MmseNeumannDetector det(MmseNeumannOptions{}, Constellation::get(Modulation::kQam16));
  const ChannelHandle channel(testing::random_cmat(4 * kM, kM, 9001));
  const CVec y = testing::random_cvec(4 * kM, 9002);
  auto prep = det.preprocess(channel);
  DecodeResult result;
  for (int warm = 0; warm < 3; ++warm)
    det.decode_with(*prep, y, kSigma2, result);
  const DecodeResult warm_result = result;

  const obs::AllocCounts before = obs::alloc_counts();
  for (int rep = 0; rep < 10; ++rep) det.decode_with(*prep, y, kSigma2, result);
  const obs::AllocCounts after = obs::alloc_counts();

  EXPECT_EQ(after.allocations, before.allocations)
      << "MMSE-Neumann/decode_with: steady-state decode allocated ("
      << (after.allocations - before.allocations) << " allocations over 10 "
      << "decodes)";
  EXPECT_EQ(result.indices, warm_result.indices);
  EXPECT_EQ(result.metric, warm_result.metric);
}

TEST_F(AllocFree, CostModelLookupsOnAnExistingBucketAllocateNothing) {
  // Admission and placement price every frame under the cost-model mutex;
  // the bucket key is formatted on the stack, so neither predict nor
  // observe touches the heap once the bucket exists.
  dispatch::CostModel cm;
  const int fp32 = cm.register_backend("cpu", 150e-9, 30e-6);
  const int i16 = cm.register_backend("cpu-int16", 90e-9, 20e-6, "int16");
  dispatch::FrameFeatures f;
  f.num_tx = 8;
  f.num_rx = 128;
  f.mod_order = 16;
  f.snr_db = -3.0;
  f.cond_proxy = 2.5;
  for (const int b : {fp32, i16}) {
    cm.observe(f, b, dispatch::DecodeTier::kMmseApprox, 40, 2e-6, true);
  }
  const usize buckets = cm.bucket_count();

  double sink = 0.0;
  const obs::AllocCounts before = obs::alloc_counts();
  for (int rep = 0; rep < 100; ++rep) {
    for (const int b : {fp32, i16}) {
      sink += cm.predict(f, b, dispatch::DecodeTier::kMmseApprox, true).seconds;
      // A cold bucket is priced from the prior without being created.
      sink += cm.predict(f, b, dispatch::DecodeTier::kPrimary, false).seconds;
      cm.observe(f, b, dispatch::DecodeTier::kMmseApprox, 40 + rep, 2e-6,
                 true);
    }
  }
  const obs::AllocCounts after = obs::alloc_counts();
  EXPECT_EQ(after.allocations, before.allocations)
      << "cost model: " << (after.allocations - before.allocations)
      << " allocations over 400 lookups";
  EXPECT_EQ(cm.bucket_count(), buckets);
  EXPECT_GT(sink, 0.0);
}

TEST_F(AllocFree, ExportedCountersReflectTraffic) {
  obs::CounterRegistry reg;
  obs::export_alloc_counters(reg);
  EXPECT_EQ(reg.get_uint_or("alloc.available", 0), 1u);
  const std::uint64_t reported = reg.get_uint_or("alloc.allocations", 0);
  EXPECT_LE(reported, obs::alloc_counts().allocations);
  EXPECT_GT(reported, 0u);
}

}  // namespace
}  // namespace sd
