// DetectionServer + LoadGenerator: deterministic frame accounting, result
// fidelity against single-shot decodes, deadline/fallback semantics, and
// metrics sanity. Frame contents are seeded, so counts and decode results
// must reproduce exactly across runs.
#include "serve/load_generator.hpp"

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <vector>

#include "common/error.hpp"
#include "core/spec_parse.hpp"
#include "decode/linear.hpp"
#include "mimo/scenario.hpp"
#include "serve/server.hpp"

namespace sd::serve {
namespace {

constexpr index_t kM = 6;
constexpr double kSnr = 8.0;
constexpr std::uint64_t kSeed = 42;

SystemConfig test_system() { return {kM, kM, Modulation::kQam4}; }

std::vector<Trial> regenerate_trials(usize n) {
  ScenarioConfig sc;
  sc.num_tx = kM;
  sc.num_rx = kM;
  sc.modulation = Modulation::kQam4;
  sc.snr_db = kSnr;
  sc.seed = kSeed;
  Scenario scenario(sc);
  std::vector<Trial> trials;
  for (usize i = 0; i < n; ++i) trials.push_back(scenario.next());
  return trials;
}

LoadOptions closed_loop_load(usize frames, usize window) {
  LoadOptions lo;
  lo.mode = ArrivalMode::kClosedLoop;
  lo.num_frames = frames;
  lo.window = window;
  lo.snr_db = kSnr;
  lo.seed = kSeed;
  return lo;
}

TEST(ServeOptions, ParseServerOptions) {
  const ServerOptions o = parse_server_options(
      "workers=4,batch=8,queue=32,policy=drop-oldest,deadline-ms=5,no-fallback");
  EXPECT_EQ(o.num_workers, 4u);
  EXPECT_EQ(o.batch_size, 8u);
  EXPECT_EQ(o.queue_capacity, 32u);
  EXPECT_EQ(o.policy, BackpressurePolicy::kDropOldest);
  EXPECT_DOUBLE_EQ(o.default_deadline_s, 5e-3);
  EXPECT_FALSE(o.zf_fallback_on_expiry);
  // Empty text keeps the base untouched.
  EXPECT_EQ(parse_server_options("").num_workers, ServerOptions{}.num_workers);
  EXPECT_THROW((void)parse_server_options("warp-drive=9"),
               invalid_argument_error);
  // Device pacing and run splitting are not server options: an RTT is an
  // `rtt-ms=` field of a backends pool entry.
  for (const char* gone :
       {"rtt-ms=2", "emulate-device", "cross-fuse", "no-cross-fuse"}) {
    EXPECT_THROW((void)parse_server_options(gone), invalid_argument_error)
        << gone;
  }
  EXPECT_THROW((void)parse_server_options("policy=psychic"),
               invalid_argument_error);
}

TEST(ServeOptions, ServerRejectsBadConfigs) {
  const auto cb = [](const FrameResult&) {};
  ServerOptions bad;
  bad.num_workers = 0;
  EXPECT_THROW(DetectionServer(test_system(), DecoderSpec{}, bad, cb),
               invalid_argument_error);
  bad = {};
  bad.batch_size = 0;
  EXPECT_THROW(DetectionServer(test_system(), DecoderSpec{}, bad, cb),
               invalid_argument_error);
  bad = {};
  bad.queue_capacity = 0;
  EXPECT_THROW(DetectionServer(test_system(), DecoderSpec{}, bad, cb),
               invalid_argument_error);
}

TEST(ServeServer, SubmitValidatesFrameShape) {
  DetectionServer srv(test_system(), DecoderSpec{}, {}, nullptr);
  FrameRequest bad;
  bad.channel = ChannelHandle(CMat(kM, kM));
  bad.y.resize(static_cast<usize>(kM) - 1);  // wrong length
  EXPECT_THROW((void)srv.submit(std::move(bad)), invalid_argument_error);
}

TEST(ServeServer, FrameCopiesShareChannelStorage) {
  // The point of ChannelHandle: a FrameRequest hop (queue push, steal,
  // batch pop) copies a shared_ptr, never the dense matrix.
  const Trial t = regenerate_trials(1).front();
  FrameRequest a;
  a.channel = ChannelHandle(t.h);
  a.y = t.y;
  a.sigma2 = t.sigma2;
  EXPECT_EQ(a.channel.use_count(), 1);

  FrameRequest b = a;       // copy: one more reference, zero H copies
  FrameRequest c = b;       // second hop
  EXPECT_TRUE(b.channel.same_storage(a.channel));
  EXPECT_TRUE(c.channel.same_storage(a.channel));
  EXPECT_EQ(&a.h(), &b.h());
  EXPECT_EQ(&a.h(), &c.h());
  EXPECT_EQ(a.channel.use_count(), 3);
  EXPECT_EQ(a.channel.fingerprint(), c.channel.fingerprint());

  FrameRequest moved = std::move(b);  // move: reference transfers
  EXPECT_TRUE(moved.channel.same_storage(a.channel));
  EXPECT_EQ(a.channel.use_count(), 3);
}

TEST(ServeCoherence, CoherentRunReusesPreprocessing) {
  // coherence=L: the load generator hands every frame of a block the SAME
  // handle, and the backend prep cache turns all but the first decode of a
  // block into hits. 32 frames at L=4 -> at most 8 distinct factorizations.
  constexpr usize kFrames = 32;
  ServerOptions so;
  so.num_workers = 2;
  so.batch_size = 2;
  so.queue_capacity = 16;
  LoadOptions lo = closed_loop_load(kFrames, 4);
  lo.coherence = 4;
  LoadGenerator gen(test_system(), DecoderSpec{}, so, lo);
  const LoadReport rep = gen.run();

  EXPECT_EQ(rep.metrics.completed, kFrames);
  EXPECT_EQ(rep.dispatch.prep_hits + rep.dispatch.prep_misses, kFrames);
  // 8 blocks; two lanes racing on a block's first frame can both miss (the
  // cache builds outside the lock), so the bound is 2 misses per block.
  EXPECT_LE(rep.dispatch.prep_misses, 2 * (kFrames / 4));
  EXPECT_GE(rep.dispatch.prep_hits, kFrames - 2 * (kFrames / 4));
  // Quality is unaffected: the cached factorization is the same code on the
  // same bytes, and the scenario's ground truth stays per-frame.
  EXPECT_GT(rep.symbols_checked, 0u);
}

TEST(ServeCoherence, CoherenceOneKeepsTheSeededStream) {
  // L=1 must reproduce the original i.i.d. trial stream byte-for-byte: the
  // scenario draws H fresh every trial through the untouched code path.
  ScenarioConfig base;
  base.num_tx = kM;
  base.num_rx = kM;
  base.modulation = Modulation::kQam4;
  base.snr_db = kSnr;
  base.seed = kSeed;
  ScenarioConfig explicit_one = base;
  explicit_one.coherence_block = 1;
  Scenario s1(base);
  Scenario s2(explicit_one);
  for (int i = 0; i < 8; ++i) {
    const Trial a = s1.next();
    const Trial b = s2.next();
    EXPECT_EQ(a.tx.indices, b.tx.indices);
    for (index_t r = 0; r < a.h.rows(); ++r) {
      for (index_t c = 0; c < a.h.cols(); ++c) {
        EXPECT_EQ(a.h(r, c), b.h(r, c));
      }
    }
    for (usize k = 0; k < a.y.size(); ++k) EXPECT_EQ(a.y[k], b.y[k]);
  }
}

TEST(ServeCoherence, CoherentBlocksShareTheRealization) {
  ScenarioConfig sc;
  sc.num_tx = kM;
  sc.num_rx = kM;
  sc.modulation = Modulation::kQam4;
  sc.snr_db = kSnr;
  sc.seed = kSeed;
  sc.coherence_block = 4;
  Scenario scenario(sc);
  std::vector<Trial> trials;
  for (usize i = 0; i < 8; ++i) trials.push_back(scenario.next());
  // Within a block H is identical; across blocks it changes.
  for (usize i = 1; i < 4; ++i) {
    EXPECT_EQ(channel_fingerprint(trials[0].h), channel_fingerprint(trials[i].h));
  }
  EXPECT_NE(channel_fingerprint(trials[0].h), channel_fingerprint(trials[4].h));
  // Symbols still vary inside a block (only the channel is held).
  EXPECT_NE(trials[0].tx.indices, trials[1].tx.indices);
}

TEST(ServeServer, SubmitAfterDrainIsClosed) {
  DetectionServer srv(test_system(), DecoderSpec{}, {}, nullptr);
  srv.drain();
  const Trial t = regenerate_trials(1).front();
  FrameRequest f;
  f.channel = ChannelHandle(t.h);
  f.y = t.y;
  f.sigma2 = t.sigma2;
  EXPECT_EQ(srv.submit(std::move(f)), SubmitStatus::kClosed);
}

// The acceptance property: a seeded closed-loop run accounts for every
// frame, loses none, and reproduces exactly across runs.
TEST(ServeClosedLoop, ExactConservationAndReproducibility) {
  constexpr usize kFrames = 64;
  ServerOptions so;
  so.num_workers = 4;
  so.batch_size = 4;
  so.queue_capacity = 16;

  auto run_once = [&] {
    LoadGenerator gen(test_system(), DecoderSpec{}, so,
                      closed_loop_load(kFrames, 8));
    return gen.run();
  };
  const LoadReport a = run_once();
  const LoadReport b = run_once();

  for (const LoadReport* rep : {&a, &b}) {
    const ServerMetrics& m = rep->metrics;
    EXPECT_EQ(rep->submitted, kFrames);
    EXPECT_EQ(m.submitted, kFrames);
    EXPECT_EQ(m.completed, kFrames);
    EXPECT_EQ(m.expired_fallback + m.expired_dropped, 0u);
    EXPECT_EQ(m.evicted, 0u);
    EXPECT_EQ(m.rejected, 0u);
    EXPECT_EQ(m.deadline_misses, 0u);
    EXPECT_EQ(m.in_queue, 0u);
    // submitted = completed + dropped + expired; zero lost frames.
    EXPECT_EQ(m.submitted, m.accounted());
    EXPECT_EQ(m.queue_wait.count, kFrames);
    EXPECT_EQ(m.service.count, kFrames);
    EXPECT_EQ(m.e2e.count, kFrames);
  }
  // Deterministic detection: identical frames -> identical symbol errors.
  EXPECT_EQ(a.symbols_checked, b.symbols_checked);
  EXPECT_EQ(a.symbol_errors, b.symbol_errors);
}

// Served results must be byte-identical to single-shot decodes of the same
// seeded trials — per-worker detector clones are interchangeable.
TEST(ServeClosedLoop, ResultsMatchSingleShotDecodes) {
  constexpr usize kFrames = 32;
  ServerOptions so;
  so.num_workers = 3;
  so.batch_size = 2;
  so.queue_capacity = 8;

  std::mutex mu;
  std::map<std::uint64_t, DecodeResult> served;
  const CompletionFn observer = [&](const FrameResult& r) {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(r.status, FrameStatus::kCompleted);
    served[r.id] = r.result;
  };
  LoadGenerator gen(test_system(), DecoderSpec{}, so,
                    closed_loop_load(kFrames, 4));
  const LoadReport rep = gen.run(observer);
  EXPECT_EQ(rep.metrics.completed, kFrames);
  ASSERT_EQ(served.size(), kFrames);

  auto reference = make_detector(test_system(), DecoderSpec{});
  const std::vector<Trial> trials = regenerate_trials(kFrames);
  for (usize i = 0; i < kFrames; ++i) {
    const DecodeResult expect = reference->decode(trials[i].h, trials[i].y,
                                                  trials[i].sigma2);
    const DecodeResult& got = served.at(i);
    EXPECT_EQ(got.indices, expect.indices) << "frame " << i;
    EXPECT_DOUBLE_EQ(got.metric, expect.metric) << "frame " << i;
  }
}

// With an unmeetably small budget every frame expires in the queue and is
// served by the ZF fallback — graceful degradation, never silence — and the
// counts reproduce across runs.
TEST(ServeDeadlines, ExpiredFramesFallBackToZf) {
  constexpr usize kFrames = 24;
  ServerOptions so;
  so.num_workers = 2;
  so.queue_capacity = 8;
  so.default_deadline_s = 1e-9;  // expires before any worker can dequeue

  std::mutex mu;
  std::map<std::uint64_t, DecodeResult> served;
  const CompletionFn observer = [&](const FrameResult& r) {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(r.status, FrameStatus::kExpiredFallback);
    EXPECT_EQ(r.tier, DecodeTier::kLinear);
    EXPECT_TRUE(r.deadline_missed);
    served[r.id] = r.result;
  };
  LoadGenerator gen(test_system(), DecoderSpec{}, so,
                    closed_loop_load(kFrames, 4));
  const LoadReport rep = gen.run(observer);

  const ServerMetrics& m = rep.metrics;
  EXPECT_EQ(m.expired_fallback, kFrames);
  EXPECT_EQ(m.completed, 0u);
  EXPECT_EQ(m.deadline_misses, kFrames);
  EXPECT_EQ(m.submitted, m.accounted());
  // No placement can meet the budget, so every frame is placed on the
  // linear rung; expired frames are answered from H without resolving their
  // channels, so they count as neither prep hits nor misses, and nothing
  // fuses.
  EXPECT_EQ(rep.dispatch.degraded_linear, kFrames);
  EXPECT_EQ(rep.dispatch.prep_misses, 0u);
  EXPECT_EQ(rep.dispatch.prep_hits, 0u);
  EXPECT_EQ(rep.dispatch.fused_runs, 0u);

  // The fallback result is exactly what a ZF detector produces.
  const Constellation& c = Constellation::get(Modulation::kQam4);
  LinearDetector zf(LinearKind::kZf, c);
  const std::vector<Trial> trials = regenerate_trials(kFrames);
  for (usize i = 0; i < kFrames; ++i) {
    const DecodeResult expect = zf.decode(trials[i].h, trials[i].y,
                                          trials[i].sigma2);
    EXPECT_EQ(served.at(i).indices, expect.indices) << "frame " << i;
  }
}

TEST(ServeDeadlines, NoFallbackDropsExpiredFrames) {
  constexpr usize kFrames = 12;
  ServerOptions so;
  so.num_workers = 2;
  so.queue_capacity = 8;
  so.default_deadline_s = 1e-9;
  so.zf_fallback_on_expiry = false;

  const CompletionFn observer = [](const FrameResult& r) {
    EXPECT_EQ(r.status, FrameStatus::kExpiredDropped);
    EXPECT_EQ(r.tier, DecodeTier::kLinear);  // placed on the linear rung
    EXPECT_TRUE(r.result.indices.empty());
  };
  LoadGenerator gen(test_system(), DecoderSpec{}, so,
                    closed_loop_load(kFrames, 4));
  const LoadReport rep = gen.run(observer);
  const ServerMetrics& m = rep.metrics;
  EXPECT_EQ(m.expired_dropped, kFrames);
  EXPECT_EQ(m.completed, 0u);
  EXPECT_EQ(m.submitted, m.accounted());
  EXPECT_EQ(rep.dispatch.degraded_linear, kFrames);
  // Dropped frames resolve no channel either.
  EXPECT_EQ(rep.dispatch.prep_misses, 0u);
  EXPECT_EQ(rep.dispatch.prep_hits, 0u);
  EXPECT_EQ(rep.dispatch.fused_runs, 0u);
  // Dropped frames contribute no symbols to the quality accounting.
  EXPECT_EQ(rep.symbols_checked, 0u);
}

// Overload with load shedding: whatever mix of completions, evictions and
// rejections happens, every submitted frame is accounted for.
TEST(ServeOverload, DropOldestConservesFrames) {
  constexpr usize kFrames = 48;
  ServerOptions so;
  so.num_workers = 1;
  so.queue_capacity = 2;
  so.policy = BackpressurePolicy::kDropOldest;

  LoadOptions lo;
  lo.mode = ArrivalMode::kOpenLoop;
  lo.num_frames = kFrames;
  lo.rate_fps = 50'000.0;  // far beyond one worker's service rate
  lo.snr_db = kSnr;
  lo.seed = kSeed;
  LoadGenerator gen(test_system(), DecoderSpec{}, so, lo);
  const LoadReport rep = gen.run();
  const ServerMetrics& m = rep.metrics;
  EXPECT_EQ(m.submitted, kFrames);
  EXPECT_EQ(m.rejected, 0u);  // drop-oldest always admits the new frame
  EXPECT_EQ(m.submitted, m.accounted());
  EXPECT_EQ(m.completed + m.evicted, kFrames);
}

TEST(ServeOverload, RejectPolicyConservesFrames) {
  constexpr usize kFrames = 48;
  ServerOptions so;
  so.num_workers = 1;
  so.queue_capacity = 2;
  so.policy = BackpressurePolicy::kReject;

  LoadOptions lo;
  lo.mode = ArrivalMode::kOpenLoop;
  lo.num_frames = kFrames;
  lo.rate_fps = 50'000.0;
  lo.snr_db = kSnr;
  lo.seed = kSeed;
  LoadGenerator gen(test_system(), DecoderSpec{}, so, lo);
  const LoadReport rep = gen.run();
  const ServerMetrics& m = rep.metrics;
  EXPECT_EQ(m.submitted, kFrames);
  EXPECT_EQ(m.evicted, 0u);
  EXPECT_EQ(m.submitted, m.accounted());
  EXPECT_EQ(rep.rejected_at_submit, m.rejected);
}

TEST(ServeMetrics, SnapshotIsInternallyConsistent) {
  constexpr usize kFrames = 40;
  ServerOptions so;
  so.num_workers = 2;
  so.batch_size = 4;
  so.queue_capacity = 16;
  LoadGenerator gen(test_system(), DecoderSpec{}, so,
                    closed_loop_load(kFrames, 8));
  const ServerMetrics m = gen.run().metrics;

  EXPECT_GT(m.wall_seconds, 0.0);
  EXPECT_GT(m.throughput_fps, 0.0);
  EXPECT_LE(m.e2e.p50_s, m.e2e.p95_s);
  EXPECT_LE(m.e2e.p95_s, m.e2e.p99_s);
  EXPECT_LE(m.e2e.p99_s, m.e2e.max_s + 1e-12);
  // Queue wait and service both bound e2e from below.
  EXPECT_LE(m.queue_wait.p50_s, m.e2e.max_s + 1e-12);
  ASSERT_EQ(m.workers.size(), 2u);
  std::uint64_t worker_frames = 0;
  for (const WorkerStats& w : m.workers) {
    worker_frames += w.frames;
    EXPECT_GE(w.utilization, 0.0);
    EXPECT_LE(w.utilization, 1.05);  // busy time cannot exceed wall time
    if (w.batches > 0) {
      EXPECT_GE(w.frames, w.batches);
    }
  }
  EXPECT_EQ(worker_frames, kFrames);
}

// Batching pulls multiple frames per queue pop: with one worker and a batch
// size covering the whole backlog, the number of batches must be well below
// the number of frames.
TEST(ServeBatching, BatchesAmortizeQueuePops) {
  constexpr usize kFrames = 32;
  ServerOptions so;
  so.num_workers = 1;
  so.batch_size = 8;
  so.queue_capacity = 32;
  LoadGenerator gen(test_system(), DecoderSpec{}, so,
                    closed_loop_load(kFrames, 16));
  const ServerMetrics m = gen.run().metrics;
  ASSERT_EQ(m.workers.size(), 1u);
  EXPECT_EQ(m.workers[0].frames, kFrames);
  // A 16-deep window against batch=8 must produce multi-frame pops.
  EXPECT_LT(m.workers[0].batches, kFrames);
}

// The server can front any detector the factory builds; spot-check the FPGA
// multi-pipeline model and K-Best against their single-shot results.
TEST(ServeBackends, FpgaAndKBestBackendsServeCorrectly) {
  for (const char* backend : {"sphere@fpga", "kbest:k=16"}) {
    const DecoderSpec spec = parse_decoder_spec(backend);
    constexpr usize kFrames = 8;
    ServerOptions so;
    so.num_workers = 2;
    so.queue_capacity = 8;
    std::mutex mu;
    std::map<std::uint64_t, DecodeResult> served;
    const CompletionFn observer = [&](const FrameResult& r) {
      std::lock_guard<std::mutex> lock(mu);
      served[r.id] = r.result;
    };
    LoadGenerator gen(test_system(), spec, so, closed_loop_load(kFrames, 4));
    const LoadReport rep = gen.run(observer);
    EXPECT_EQ(rep.metrics.completed, kFrames) << backend;

    auto reference = make_detector(test_system(), spec);
    const std::vector<Trial> trials = regenerate_trials(kFrames);
    for (usize i = 0; i < kFrames; ++i) {
      const DecodeResult expect = reference->decode(trials[i].h, trials[i].y,
                                                    trials[i].sigma2);
      EXPECT_EQ(served.at(i).indices, expect.indices)
          << backend << " frame " << i;
    }
  }
}

// Paced CPU lanes of the primary decoder (a `cpu:<N>:rtt-ms=<X>` pool) hold
// each completed frame to at least its charged cycle-model time plus the
// RTT — the invariant the offload soak series relies on.
TEST(ServeEmulation, ServiceTimeCoversChargedDeviceTime) {
  const DecoderSpec spec = parse_decoder_spec("sphere@fpga");
  constexpr double kRtt = 2e-3;
  ServerOptions so;
  so.queue_capacity = 8;
  so.backends = "cpu:2:rtt-ms=2";
  std::mutex mu;
  std::vector<FrameResult> results;
  const CompletionFn observer = [&](const FrameResult& r) {
    std::lock_guard<std::mutex> lock(mu);
    results.push_back(r);
  };
  LoadGenerator gen(test_system(), spec, so, closed_loop_load(12, 4));
  const LoadReport rep = gen.run(observer);
  EXPECT_EQ(rep.metrics.completed, 12u);
  EXPECT_EQ(rep.metrics.workers.size(), 2u);
  for (const FrameResult& r : results) {
    ASSERT_EQ(r.status, FrameStatus::kCompleted);
    EXPECT_GE(r.service_s, (r.result.stats.search_seconds + kRtt) * 0.99)
        << "frame " << r.id;
  }
}

TEST(ServeLoadGen, ValidatesOptions) {
  ServerOptions so;
  so.queue_capacity = 4;
  LoadOptions lo = closed_loop_load(8, 16);  // window > capacity
  EXPECT_THROW(LoadGenerator(test_system(), DecoderSpec{}, so, lo),
               invalid_argument_error);
  lo = closed_loop_load(0, 1);  // no frames
  EXPECT_THROW(LoadGenerator(test_system(), DecoderSpec{}, so, lo),
               invalid_argument_error);
  lo = closed_loop_load(8, 2);
  lo.mode = ArrivalMode::kOpenLoop;
  lo.rate_fps = 0.0;  // open loop needs a rate
  EXPECT_THROW(LoadGenerator(test_system(), DecoderSpec{}, so, lo),
               invalid_argument_error);
}

}  // namespace
}  // namespace sd::serve
