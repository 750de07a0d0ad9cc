// Dispatch subsystem: pool-spec parsing, cost-model priors / calibration /
// JSON round-tripping, seeded placement determinism, overload-ladder tier
// degradation, mixed-pool frame conservation, and work-stealing result
// invariance. Frame contents are seeded, so placements and decode results
// must reproduce exactly across runs.
#include "dispatch/dispatcher.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "core/spec_parse.hpp"
#include "decode/channel_prep.hpp"
#include "decode/linear.hpp"
#include "dispatch/backend.hpp"
#include "dispatch/cost_model.hpp"
#include "mimo/constellation.hpp"
#include "mimo/scenario.hpp"
#include "obs/counters.hpp"
#include "serve/server.hpp"

namespace sd::dispatch {

struct BackendTestAccess {
  static ChannelPrepCache& prep_cache(Backend& backend) {
    return backend.prep_cache_;
  }
};

namespace {

constexpr index_t kM = 6;
constexpr std::uint64_t kSeed = 42;

SystemConfig test_system() { return {kM, kM, Modulation::kQam4}; }

std::vector<Trial> seeded_trials(usize n, double snr_db,
                                 std::uint64_t seed = kSeed) {
  ScenarioConfig sc;
  sc.num_tx = kM;
  sc.num_rx = kM;
  sc.modulation = Modulation::kQam4;
  sc.snr_db = snr_db;
  sc.seed = seed;
  Scenario scenario(sc);
  std::vector<Trial> trials;
  for (usize i = 0; i < n; ++i) trials.push_back(scenario.next());
  return trials;
}

serve::FrameRequest make_frame(const Trial& t, std::uint64_t id,
                               double deadline_s = 0.0) {
  serve::FrameRequest f;
  f.id = id;
  f.channel = ChannelHandle(t.h);
  f.y = t.y;
  f.sigma2 = t.sigma2;
  f.deadline_s = deadline_s;
  return f;
}

/// Collects completions and lets the producer wait for the nth one, which is
/// how the determinism tests serialize submissions (window = 1).
class Recorder {
 public:
  void add(const serve::FrameResult& r) {
    std::lock_guard<std::mutex> lock(mu_);
    results_.push_back(r);
    cv_.notify_all();
  }
  void wait_for(usize n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return results_.size() >= n; });
  }
  [[nodiscard]] std::vector<serve::FrameResult> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return results_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<serve::FrameResult> results_;
};

// ---------------------------------------------------------------------------
// Pool-spec parsing

TEST(DispatchPool, ParseBackendPool) {
  PoolDefaults pd;
  pd.primary = DecoderSpec{};
  pd.fpga_rtt_s = 2e-3;
  const std::vector<BackendConfig> pool = parse_backend_pool(
      "cpu:4,fpga:2:rtt-ms=1,kbest:2:k=32,multipe:1:threads=2,fpga-base", pd);
  ASSERT_EQ(pool.size(), 5u);

  EXPECT_EQ(pool[0].kind, BackendKind::kCpu);
  EXPECT_EQ(pool[0].label, "cpu");
  EXPECT_EQ(pool[0].lanes, 4u);
  EXPECT_FALSE(pool[0].pace_to_charged);

  EXPECT_EQ(pool[1].kind, BackendKind::kFpga);
  EXPECT_EQ(pool[1].lanes, 2u);
  EXPECT_TRUE(pool[1].pace_to_charged);
  EXPECT_FALSE(pool[1].allow_stealing);
  EXPECT_DOUBLE_EQ(pool[1].rtt_s, 1e-3);  // explicit field beats the default
  EXPECT_EQ(pool[1].decoder.device, TargetDevice::kFpgaOptimized);

  EXPECT_EQ(pool[2].kind, BackendKind::kCpu);
  EXPECT_EQ(pool[2].lanes, 2u);
  EXPECT_EQ(pool[2].decoder.strategy, Strategy::kKBest);
  EXPECT_EQ(pool[2].decoder.kbest.k, 32u);

  EXPECT_EQ(pool[3].kind, BackendKind::kParallelSd);
  EXPECT_EQ(pool[3].decoder.strategy, Strategy::kMultiPe);

  EXPECT_EQ(pool[4].kind, BackendKind::kFpga);
  EXPECT_EQ(pool[4].lanes, 1u);
  EXPECT_DOUBLE_EQ(pool[4].rtt_s, 2e-3);  // inherits the pool default
  EXPECT_EQ(pool[4].decoder.device, TargetDevice::kFpgaBaseline);

  // Repeated names get disambiguated labels (cost model calibrates per
  // backend, keyed by label).
  const std::vector<BackendConfig> twins = parse_backend_pool("cpu:2,cpu:2", pd);
  EXPECT_EQ(twins[0].label, "cpu");
  EXPECT_EQ(twins[1].label, "cpu#1");
}

TEST(DispatchPool, ParseRejectsBadSpecs) {
  const PoolDefaults pd;
  EXPECT_THROW((void)parse_backend_pool("", pd), invalid_argument_error);
  EXPECT_THROW((void)parse_backend_pool("warpdrive:2", pd),
               invalid_argument_error);
  // "cpu" serves the configured primary decoder; decoder options make no
  // sense on it.
  EXPECT_THROW((void)parse_backend_pool("cpu:2:k=9", pd),
               invalid_argument_error);
}

TEST(DispatchPool, LaddersMatchDecoderFamily) {
  PoolDefaults pd;
  const SystemConfig sys = test_system();
  auto ladder_of = [&](std::string_view spec) {
    std::vector<BackendConfig> pool = parse_backend_pool(spec, pd);
    return make_backend(sys, std::move(pool[0]))->ladder();
  };
  // SD: primary > kbest > mmse > linear
  EXPECT_EQ(ladder_of("cpu").size(), 4u);
  // Fixed complexity: no kbest rung, but mmse + linear remain.
  EXPECT_EQ(ladder_of("kbest").size(), 3u);
  // MMSE primary: degrading to the kbest/mmse rungs would be a promotion.
  EXPECT_EQ(ladder_of("mmse-neumann").size(), 2u);
  EXPECT_EQ(ladder_of("zf").size(), 1u);      // nothing cheaper than linear
}

TEST(DispatchPool, BackendKindChecksItsDecoder) {
  // The kind names the substrate: an fpga backend needs an @fpga decoder and
  // always paces; a parallel-sd backend needs the multipe decoder.
  const SystemConfig sys = test_system();
  BackendConfig fpga;
  fpga.kind = BackendKind::kFpga;
  fpga.decoder = DecoderSpec{};
  EXPECT_THROW((void)Backend(sys, fpga), invalid_argument_error);
  fpga.decoder = parse_decoder_spec("sphere@fpga");
  EXPECT_TRUE(Backend(sys, fpga).config().pace_to_charged);

  BackendConfig multipe;
  multipe.kind = BackendKind::kParallelSd;
  multipe.decoder = DecoderSpec{};
  EXPECT_THROW((void)Backend(sys, multipe), invalid_argument_error);
  multipe.decoder = parse_decoder_spec("multipe:threads=2");
  EXPECT_FALSE(Backend(sys, multipe).config().pace_to_charged);
}

TEST(DispatchOptions, ServerOptionsGainDispatchKeys) {
  const serve::ServerOptions o = serve::parse_server_options(
      "placement=round-robin,fpga-rtt-ms=2,no-degrade,deterministic-cost");
  EXPECT_EQ(o.placement, PlacementPolicy::kRoundRobin);
  EXPECT_DOUBLE_EQ(o.fpga_rtt_s, 2e-3);
  EXPECT_FALSE(o.degrade_on_deadline);
  EXPECT_TRUE(o.deterministic_cost);
  EXPECT_THROW((void)serve::parse_server_options("placement=psychic"),
               invalid_argument_error);
  EXPECT_THROW((void)parse_placement_policy("psychic"),
               invalid_argument_error);
}

TEST(DispatchOptions, WideFormerKeysParseEverywhere) {
  // Server options, pool-entry options, and pool defaults all carry the
  // cross-lane former knobs.
  const serve::ServerOptions o =
      serve::parse_server_options("wide-width=16,no-cross-lane-fuse");
  EXPECT_EQ(o.max_wide_width, 16u);
  EXPECT_FALSE(o.cross_lane_former);
  const serve::ServerOptions d = serve::parse_server_options("cross-lane-fuse");
  EXPECT_TRUE(d.cross_lane_former);
  EXPECT_EQ(d.max_wide_width, 32u);  // default

  PoolDefaults pd;
  pd.primary = DecoderSpec{};
  const std::vector<BackendConfig> pool = parse_backend_pool(
      "cpu:4:wide-width=8:no-cross-lane-fuse,cpu:2:cross-lane-fuse", pd);
  ASSERT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool[0].max_wide_width, 8u);
  EXPECT_FALSE(pool[0].cross_lane_former);
  EXPECT_TRUE(pool[1].cross_lane_former);
  EXPECT_EQ(pool[1].max_wide_width, 32u);
}

// ---------------------------------------------------------------------------
// Cost model

TEST(DispatchCost, PriorCostMonotoneInSnr) {
  // Lower SNR => deeper search => non-decreasing predicted SD cost at fixed
  // geometry. The fixed-complexity tiers are flat in SNR.
  FrameFeatures f;
  f.num_tx = 10;
  f.mod_order = 4;
  f.cond_proxy = 2.0;
  double prev = 0.0;
  for (double snr = 24.0; snr >= -6.0; snr -= 2.0) {
    f.snr_db = snr;
    const double nodes = CostModel::prior_nodes(f, DecodeTier::kPrimary);
    EXPECT_GE(nodes, prev) << "snr " << snr;
    prev = nodes;
    EXPECT_DOUBLE_EQ(CostModel::prior_nodes(f, DecodeTier::kKBest),
                     CostModel::prior_nodes(
                         FrameFeatures{10, 0, 4, 0.0, 12.0, 2.0},
                         DecodeTier::kKBest));
  }

  CostModel cm;
  const int b = cm.register_backend("cpu", 150e-9, 30e-6);
  f.snr_db = 2.0;
  const double low = cm.predict(f, b, DecodeTier::kPrimary).seconds;
  f.snr_db = 18.0;
  const double high = cm.predict(f, b, DecodeTier::kPrimary).seconds;
  EXPECT_GE(low, high);
  EXPECT_FALSE(cm.predict(f, b, DecodeTier::kPrimary).warm);
}

TEST(DispatchCost, ObservationsCalibratePredictions) {
  CostModelOptions co;
  co.ewma_alpha = 0.5;
  CostModel cm(co);
  const int b = cm.register_backend("cpu", 100e-9, 0.0);
  FrameFeatures f;
  f.num_tx = kM;
  f.mod_order = 4;
  f.snr_db = 10.0;
  f.cond_proxy = 1.5;
  cm.observe(f, b, DecodeTier::kPrimary, 1000, 1000 * 100e-9);
  const CostPrediction p1 = cm.predict(f, b, DecodeTier::kPrimary);
  EXPECT_TRUE(p1.warm);
  EXPECT_DOUBLE_EQ(p1.nodes, 1000.0);  // first observation seeds the EWMA
  cm.observe(f, b, DecodeTier::kPrimary, 2000, 2000 * 100e-9);
  const CostPrediction p2 = cm.predict(f, b, DecodeTier::kPrimary);
  // alpha = 0.5 blend in log domain: the geometric mean of 1000 and 2000.
  EXPECT_NEAR(p2.nodes, std::sqrt(1000.0 * 2000.0), 1e-6);
  EXPECT_EQ(cm.observations(), 2u);
  EXPECT_EQ(cm.bucket_count(), 1u);
  // A different SNR bucket stays cold.
  f.snr_db = 20.0;
  EXPECT_FALSE(cm.predict(f, b, DecodeTier::kPrimary).warm);
}

TEST(DispatchCost, JsonRoundTrip) {
  CostModel a;
  const int cpu = a.register_backend("cpu", 150e-9, 30e-6);
  const int fpga = a.register_backend("fpga", 10e-9, 1e-3);
  FrameFeatures f;
  f.num_tx = kM;
  f.mod_order = 4;
  f.cond_proxy = 1.2;
  for (int i = 0; i < 8; ++i) {
    f.snr_db = 4.0 * i;
    a.observe(f, cpu, DecodeTier::kPrimary, 100u * (i + 1), 1e-4 * (i + 1));
    a.observe(f, fpga, DecodeTier::kKBest, 50u * (i + 1), 2e-5 * (i + 1));
  }
  const std::string json = a.export_json();

  CostModel b;
  (void)b.register_backend("cpu", 1.0, 1.0);  // rates overwritten by import
  (void)b.register_backend("fpga", 1.0, 1.0);
  b.import_json(json);
  EXPECT_EQ(b.observations(), a.observations());
  EXPECT_EQ(b.bucket_count(), a.bucket_count());
  for (int i = 0; i < 8; ++i) {
    f.snr_db = 4.0 * i;
    for (int be : {cpu, fpga}) {
      for (DecodeTier t : {DecodeTier::kPrimary, DecodeTier::kKBest,
                           DecodeTier::kLinear}) {
        const CostPrediction pa = a.predict(f, be, t);
        const CostPrediction pb = b.predict(f, be, t);
        EXPECT_DOUBLE_EQ(pa.nodes, pb.nodes);
        EXPECT_DOUBLE_EQ(pa.seconds, pb.seconds);
        EXPECT_EQ(pa.warm, pb.warm);
      }
    }
  }
  // Re-export is byte-identical: the model is a pure function of its inputs.
  EXPECT_EQ(b.export_json(), json);

  EXPECT_THROW(b.import_json("{\"oops\""), invalid_argument_error);
  EXPECT_THROW(b.import_json("not json at all"), invalid_argument_error);
  CostModel c;
  (void)c.register_backend("other", 1.0, 1.0);
  EXPECT_THROW(c.import_json(json), invalid_argument_error);
}

TEST(DispatchCost, PrepHitAndMissBucketsAreSeparate) {
  CostModel cm;
  const int b = cm.register_backend("cpu", 100e-9, 10e-6);
  FrameFeatures f;
  f.num_tx = kM;
  f.mod_order = 4;
  f.snr_db = 10.0;
  f.cond_proxy = 1.2;
  // A prep-cache hit skips the factorization, so the same scenario observes
  // much cheaper decodes; each outcome must calibrate its own bucket.
  cm.observe(f, b, DecodeTier::kPrimary, 1000, 200e-6, /*prep_hit=*/false);
  cm.observe(f, b, DecodeTier::kPrimary, 1000, 120e-6, /*prep_hit=*/true);
  EXPECT_EQ(cm.bucket_count(), 2u);
  const CostPrediction miss = cm.predict(f, b, DecodeTier::kPrimary, false);
  const CostPrediction hit = cm.predict(f, b, DecodeTier::kPrimary, true);
  EXPECT_TRUE(miss.warm);
  EXPECT_TRUE(hit.warm);
  EXPECT_DOUBLE_EQ(miss.seconds, 200e-6);
  EXPECT_DOUBLE_EQ(hit.seconds, 120e-6);
  // Observing one outcome leaves the other cold.
  f.snr_db = 20.0;
  cm.observe(f, b, DecodeTier::kPrimary, 500, 80e-6, /*prep_hit=*/true);
  EXPECT_FALSE(cm.predict(f, b, DecodeTier::kPrimary, false).warm);
  EXPECT_TRUE(cm.predict(f, b, DecodeTier::kPrimary, true).warm);
}

TEST(DispatchCost, ImportsV1DocumentsAsPrepMissBuckets) {
  // A v1 export predates the prep-hit split; its buckets must land on the
  // ".h0" (miss) side and the hit side must stay cold.
  CostModel a;
  const int cpu = a.register_backend("cpu", 150e-9, 30e-6);
  FrameFeatures f;
  f.num_tx = kM;
  f.mod_order = 4;
  f.snr_db = 10.0;
  f.cond_proxy = 1.2;
  a.observe(f, cpu, DecodeTier::kPrimary, 1234, 5e-4, /*prep_hit=*/false);
  std::string v1 = a.export_json();
  // Rewrite the document into its v1 form: version tag 1, bare bucket keys.
  const std::string cur_tag = "\"schema_version\":3";
  const usize tag_at = v1.find(cur_tag);
  ASSERT_NE(tag_at, std::string::npos);
  v1.replace(tag_at, cur_tag.size(), "\"schema_version\":1");
  usize h0;
  while ((h0 = v1.find(".h0\"")) != std::string::npos) v1.erase(h0, 3);

  CostModel b;
  (void)b.register_backend("cpu", 1.0, 1.0);
  b.import_json(v1);
  EXPECT_EQ(b.observations(), 1u);
  EXPECT_EQ(b.bucket_count(), 1u);
  const CostPrediction miss = b.predict(f, cpu, DecodeTier::kPrimary, false);
  EXPECT_TRUE(miss.warm);
  EXPECT_DOUBLE_EQ(miss.nodes, 1234.0);
  EXPECT_FALSE(b.predict(f, cpu, DecodeTier::kPrimary, true).warm);
  // Re-export upgrades the document to the current schema with the same
  // calibration.
  CostModel c;
  (void)c.register_backend("cpu", 1.0, 1.0);
  c.import_json(b.export_json());
  EXPECT_DOUBLE_EQ(c.predict(f, cpu, DecodeTier::kPrimary, false).nodes,
                   1234.0);
}

TEST(DispatchCost, Int16PriorSeedsColdModelCheaperThanFp32) {
  // apply_rate_priors seeds int16 lanes from the fp32 prior scaled by the
  // bench_quant_kernels lane-level ratio, so a FRESH cost model already
  // orders the quantized substrate cheaper instead of treating both as
  // identical until calibration warms up.
  BackendConfig fp32;
  fp32.kind = BackendKind::kCpu;
  fp32.label = "bfs-fp32";
  fp32.decoder = parse_decoder_spec("bfs");
  apply_rate_priors(fp32);
  BackendConfig int16 = fp32;
  int16.label = "bfs-int16";
  int16.decoder = parse_decoder_spec("bfs:precision=int16");
  apply_rate_priors(int16);
  EXPECT_LT(int16.prior_seconds_per_node, fp32.prior_seconds_per_node);
  EXPECT_DOUBLE_EQ(int16.prior_seconds_per_node * 2.5,
                   fp32.prior_seconds_per_node);

  CostModel cm;
  const int bf = cm.register_backend(fp32.label, fp32.prior_seconds_per_node,
                                     fp32.prior_overhead_s);
  const int bq = cm.register_backend(int16.label, int16.prior_seconds_per_node,
                                     int16.prior_overhead_s);
  FrameFeatures f;
  f.num_tx = kM;
  f.mod_order = 4;
  f.snr_db = 8.0;
  f.cond_proxy = 1.5;
  const CostPrediction pf = cm.predict(f, bf, DecodeTier::kPrimary);
  const CostPrediction pq = cm.predict(f, bq, DecodeTier::kPrimary);
  EXPECT_FALSE(pf.warm);  // both predictions are pure prior
  EXPECT_FALSE(pq.warm);
  EXPECT_LT(pq.seconds, pf.seconds);
}

// ---------------------------------------------------------------------------
// Placement

std::vector<serve::FrameResult> run_window1(
    PlacementPolicy policy, const std::vector<serve::FrameRequest>& frames) {
  Recorder rec;
  DispatcherOptions dopts;
  dopts.policy = policy;
  dopts.cost.adapt_rates = false;  // deterministic predictions
  PoolDefaults pd;
  pd.primary = DecoderSpec{};
  std::vector<BackendConfig> pool = parse_backend_pool(
      "cpu:2:no-steal,fpga:1:rtt-ms=0,kbest:1:k=8", pd);
  Dispatcher d(test_system(), std::move(pool), dopts,
               [&rec](const serve::FrameResult& r) { rec.add(r); });
  for (usize i = 0; i < frames.size(); ++i) {
    serve::FrameRequest f = frames[i];
    EXPECT_EQ(d.submit(std::move(f)), serve::SubmitStatus::kAccepted);
    rec.wait_for(i + 1);  // window = 1: fully serialized placements
  }
  d.drain();
  const serve::ServerMetrics m = d.metrics();
  EXPECT_EQ(m.submitted, frames.size());
  EXPECT_EQ(m.completed, frames.size());
  return rec.take();
}

TEST(DispatchPlacement, SeededStreamPlacesAndDecodesIdentically) {
  // Interleave easy (high SNR) and hard (low SNR) frames so the cost model
  // sees distinct buckets and cost-aware placement has real choices to make.
  const std::vector<Trial> easy = seeded_trials(12, 14.0);
  const std::vector<Trial> hard = seeded_trials(12, 2.0, kSeed + 1);
  std::vector<serve::FrameRequest> frames;
  for (usize i = 0; i < 12; ++i) {
    frames.push_back(make_frame(easy[i], 2 * i));
    frames.push_back(make_frame(hard[i], 2 * i + 1));
  }

  for (PlacementPolicy policy :
       {PlacementPolicy::kCostAware, PlacementPolicy::kRoundRobin}) {
    const std::vector<serve::FrameResult> a = run_window1(policy, frames);
    const std::vector<serve::FrameResult> b = run_window1(policy, frames);
    ASSERT_EQ(a.size(), b.size());
    for (usize i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].backend_id, b[i].backend_id) << "frame " << a[i].id;
      EXPECT_EQ(a[i].worker_id, b[i].worker_id) << "frame " << a[i].id;
      EXPECT_EQ(a[i].lane_id, b[i].lane_id);
      EXPECT_EQ(a[i].tier, b[i].tier);
      EXPECT_EQ(a[i].status, b[i].status);
      EXPECT_EQ(a[i].result.indices, b[i].result.indices);  // bit-identical
      EXPECT_DOUBLE_EQ(a[i].result.metric, b[i].result.metric);
    }
  }
}

TEST(DispatchPlacement, RoundRobinCyclesGlobalLanes) {
  const std::vector<Trial> trials = seeded_trials(8, 10.0);
  std::vector<serve::FrameRequest> frames;
  for (usize i = 0; i < trials.size(); ++i) {
    frames.push_back(make_frame(trials[i], i));
  }
  const std::vector<serve::FrameResult> r =
      run_window1(PlacementPolicy::kRoundRobin, frames);
  ASSERT_EQ(r.size(), 8u);
  for (usize i = 0; i < r.size(); ++i) {
    EXPECT_EQ(r[i].worker_id, i % 4u);  // 2 cpu + 1 fpga + 1 kbest lanes
    EXPECT_EQ(r[i].tier, serve::DecodeTier::kPrimary);
  }
}

TEST(DispatchPlacement, MixedPoolConservesEveryFrameUnderOverload) {
  constexpr usize kFrames = 160;
  Recorder rec;
  DispatcherOptions dopts;
  dopts.policy = PlacementPolicy::kRoundRobin;  // guarantees per-lane traffic
  PoolDefaults pd;
  pd.primary = DecoderSpec{};
  pd.lane_queue_capacity = 4;
  pd.policy = serve::BackpressurePolicy::kReject;
  std::vector<BackendConfig> pool =
      parse_backend_pool("cpu:2,fpga:1,kbest:1", pd);
  Dispatcher d(test_system(), std::move(pool), dopts,
               [&rec](const serve::FrameResult& r) { rec.add(r); });
  const std::vector<Trial> trials = seeded_trials(kFrames, 6.0);
  std::uint64_t rejected = 0;
  for (usize i = 0; i < kFrames; ++i) {
    const serve::SubmitStatus st = d.submit(make_frame(trials[i], i));
    ASSERT_NE(st, serve::SubmitStatus::kClosed);
    if (st == serve::SubmitStatus::kRejected) ++rejected;
  }
  d.drain();

  const serve::ServerMetrics m = d.metrics();
  EXPECT_EQ(m.submitted, kFrames);
  EXPECT_EQ(m.rejected, rejected);
  EXPECT_EQ(m.accounted(), kFrames);  // conservation: no frame silently lost
  EXPECT_EQ(m.in_queue, 0u);
  EXPECT_EQ(rec.take().size(), kFrames - rejected);

  // The per-backend breakdown partitions the aggregate exactly.
  const std::vector<BackendMetrics> bms = d.backend_metrics();
  ASSERT_EQ(bms.size(), 3u);
  std::uint64_t sub = 0, acc = 0;
  for (const BackendMetrics& bm : bms) {
    EXPECT_GT(bm.metrics.submitted, 0u);
    sub += bm.metrics.submitted;
    acc += bm.metrics.accounted();
  }
  EXPECT_EQ(sub, kFrames);
  EXPECT_EQ(acc, kFrames);
  EXPECT_EQ(bms[1].kind, BackendKind::kFpga);
}

// ---------------------------------------------------------------------------
// Trust boundary: a frame no detector can answer in bounded work is refused
// at submit with kInvalid, counted, and leaves the dispatcher serving.

enum class Hostile {
  kZeroSigma2,
  kNegativeSigma2,
  kNanSigma2,
  kInfSigma2,
  kNanH,
  kInfH,
  kNanY,
  kInfY
};

std::string hostile_name(const ::testing::TestParamInfo<Hostile>& info) {
  static const char* const kNames[] = {"ZeroSigma2", "NegativeSigma2",
                                       "NanSigma2",  "InfSigma2",
                                       "NanH",       "InfH",
                                       "NanY",       "InfY"};
  return kNames[static_cast<int>(info.param)];
}

class DispatchTrust : public ::testing::TestWithParam<Hostile> {};

TEST_P(DispatchTrust, RefusedAsInvalidAndTheNextFrameIsAnswered) {
  const real nan = std::numeric_limits<real>::quiet_NaN();
  const real inf = std::numeric_limits<real>::infinity();
  const std::vector<Trial> trials = seeded_trials(2, 10.0);
  Trial bad = trials[0];
  switch (GetParam()) {
    case Hostile::kZeroSigma2: bad.sigma2 = 0.0; break;
    case Hostile::kNegativeSigma2: bad.sigma2 = -0.1; break;
    case Hostile::kNanSigma2: bad.sigma2 = std::nan(""); break;
    case Hostile::kInfSigma2:
      bad.sigma2 = std::numeric_limits<double>::infinity();
      break;
    case Hostile::kNanH: bad.h(3, 2) = cplx{0.5F, nan}; break;
    case Hostile::kInfH: bad.h(0, kM - 1) = cplx{-inf, 0.0F}; break;
    case Hostile::kNanY: bad.y[4] = cplx{nan, 0.0F}; break;
    case Hostile::kInfY: bad.y[0] = cplx{1.0F, inf}; break;
  }

  Recorder rec;
  DispatcherOptions dopts;
  PoolDefaults pd;
  pd.primary = parse_decoder_spec("bfs");
  Dispatcher d(test_system(), parse_backend_pool("cpu:1", pd), dopts,
               [&rec](const serve::FrameResult& r) { rec.add(r); });
  EXPECT_EQ(d.submit(make_frame(bad, 0)), serve::SubmitStatus::kInvalid);
  EXPECT_EQ(d.submit(make_frame(trials[1], 1)),
            serve::SubmitStatus::kAccepted);
  rec.wait_for(1);
  d.drain();

  const std::vector<serve::FrameResult> results = rec.take();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].id, 1u);
  EXPECT_EQ(results[0].status, serve::FrameStatus::kCompleted);
  auto det = make_detector(test_system(), parse_decoder_spec("bfs"));
  const DecodeResult expect =
      det->decode(trials[1].h, trials[1].y, trials[1].sigma2);
  EXPECT_EQ(results[0].result.indices, expect.indices);
  EXPECT_EQ(results[0].result.metric, expect.metric);

  // The refused frame is never submitted, so conservation still holds.
  const serve::ServerMetrics m = d.metrics();
  EXPECT_EQ(m.submitted, 1u);
  EXPECT_EQ(m.accounted(), 1u);
  EXPECT_EQ(d.stats().rejected_invalid, 1u);
  obs::CounterRegistry registry;
  d.stats().export_counters(registry);
  EXPECT_EQ(registry.get_or("dispatch.rejected.invalid"), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, DispatchTrust,
    ::testing::Values(Hostile::kZeroSigma2, Hostile::kNegativeSigma2,
                      Hostile::kNanSigma2, Hostile::kInfSigma2,
                      Hostile::kNanH, Hostile::kInfH, Hostile::kNanY,
                      Hostile::kInfY),
    hostile_name);

// ---------------------------------------------------------------------------
// Overload ladder

TEST(DispatchLadder, DegradesTiersAgainstPredictedDeadline) {
  PoolDefaults pd;
  pd.primary = DecoderSpec{};
  const std::vector<BackendConfig> pool = parse_backend_pool("cpu", pd);

  // A hard (low SNR) frame, and the dispatcher's own cold predictions for
  // it, derived from the same priors the pool entry carries — the test pins
  // the ladder walk, not the constants.
  const Trial t = seeded_trials(1, -5.0).front();
  CostModel probe;
  const int b = probe.register_backend(pool[0].label,
                                       pool[0].prior_seconds_per_node,
                                       pool[0].prior_overhead_s);
  const FrameFeatures f = FrameFeatures::extract(t.h, t.sigma2, 4);
  const double p_sd = probe.predict(f, b, DecodeTier::kPrimary).seconds;
  const double p_kb = probe.predict(f, b, DecodeTier::kKBest).seconds;
  const double p_ln = probe.predict(f, b, DecodeTier::kLinear).seconds;
  ASSERT_GT(p_sd, p_kb);  // at -5 dB the SD prior must dominate K-Best
  ASSERT_GT(p_kb, p_ln);

  const auto degrades_for = [&](double deadline_s) {
    Recorder rec;
    DispatcherOptions dopts;
    dopts.policy = PlacementPolicy::kCostAware;
    dopts.cost.adapt_rates = false;
    std::vector<BackendConfig> p = parse_backend_pool("cpu", pd);
    Dispatcher d(test_system(), std::move(p), dopts,
                 [&rec](const serve::FrameResult& r) { rec.add(r); });
    EXPECT_EQ(d.submit(make_frame(t, 0, deadline_s)),
              serve::SubmitStatus::kAccepted);
    rec.wait_for(1);
    d.drain();
    return d.stats();
  };

  const DispatchStats fits = degrades_for(2.0 * p_sd);
  EXPECT_EQ(fits.degraded_kbest, 0u);
  EXPECT_EQ(fits.degraded_linear, 0u);

  const DispatchStats kb = degrades_for(0.5 * (p_sd + p_kb));
  EXPECT_EQ(kb.degraded_kbest, 1u);
  EXPECT_EQ(kb.degraded_linear, 0u);

  const DispatchStats ln = degrades_for(0.5 * (p_kb + p_ln));
  EXPECT_EQ(ln.degraded_kbest, 0u);
  EXPECT_EQ(ln.degraded_linear, 1u);

  // Nothing fits: the ladder still serves the cheapest tier — it sheds
  // work, never frames.
  const DispatchStats none = degrades_for(0.5 * p_ln);
  EXPECT_EQ(none.degraded_linear, 1u);
}

// ---------------------------------------------------------------------------
// Work stealing

class CaptureSink final : public LaneSink {
 public:
  // `wait_for_steal` holds the first retiring lane until a sibling has
  // stolen — only the stealing test wants that; everyone else would eat
  // the 10 s timeout on every retire (single-lane runs never steal).
  explicit CaptureSink(bool wait_for_steal = false)
      : wait_for_steal_(wait_for_steal) {}

  void frame_retired(const PlacedFrame& placed,
                     serve::FrameResult&& result) override {
    std::unique_lock<std::mutex> lock(mu_);
    // The backlog is deep, so the idle lane must steal — the timeout only
    // guards against a hang if stealing is broken.
    if (wait_for_steal_)
      cv_.wait_for(lock, std::chrono::seconds(10), [&] { return stolen_ > 0; });
    retired_.emplace_back(placed, std::move(result));
  }
  void frame_stolen(const PlacedFrame&, unsigned) override {
    std::lock_guard<std::mutex> lock(mu_);
    ++stolen_;
    cv_.notify_all();
  }
  [[nodiscard]] std::vector<std::pair<PlacedFrame, serve::FrameResult>> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return retired_;
  }
  [[nodiscard]] std::uint64_t stolen() {
    std::lock_guard<std::mutex> lock(mu_);
    return stolen_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::pair<PlacedFrame, serve::FrameResult>> retired_;
  std::uint64_t stolen_ = 0;
  bool wait_for_steal_ = false;
};

TEST(DispatchStealing, StolenFramesDecodeBitIdentically) {
  constexpr usize kFrames = 32;
  const SystemConfig sys = test_system();
  BackendConfig cfg;
  cfg.kind = BackendKind::kCpu;
  cfg.label = "cpu";
  cfg.lanes = 2;
  cfg.decoder = DecoderSpec{};
  cfg.lane_queue_capacity = kFrames;
  cfg.allow_stealing = true;
  apply_rate_priors(cfg);
  Backend backend(sys, cfg);

  // Pile every frame onto lane 0 *before* starting the lanes: lane 1 wakes
  // idle against a deep sibling backlog and must steal.
  const std::vector<Trial> trials = seeded_trials(kFrames, 6.0);
  for (usize i = 0; i < kFrames; ++i) {
    PlacedFrame pf;
    pf.frame = make_frame(trials[i], i);
    pf.frame.submit_time = serve::Clock::now();
    pf.lane = 0;
    const Backend::PushResult pr = backend.place(std::move(pf));
    ASSERT_EQ(pr.status, serve::PushStatus::kAccepted);
  }
  CaptureSink sink{/*wait_for_steal=*/true};
  backend.start(sink);
  backend.close();  // lanes drain the backlog, then exit
  backend.join();

  auto retired = sink.take();
  ASSERT_EQ(retired.size(), kFrames);
  EXPECT_GT(backend.snapshot().steals, 0u);
  EXPECT_EQ(backend.snapshot().steals, sink.stolen());

  // Stolen or not, every decode matches the single-shot reference bit for
  // bit: lanes share one DecoderSpec, so rebinding a frame cannot change
  // its result.
  auto reference = make_detector(sys, DecoderSpec{});
  bool saw_stolen = false;
  for (const auto& [placed, result] : retired) {
    saw_stolen = saw_stolen || result.stolen;
    const Trial& t = trials[result.id];
    const DecodeResult want = reference->decode(t.h, t.y, t.sigma2);
    EXPECT_EQ(result.result.indices, want.indices) << "frame " << result.id;
    EXPECT_DOUBLE_EQ(result.result.metric, want.metric);
    if (result.stolen) {
      EXPECT_EQ(result.lane_id, 1u);
    }
  }
  EXPECT_TRUE(saw_stolen);
}

TEST(DispatchCoherent, FusedRunsAreBitIdenticalAndAccounted) {
  // Pre-fill one lane with 4 coherence blocks of 8 frames sharing a handle,
  // then start it: every pop is one maximal same-channel run of 8, so the
  // fused path executes deterministically — one factorization per block, one
  // decode_wide per pop.
  constexpr usize kBlock = 8;
  constexpr usize kBlocks = 4;
  constexpr usize kFrames = kBlock * kBlocks;
  const SystemConfig sys = test_system();
  BackendConfig cfg;
  cfg.kind = BackendKind::kCpu;
  cfg.label = "cpu";
  cfg.lanes = 1;
  cfg.decoder = parse_decoder_spec("bfs");
  cfg.lane_queue_capacity = kFrames;
  cfg.batch_size = kBlock;
  apply_rate_priors(cfg);
  Backend backend(sys, cfg);

  ScenarioConfig sc;
  sc.num_tx = kM;
  sc.num_rx = kM;
  sc.modulation = Modulation::kQam4;
  sc.snr_db = 8.0;
  sc.seed = kSeed;
  sc.coherence_block = kBlock;
  Scenario scenario(sc);
  std::vector<Trial> trials;
  for (usize i = 0; i < kFrames; ++i) trials.push_back(scenario.next());

  for (usize block = 0; block < kBlocks; ++block) {
    const ChannelHandle shared(trials[block * kBlock].h);
    for (usize j = 0; j < kBlock; ++j) {
      const usize i = block * kBlock + j;
      PlacedFrame pf;
      pf.frame.id = i;
      pf.frame.channel = shared;
      pf.frame.y = trials[i].y;
      pf.frame.sigma2 = trials[i].sigma2;
      pf.frame.submit_time = serve::Clock::now();
      pf.lane = 0;
      ASSERT_EQ(backend.place(std::move(pf)).status,
                serve::PushStatus::kAccepted);
    }
  }
  CaptureSink sink;
  backend.start(sink);
  backend.close();
  backend.join();

  const Backend::Snapshot snap = backend.snapshot();
  EXPECT_EQ(snap.frames, kFrames);
  EXPECT_EQ(snap.completed, kFrames);
  EXPECT_EQ(snap.prep_misses, kBlocks);  // one factorization per block
  EXPECT_EQ(snap.prep_hits, kFrames - kBlocks);
  EXPECT_EQ(snap.fused_runs, kBlocks);
  EXPECT_EQ(snap.fused_frames, kFrames);
  ASSERT_GT(snap.fused_width_counts.size(), kBlock);
  EXPECT_EQ(snap.fused_width_counts[kBlock], kBlocks);

  // Fusion must be invisible in the bits: every frame matches the one-shot
  // decode of its trial.
  auto reference = make_detector(sys, parse_decoder_spec("bfs"));
  auto retired = sink.take();
  ASSERT_EQ(retired.size(), kFrames);
  for (const auto& [placed, result] : retired) {
    EXPECT_EQ(result.status, serve::FrameStatus::kCompleted);
    const Trial& t = trials[result.id];
    const DecodeResult want = reference->decode(t.h, t.y, t.sigma2);
    EXPECT_EQ(result.result.indices, want.indices) << "frame " << result.id;
    EXPECT_EQ(result.result.metric, want.metric) << "frame " << result.id;
    EXPECT_EQ(result.result.stats.nodes_expanded,
              want.stats.nodes_expanded) << "frame " << result.id;
    EXPECT_TRUE(placed.prep_hit || result.id % kBlock == 0)
        << "frame " << result.id;
  }
}

TEST(DispatchCoherent, InterleavedCellsFuseAcrossChannelBoundaries) {
  // Two coherent streams with DIFFERENT channels interleaved frame-by-frame
  // (A,B,A,B,...) on one lane. Runs split on tier only, so every pop of 8 is
  // ONE wide fused run spanning both channels, and each distinct channel is
  // factorized exactly once — the cross-channel generalization of the
  // same-channel fusion above.
  constexpr usize kBatch = 8;
  constexpr usize kPops = 2;
  constexpr usize kFrames = kBatch * kPops;
  const SystemConfig sys = test_system();
  BackendConfig cfg;
  cfg.kind = BackendKind::kCpu;
  cfg.label = "cpu";
  cfg.lanes = 1;
  cfg.decoder = parse_decoder_spec("bfs");
  cfg.lane_queue_capacity = kFrames;
  cfg.batch_size = kBatch;
  apply_rate_priors(cfg);
  Backend backend(sys, cfg);

  // Two scenarios, one coherent channel each: stream A and stream B.
  auto coherent_trials = [](std::uint64_t seed) {
    ScenarioConfig sc;
    sc.num_tx = kM;
    sc.num_rx = kM;
    sc.modulation = Modulation::kQam4;
    sc.snr_db = 8.0;
    sc.seed = seed;
    sc.coherence_block = kFrames / 2;
    Scenario scenario(sc);
    std::vector<Trial> trials;
    for (usize i = 0; i < kFrames / 2; ++i) trials.push_back(scenario.next());
    return trials;
  };
  const std::vector<Trial> stream_a = coherent_trials(kSeed);
  const std::vector<Trial> stream_b = coherent_trials(kSeed + 7);
  const ChannelHandle chan_a(stream_a[0].h);
  const ChannelHandle chan_b(stream_b[0].h);

  std::vector<const Trial*> order(kFrames);
  for (usize i = 0; i < kFrames; ++i) {
    order[i] = (i % 2 == 0) ? &stream_a[i / 2] : &stream_b[i / 2];
    PlacedFrame pf;
    pf.frame.id = i;
    pf.frame.channel = (i % 2 == 0) ? chan_a : chan_b;
    pf.frame.y = order[i]->y;
    pf.frame.sigma2 = order[i]->sigma2;
    pf.frame.submit_time = serve::Clock::now();
    pf.lane = 0;
    ASSERT_EQ(backend.place(std::move(pf)).status,
              serve::PushStatus::kAccepted);
  }
  CaptureSink sink;
  backend.start(sink);
  backend.close();
  backend.join();

  const Backend::Snapshot snap = backend.snapshot();
  EXPECT_EQ(snap.completed, kFrames);
  // The interleaving must NOT split the runs: one fused run per pop at the
  // full batch width, with only two factorizations across the whole stream.
  EXPECT_EQ(snap.fused_runs, kPops);
  EXPECT_EQ(snap.fused_frames, kFrames);
  ASSERT_GT(snap.fused_width_counts.size(), kBatch);
  EXPECT_EQ(snap.fused_width_counts[kBatch], kPops);
  EXPECT_EQ(snap.prep_misses, 2u);  // A and B, once each
  EXPECT_EQ(snap.prep_hits, kFrames - 2);

  auto reference = make_detector(sys, parse_decoder_spec("bfs"));
  auto retired = sink.take();
  ASSERT_EQ(retired.size(), kFrames);
  for (const auto& [placed, result] : retired) {
    EXPECT_EQ(result.status, serve::FrameStatus::kCompleted);
    const Trial& t = *order[result.id];
    const DecodeResult want = reference->decode(t.h, t.y, t.sigma2);
    EXPECT_EQ(result.result.indices, want.indices) << "frame " << result.id;
    EXPECT_EQ(result.result.metric, want.metric) << "frame " << result.id;
    EXPECT_EQ(result.result.stats.nodes_expanded, want.stats.nodes_expanded)
        << "frame " << result.id;
  }
}

// Places `frames` (each on its own `lane`) before the lanes start, drains the
// backend and returns every retirement in retirement order. Nothing races
// the pre-filled queues, so pops, runs and counters are deterministic.
std::vector<std::pair<PlacedFrame, serve::FrameResult>> drain_prefilled(
    Backend& backend, std::vector<PlacedFrame> frames) {
  for (PlacedFrame& pf : frames) {
    pf.frame.submit_time = serve::Clock::now();
    EXPECT_EQ(backend.place(std::move(pf)).status,
              serve::PushStatus::kAccepted);
  }
  CaptureSink sink;
  backend.start(sink);
  backend.close();
  backend.join();
  return sink.take();
}

TEST(DispatchCoherent, WidthOneSphereRunsMatchOneShot) {
  // batch=1 Best-FS on one lane: every pop is a width-1 run with its own
  // factorization, charged at its measured service time.
  constexpr usize kFrames = 8;
  const SystemConfig sys = test_system();
  BackendConfig cfg;
  cfg.lanes = 1;
  cfg.decoder = DecoderSpec{};
  cfg.lane_queue_capacity = kFrames;
  cfg.batch_size = 1;
  apply_rate_priors(cfg);
  auto backend = make_backend(sys, cfg);

  const std::vector<Trial> trials = seeded_trials(kFrames, 10.0);
  std::vector<PlacedFrame> frames(kFrames);
  for (usize i = 0; i < kFrames; ++i) frames[i].frame = make_frame(trials[i], i);
  const auto retired = drain_prefilled(*backend, std::move(frames));

  const Backend::Snapshot snap = backend->snapshot();
  EXPECT_EQ(snap.frames, kFrames);
  EXPECT_EQ(snap.completed, kFrames);
  EXPECT_EQ(snap.expired_fallback, 0u);
  EXPECT_EQ(snap.expired_dropped, 0u);
  EXPECT_EQ(snap.steals, 0u);
  EXPECT_EQ(snap.degraded_kbest + snap.degraded_mmse + snap.degraded_linear,
            0u);
  EXPECT_EQ(snap.prep_misses, kFrames);  // i.i.d. channels
  EXPECT_EQ(snap.prep_hits, 0u);
  EXPECT_EQ(snap.fused_runs, 0u);
  EXPECT_EQ(snap.fused_frames, 0u);
  EXPECT_TRUE(snap.fused_width_counts.empty());
  EXPECT_EQ(snap.former_runs, 0u);
  EXPECT_EQ(snap.former_gathered, 0u);
  EXPECT_EQ(snap.former_empty, 0u);
  ASSERT_EQ(snap.lanes.size(), 1u);
  EXPECT_EQ(snap.lanes[0].frames, kFrames);
  EXPECT_EQ(snap.lanes[0].batches, kFrames);

  auto reference = make_detector(sys, DecoderSpec{});
  ASSERT_EQ(retired.size(), kFrames);
  for (usize i = 0; i < kFrames; ++i) {
    const auto& [placed, result] = retired[i];
    EXPECT_EQ(result.id, i);  // one lane retires in placement order
    EXPECT_EQ(result.status, serve::FrameStatus::kCompleted);
    EXPECT_EQ(result.tier, serve::DecodeTier::kPrimary);
    EXPECT_EQ(result.lane_id, 0u);
    EXPECT_FALSE(result.deadline_missed);
    EXPECT_FALSE(placed.prep_hit);
    const DecodeResult want =
        reference->decode(trials[i].h, trials[i].y, trials[i].sigma2);
    EXPECT_EQ(result.result.indices, want.indices) << "frame " << i;
    EXPECT_EQ(result.result.metric, want.metric) << "frame " << i;
    EXPECT_EQ(result.result.stats.nodes_expanded, want.stats.nodes_expanded);
    EXPECT_EQ(placed.charged_seconds, result.service_s) << "frame " << i;
  }
}

TEST(DispatchCoherent, PrepMissIsBookedAsServiceNotQueueWait) {
  // A lone frame reaches an idle lane with a channel whose factorization
  // dominates its decode: 128x128 Best-FS at high SNR searches briefly. The
  // lane stamps the dequeue before resolving the channel, so the QR lands
  // in service_s — and in the charged time the cost model's prep-miss
  // bucket calibrates against — not in queue_wait_s. Queue wait ends where
  // service begins, so the check is that the service interval contains the
  // build the lane itself timed: both are read from the same steady clock,
  // the build nested inside the service, so no scheduling delay can invert
  // them. Had the dequeue been stamped after the build, service_s would
  // hold only the brief search.
  constexpr index_t kBig = 128;
  const SystemConfig sys{kBig, kBig, Modulation::kQam4};
  ScenarioConfig sc;
  sc.num_tx = kBig;
  sc.num_rx = kBig;
  sc.modulation = Modulation::kQam4;
  sc.snr_db = 30.0;
  sc.seed = kSeed;
  const Trial t = Scenario(sc).next();

  BackendConfig cfg;
  cfg.lanes = 1;
  cfg.decoder = DecoderSpec{};
  apply_rate_priors(cfg);
  Backend backend(sys, cfg);
  CaptureSink sink;
  backend.start(sink);
  // Let the lane go idle on its empty queue before the frame arrives.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  PlacedFrame pf;
  pf.frame = make_frame(t, 0);
  pf.frame.submit_time = serve::Clock::now();
  ASSERT_EQ(backend.place(std::move(pf)).status, serve::PushStatus::kAccepted);
  backend.close();
  backend.join();

  const auto retired = sink.take();
  ASSERT_EQ(retired.size(), 1u);
  const auto& [placed, result] = retired[0];
  EXPECT_EQ(result.status, serve::FrameStatus::kCompleted);
  EXPECT_FALSE(placed.prep_hit);
  EXPECT_EQ(backend.snapshot().prep_misses, 1u);
  // The prep the lane built and timed, looked up (not rebuilt) by content.
  bool hit = false;
  const auto prep = BackendTestAccess::prep_cache(backend).get_or_build(
      ChannelHandle(t.h), make_detector(sys, DecoderSpec{})->prep_kind(),
      &hit);
  ASSERT_TRUE(hit);
  EXPECT_GT(prep->build_seconds, 0.0);
  EXPECT_GE(result.service_s, prep->build_seconds);
  EXPECT_EQ(placed.charged_seconds, result.service_s);
}

TEST(DispatchCoherent, ExpiredFrameMidRunPeelsOffTheFusedRun) {
  // One coherence block of 8 BFS frames popped as one run; frame 3 carries
  // an already-spent deadline. It leaves the run for the ZF fallback (or is
  // dropped) without resolving its channel, and the remaining 7 frames
  // decode as one fused run.
  constexpr usize kBlock = 8;
  constexpr usize kExpired = 3;
  const SystemConfig sys = test_system();
  ScenarioConfig sc;
  sc.num_tx = kM;
  sc.num_rx = kM;
  sc.modulation = Modulation::kQam4;
  sc.snr_db = 8.0;
  sc.seed = kSeed;
  sc.coherence_block = kBlock;
  Scenario scenario(sc);
  std::vector<Trial> trials;
  for (usize i = 0; i < kBlock; ++i) trials.push_back(scenario.next());
  const ChannelHandle shared(trials[0].h);

  auto reference = make_detector(sys, parse_decoder_spec("bfs"));
  LinearDetector zf(LinearKind::kZf, Constellation::get(Modulation::kQam4));
  for (const bool fallback : {true, false}) {
    SCOPED_TRACE(fallback ? "zf fallback" : "drop");
    BackendConfig cfg;
    cfg.lanes = 1;
    cfg.decoder = parse_decoder_spec("bfs");
    cfg.lane_queue_capacity = kBlock;
    cfg.batch_size = kBlock;
    cfg.zf_fallback_on_expiry = fallback;
    apply_rate_priors(cfg);
    auto backend = make_backend(sys, cfg);

    std::vector<PlacedFrame> frames(kBlock);
    for (usize i = 0; i < kBlock; ++i) {
      frames[i].frame.id = i;
      frames[i].frame.channel = shared;
      frames[i].frame.y = trials[i].y;
      frames[i].frame.sigma2 = trials[i].sigma2;
      frames[i].frame.deadline_s = i == kExpired ? 1e-12 : 0.0;
    }
    const auto retired = drain_prefilled(*backend, std::move(frames));

    const Backend::Snapshot snap = backend->snapshot();
    EXPECT_EQ(snap.frames, kBlock);
    EXPECT_EQ(snap.completed, kBlock - 1);
    EXPECT_EQ(snap.expired_fallback, fallback ? 1u : 0u);
    EXPECT_EQ(snap.expired_dropped, fallback ? 0u : 1u);
    EXPECT_EQ(snap.degraded_kbest + snap.degraded_mmse + snap.degraded_linear,
              0u);
    EXPECT_EQ(snap.prep_misses, 1u);
    EXPECT_EQ(snap.prep_hits, kBlock - 2);  // the expired frame counts in neither
    EXPECT_EQ(snap.fused_runs, 1u);
    EXPECT_EQ(snap.fused_frames, kBlock - 1);
    ASSERT_EQ(snap.fused_width_counts.size(), kBlock);
    EXPECT_EQ(snap.fused_width_counts[kBlock - 1], 1u);
    EXPECT_EQ(snap.former_runs + snap.former_gathered + snap.former_empty, 0u);
    EXPECT_EQ(snap.lanes[0].batches, 1u);

    ASSERT_EQ(retired.size(), kBlock);
    for (usize i = 0; i < kBlock; ++i) {
      const auto& [placed, result] = retired[i];
      EXPECT_EQ(result.id, i);
      EXPECT_EQ(placed.prep_hit, i != 0 && i != kExpired) << "frame " << i;
      // The run finishes together: one service time for all its frames.
      EXPECT_EQ(result.service_s, retired[0].second.service_s);
      if (i == kExpired) {
        EXPECT_TRUE(result.deadline_missed);
        EXPECT_EQ(placed.charged_seconds, result.service_s);
        if (fallback) {
          EXPECT_EQ(result.status, serve::FrameStatus::kExpiredFallback);
          EXPECT_EQ(result.tier, serve::DecodeTier::kLinear);
          const DecodeResult want =
              zf.decode(trials[i].h, trials[i].y, trials[i].sigma2);
          EXPECT_EQ(result.result.indices, want.indices);
          EXPECT_EQ(result.result.metric, want.metric);
        } else {
          EXPECT_EQ(result.status, serve::FrameStatus::kExpiredDropped);
          EXPECT_EQ(result.tier, serve::DecodeTier::kPrimary);
          EXPECT_TRUE(result.result.indices.empty());
        }
        continue;
      }
      EXPECT_EQ(result.status, serve::FrameStatus::kCompleted) << "frame " << i;
      EXPECT_EQ(result.tier, serve::DecodeTier::kPrimary);
      EXPECT_FALSE(result.deadline_missed);
      // Completed frames share the run's service time evenly.
      EXPECT_EQ(placed.charged_seconds,
                result.service_s / static_cast<double>(kBlock - 1));
      const DecodeResult want =
          reference->decode(trials[i].h, trials[i].y, trials[i].sigma2);
      EXPECT_EQ(result.result.indices, want.indices) << "frame " << i;
      EXPECT_EQ(result.result.metric, want.metric) << "frame " << i;
      EXPECT_EQ(result.result.stats.nodes_expanded, want.stats.nodes_expanded);
    }
  }
}

TEST(DispatchCoherent, UncacheableRunsArePacedPerFrame) {
  // Detectors without a cacheable channel phase (DFS, the FPGA model) have
  // nothing to share across a run, so a popped batch of 8 decodes and paces
  // frame by frame: each frame sleeps to its own search time plus one RTT.
  constexpr usize kFrames = 8;
  constexpr double kRtt = 5e-3;
  const SystemConfig sys = test_system();
  const std::vector<Trial> trials = seeded_trials(kFrames, 10.0);
  struct Case {
    std::string pool;
    std::string primary;
    std::string reference;
  };
  for (const Case& c : {Case{"dfs:1:rtt-ms=5", "sphere", "dfs"},
                        Case{"cpu:1:rtt-ms=5", "sphere@fpga", "sphere@fpga"}}) {
    SCOPED_TRACE(c.pool + " primary " + c.primary);
    PoolDefaults pd;
    pd.primary = parse_decoder_spec(c.primary);
    pd.batch_size = kFrames;
    pd.lane_queue_capacity = kFrames;
    std::vector<BackendConfig> pool = parse_backend_pool(c.pool, pd);
    ASSERT_TRUE(pool[0].pace_to_charged);
    const double rtt = pool[0].rtt_s;
    ASSERT_DOUBLE_EQ(rtt, kRtt);
    auto backend = make_backend(sys, std::move(pool[0]));

    std::vector<PlacedFrame> frames(kFrames);
    for (usize i = 0; i < kFrames; ++i) frames[i].frame = make_frame(trials[i], i);
    const auto retired = drain_prefilled(*backend, std::move(frames));

    const Backend::Snapshot snap = backend->snapshot();
    EXPECT_EQ(snap.frames, kFrames);
    EXPECT_EQ(snap.completed, kFrames);
    EXPECT_EQ(snap.expired_fallback + snap.expired_dropped, 0u);
    EXPECT_EQ(snap.prep_hits + snap.prep_misses, 0u);  // nothing cacheable
    EXPECT_EQ(snap.fused_runs, 0u);
    EXPECT_EQ(snap.fused_frames, 0u);
    EXPECT_TRUE(snap.fused_width_counts.empty());
    EXPECT_EQ(snap.former_runs + snap.former_gathered + snap.former_empty, 0u);
    EXPECT_EQ(snap.lanes[0].frames, kFrames);
    EXPECT_EQ(snap.lanes[0].batches, 1u);  // one pop of 8

    auto reference = make_detector(sys, parse_decoder_spec(c.reference));
    ASSERT_EQ(retired.size(), kFrames);
    for (usize i = 0; i < kFrames; ++i) {
      const auto& [placed, result] = retired[i];
      EXPECT_EQ(result.id, i);
      EXPECT_EQ(result.status, serve::FrameStatus::kCompleted);
      EXPECT_EQ(result.tier, serve::DecodeTier::kPrimary);
      EXPECT_FALSE(placed.prep_hit);
      const double charged = result.result.stats.search_seconds + rtt;
      EXPECT_GE(result.service_s, charged) << "frame " << i;
      EXPECT_EQ(placed.charged_seconds, charged) << "frame " << i;
      const DecodeResult want =
          reference->decode(trials[i].h, trials[i].y, trials[i].sigma2);
      EXPECT_EQ(result.result.indices, want.indices) << "frame " << i;
      EXPECT_EQ(result.result.metric, want.metric) << "frame " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-lane wide-batch former (DESIGN.md §16)

// Interleaves kCells seeded single-cell streams round-robin: consecutive
// frames carry DIFFERENT channels, the multi-cell traffic shape the former
// is built to fuse across.
std::vector<Trial> interleaved_cell_trials(usize cells, usize per_cell,
                                           double snr_db) {
  std::vector<Trial> trials(cells * per_cell);
  for (usize cell = 0; cell < cells; ++cell) {
    const std::vector<Trial> s = seeded_trials(per_cell, snr_db, kSeed + cell);
    for (usize k = 0; k < per_cell; ++k) trials[cell + k * cells] = s[k];
  }
  return trials;
}

// Pre-loads `trials` round-robin across the backend's lanes, runs the pool
// to drain, and returns every retirement plus the final snapshot.
std::vector<std::pair<PlacedFrame, serve::FrameResult>> run_former_backend(
    const std::string& pool_spec, bool former, const std::vector<Trial>& trials,
    Backend::Snapshot& snap) {
  PoolDefaults pd;
  pd.primary = parse_decoder_spec("bfs");
  pd.batch_size = 1;  // B=1: wide runs exist only if the former gathers them
  pd.lane_queue_capacity = trials.size();
  std::vector<BackendConfig> pool = parse_backend_pool(pool_spec, pd);
  pool[0].cross_lane_former = former;
  const unsigned lanes = pool[0].lanes;
  auto backend = make_backend(test_system(), std::move(pool[0]));
  for (usize i = 0; i < trials.size(); ++i) {
    PlacedFrame pf;
    pf.frame = make_frame(trials[i], i);
    pf.frame.submit_time = serve::Clock::now();
    pf.lane = static_cast<unsigned>(i % lanes);
    EXPECT_EQ(backend->place(std::move(pf)).status,
              serve::PushStatus::kAccepted);
  }
  CaptureSink sink;
  backend->start(sink);
  backend->close();
  backend->join();
  snap = backend->snapshot();
  return sink.take();
}

TEST(DispatchFormer, WideFormationIsBitIdenticalAcrossConfigs) {
  // The acceptance invariant of the whole feature: seeded multi-cell traffic
  // through a 4-lane backend decodes to the same bits with the former off
  // (sequential width-1 runs), the former on (cross-lane wide runs), and a
  // ParallelSd backend whose wide runs are themselves partitioned across
  // 1/2/4 PE workers. Every configuration is compared against the one-shot
  // reference decode of its own detector family.
  constexpr usize kCells = 4;
  constexpr usize kPerCell = 10;
  constexpr usize kFrames = kCells * kPerCell;
  const std::vector<Trial> trials =
      interleaved_cell_trials(kCells, kPerCell, 8.0);
  const SystemConfig sys = test_system();

  struct Config {
    std::string pool;
    bool former;
    std::string reference;
  };
  const std::vector<Config> configs = {
      {"bfs:4", false, "bfs"},
      {"bfs:4", true, "bfs"},
      {"multipe:4:threads=1", true, "multipe:threads=1"},
      {"multipe:4:threads=2", true, "multipe:threads=1"},
      {"multipe:4:threads=4", true, "multipe:threads=1"},
  };
  for (const Config& c : configs) {
    Backend::Snapshot snap;
    auto retired = run_former_backend(c.pool, c.former, trials, snap);
    ASSERT_EQ(retired.size(), kFrames) << c.pool;
    EXPECT_EQ(snap.completed, kFrames) << c.pool;
    if (c.former) {
      // With every lane backlogged and B=1, the former must actually form
      // wide runs — a silently disabled former would still pass the bit
      // checks below.
      EXPECT_GT(snap.former_gathered, 0u) << c.pool;
      EXPECT_GT(snap.fused_frames, 0u) << c.pool;
    } else {
      EXPECT_EQ(snap.former_gathered, 0u) << c.pool;
      EXPECT_EQ(snap.fused_runs, 0u) << c.pool;
    }
    auto reference = make_detector(sys, parse_decoder_spec(c.reference));
    for (const auto& [placed, result] : retired) {
      EXPECT_EQ(result.status, serve::FrameStatus::kCompleted) << c.pool;
      const Trial& t = trials[result.id];
      const DecodeResult want = reference->decode(t.h, t.y, t.sigma2);
      EXPECT_EQ(result.result.indices, want.indices)
          << c.pool << " frame " << result.id;
      EXPECT_DOUBLE_EQ(result.result.metric, want.metric)
          << c.pool << " frame " << result.id;
    }
  }
}

TEST(DispatchFormer, GatherAndStealRetireEveryFrameExactlyOnce) {
  // The claim-window regression for former + work stealing: both mechanisms
  // remove frames under the same lock, so a frame can be claimed exactly
  // once no matter how gathers and steals interleave. Frames pile onto
  // lanes 0 and 1 only: those lanes pop-and-gather from each other while
  // lanes 2 and 3 steal from them concurrently.
  constexpr usize kFrames = 64;
  const SystemConfig sys = test_system();
  BackendConfig cfg;
  cfg.kind = BackendKind::kCpu;
  cfg.label = "cpu";
  cfg.lanes = 4;
  cfg.decoder = parse_decoder_spec("bfs");
  cfg.lane_queue_capacity = kFrames;
  cfg.batch_size = 2;
  cfg.allow_stealing = true;
  cfg.cross_lane_former = true;
  apply_rate_priors(cfg);
  Backend backend(sys, cfg);

  const std::vector<Trial> trials = seeded_trials(kFrames, 6.0);
  for (usize i = 0; i < kFrames; ++i) {
    PlacedFrame pf;
    pf.frame = make_frame(trials[i], i);
    pf.frame.submit_time = serve::Clock::now();
    pf.lane = static_cast<unsigned>(i % 2);
    ASSERT_EQ(backend.place(std::move(pf)).status,
              serve::PushStatus::kAccepted);
  }
  CaptureSink sink;
  backend.start(sink);
  backend.close();
  backend.join();

  auto retired = sink.take();
  ASSERT_EQ(retired.size(), kFrames);
  std::vector<int> seen(kFrames, 0);
  for (const auto& [placed, result] : retired) {
    ASSERT_LT(result.id, kFrames);
    ++seen[result.id];
  }
  for (usize i = 0; i < kFrames; ++i) {
    EXPECT_EQ(seen[i], 1) << "frame " << i;  // no frame dropped or decoded twice
  }
  const Backend::Snapshot snap = backend.snapshot();
  EXPECT_EQ(snap.frames, kFrames);
  EXPECT_EQ(snap.completed, kFrames);
  EXPECT_EQ(snap.in_queue, 0u);
  // Gathered frames are not steals: the counters stay disjoint, and the sink
  // hears about every rebinding through either channel.
  EXPECT_EQ(sink.stolen(), snap.steals + snap.former_gathered);
}

TEST(DispatchPlacement, GeometryRoutesTallToMmseAndSquareToSd) {
  // The massive-MIMO placement pin (PR 10): a mixed pool of a tree-search
  // backend and an MMSE-Neumann backend, fed mixed square + tall traffic
  // under the cost-aware policy with a cold, frozen model. The geometry term
  // in the kMmseApprox prior must send every tall frame to the MMSE backend
  // (diagonally dominant Gram, a couple of GEMVs) and every square frame to
  // the tree search (the Neumann penalty diverges as N_r -> M).
  constexpr usize kEach = 8;
  const std::vector<Trial> square = seeded_trials(kEach, 10.0);
  std::vector<Trial> tall;
  {
    ScenarioConfig sc;
    sc.num_tx = kM;
    sc.num_rx = 4 * kM;
    sc.modulation = Modulation::kQam4;
    sc.snr_db = 10.0;
    sc.seed = kSeed + 99;
    Scenario scenario(sc);
    for (usize i = 0; i < kEach; ++i) tall.push_back(scenario.next());
  }

  Recorder rec;
  DispatcherOptions dopts;
  dopts.policy = PlacementPolicy::kCostAware;
  dopts.cost.adapt_rates = false;  // frozen priors: placement is pure geometry
  PoolDefaults pd;
  pd.primary = DecoderSpec{};
  std::vector<BackendConfig> pool =
      parse_backend_pool("cpu:1:no-steal,mmse-neumann:1:no-steal", pd);
  Dispatcher d(test_system(), std::move(pool), dopts,
               [&rec](const serve::FrameResult& r) { rec.add(r); });
  for (usize i = 0; i < kEach; ++i) {
    EXPECT_EQ(d.submit(make_frame(square[i], i)),
              serve::SubmitStatus::kAccepted);
    EXPECT_EQ(d.submit(make_frame(tall[i], 100 + i)),
              serve::SubmitStatus::kAccepted);
    rec.wait_for(2 * (i + 1));  // window 1: placements see a drained pool
  }
  d.drain();

  for (const serve::FrameResult& r : rec.take()) {
    EXPECT_EQ(r.status, serve::FrameStatus::kCompleted);
    EXPECT_EQ(r.tier, serve::DecodeTier::kPrimary);  // routed, not degraded
    if (r.id < 100) {
      EXPECT_EQ(r.backend_id, 0) << "square frame " << r.id;
    } else {
      EXPECT_EQ(r.backend_id, 1) << "tall frame " << r.id;
    }
  }
  const std::vector<BackendMetrics> bms = d.backend_metrics();
  ASSERT_EQ(bms.size(), 2u);
  EXPECT_EQ(bms[0].label, "cpu");
  EXPECT_EQ(bms[0].metrics.submitted, kEach);
  EXPECT_EQ(bms[1].label, "mmse-neumann");
  EXPECT_EQ(bms[1].metrics.submitted, kEach);
  EXPECT_EQ(d.stats().degraded_mmse, 0u);  // primary routing, not the ladder
}

TEST(DispatchFormer, PacedBackendAmortizesRttAcrossGatheredRuns) {
  // Former-aware pacing (PR 10 satellite): a paced backend's gathered run
  // ships as ONE device round trip, so its pacing sleep charges
  // rtt + sum(search) once per run instead of rtt per frame. With a 40 ms
  // RTT and 8 frames per lane, the per-frame floor is ~320 ms of sleep per
  // lane; the former must land far under it while decoding the same bits.
  constexpr usize kFrames = 16;
  const std::vector<Trial> trials = seeded_trials(kFrames, 10.0);

  const auto timed = [&](bool former, Backend::Snapshot& snap, double& wall) {
    const auto t0 = serve::Clock::now();
    auto retired = run_former_backend("cpu:2:rtt-ms=40", former, trials, snap);
    wall = std::chrono::duration<double>(serve::Clock::now() - t0).count();
    return retired;
  };

  Backend::Snapshot paced_per_frame, paced_fused;
  double wall_per_frame = 0.0, wall_fused = 0.0;
  auto slow = timed(false, paced_per_frame, wall_per_frame);
  auto fast = timed(true, paced_fused, wall_fused);
  ASSERT_EQ(slow.size(), kFrames);
  ASSERT_EQ(fast.size(), kFrames);
  EXPECT_EQ(paced_fused.completed, kFrames);
  EXPECT_GT(paced_fused.former_gathered, 0u);

  // Width-1 runs pay the RTT per frame: 8 frames on each of 2 lanes.
  EXPECT_GE(wall_per_frame, 0.3);
  // Gathered runs pay it per run. Even a conservative gather (several runs
  // per lane) halves the sleep; a full gather needs just one per lane.
  EXPECT_LT(wall_fused, 0.5 * wall_per_frame);

  // Pacing is a timing policy, never a result policy: both configurations
  // decode bit-identically to the one-shot reference.
  auto reference = make_detector(test_system(), parse_decoder_spec("bfs"));
  for (const auto* retired : {&slow, &fast}) {
    for (const auto& [placed, result] : *retired) {
      EXPECT_EQ(result.status, serve::FrameStatus::kCompleted);
      EXPECT_EQ(result.tier, serve::DecodeTier::kPrimary);
      EXPECT_GE(result.service_s, 40e-3) << "frame " << result.id;
      const Trial& t = trials[result.id];
      const DecodeResult want = reference->decode(t.h, t.y, t.sigma2);
      EXPECT_EQ(result.result.indices, want.indices) << "frame " << result.id;
      EXPECT_EQ(result.result.metric, want.metric) << "frame " << result.id;
    }
  }

  // Counters of both configurations. Every frame carries its own channel,
  // so each is one prep miss however the runs form.
  for (const Backend::Snapshot* snap : {&paced_per_frame, &paced_fused}) {
    EXPECT_EQ(snap->frames, kFrames);
    EXPECT_EQ(snap->completed, kFrames);
    EXPECT_EQ(snap->expired_fallback + snap->expired_dropped, 0u);
    EXPECT_EQ(snap->prep_misses, kFrames);
    EXPECT_EQ(snap->prep_hits, 0u);
    std::uint64_t runs = 0, frames = 0;
    for (usize w = 0; w < snap->fused_width_counts.size(); ++w) {
      runs += snap->fused_width_counts[w];
      frames += w * snap->fused_width_counts[w];
    }
    EXPECT_EQ(snap->fused_runs, runs);
    EXPECT_EQ(snap->fused_frames, frames);
  }
  EXPECT_EQ(paced_per_frame.fused_runs, 0u);
  EXPECT_EQ(paced_per_frame.former_runs + paced_per_frame.former_gathered +
                paced_per_frame.former_empty,
            0u);
  EXPECT_GT(paced_fused.fused_runs, 0u);
  EXPECT_GT(paced_fused.former_runs, 0u);

  // Width-1 runs charge each frame its search plus one RTT; a gathered run
  // splits one RTT plus its summed search evenly over its frames. Either
  // way the charges add up to one RTT per run plus every frame's search.
  const double rtt = 40e-3;
  for (const auto& [placed, result] : slow) {
    EXPECT_NEAR(placed.charged_seconds,
                result.result.stats.search_seconds + rtt, 1e-12);
  }
  double charged = 0.0, search = 0.0;
  for (const auto& [placed, result] : fast) {
    charged += placed.charged_seconds;
    search += result.result.stats.search_seconds;
  }
  const double runs = static_cast<double>(paced_fused.fused_runs +
                                          kFrames - paced_fused.fused_frames);
  EXPECT_NEAR(charged, runs * rtt + search, 1e-9);
}

}  // namespace
}  // namespace sd::dispatch
