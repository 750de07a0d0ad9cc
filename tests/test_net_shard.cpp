// Per-cell sharding and admission control: shard isolation (independent prep
// caches and metrics for identical channel content), deterministic merge of
// per-shard snapshots, and the shed-before-miss decision logic.
#include "net/shard.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <vector>

#include "core/spec_parse.hpp"
#include "mimo/scenario.hpp"
#include "net/admission.hpp"
#include "obs/counters.hpp"

namespace sd::net {
namespace {

constexpr index_t kM = 6;

SystemConfig test_system() { return {kM, kM, Modulation::kQam4}; }

std::vector<Trial> make_trials(usize n, std::uint64_t seed = 42) {
  ScenarioConfig sc;
  sc.num_tx = kM;
  sc.num_rx = kM;
  sc.seed = seed;
  Scenario scenario(sc);
  std::vector<Trial> trials;
  for (usize i = 0; i < n; ++i) trials.push_back(scenario.next());
  return trials;
}

serve::FrameRequest make_frame(std::uint64_t id, const ChannelHandle& h,
                               const Trial& t) {
  serve::FrameRequest f;
  f.id = id;
  f.channel = h;
  f.y = t.y;
  f.sigma2 = t.sigma2;
  return f;
}

// --- merge_latency ---

TEST(MergeLatency, EmptySideIsIdentity) {
  serve::LatencySummary a;
  a.count = 10;
  a.mean_s = 2.0;
  a.p99_s = 5.0;
  const serve::LatencySummary l = merge_latency(a, {});
  EXPECT_EQ(l.count, 10u);
  EXPECT_DOUBLE_EQ(l.mean_s, 2.0);
  const serve::LatencySummary r = merge_latency({}, a);
  EXPECT_EQ(r.count, 10u);
  EXPECT_DOUBLE_EQ(r.p99_s, 5.0);
}

TEST(MergeLatency, CountWeightedMeanAndConservativeQuantiles) {
  serve::LatencySummary a, b;
  a.count = 30;
  a.mean_s = 1.0;
  a.p50_s = 0.9;
  a.p95_s = 2.0;
  a.p99_s = 3.0;
  a.max_s = 4.0;
  b.count = 10;
  b.mean_s = 5.0;
  b.p50_s = 4.5;
  b.p95_s = 1.0;
  b.p99_s = 6.0;
  b.max_s = 7.0;
  const serve::LatencySummary m = merge_latency(a, b);
  EXPECT_EQ(m.count, 40u);
  EXPECT_DOUBLE_EQ(m.mean_s, 2.0);  // (30*1 + 10*5) / 40 — exact
  EXPECT_DOUBLE_EQ(m.p50_s, 4.5);   // quantiles: per-shard max (upper bound)
  EXPECT_DOUBLE_EQ(m.p95_s, 2.0);
  EXPECT_DOUBLE_EQ(m.p99_s, 6.0);
  EXPECT_DOUBLE_EQ(m.max_s, 7.0);
}

TEST(MergeLatency, MergeIsCommutativeAndDeterministic) {
  serve::LatencySummary a, b;
  a.count = 7;
  a.mean_s = 0.3;
  b.count = 13;
  b.mean_s = 0.11;
  const serve::LatencySummary ab = merge_latency(a, b);
  const serve::LatencySummary ba = merge_latency(b, a);
  EXPECT_DOUBLE_EQ(ab.mean_s, ba.mean_s);
  EXPECT_EQ(ab.count, ba.count);
}

// --- ShardRouter ---

TEST(ShardRouter, DeterministicModuloRouting) {
  const ShardRouter router(3);
  for (std::uint32_t cell = 0; cell < 30; ++cell) {
    EXPECT_EQ(router.route(cell), cell % 3);
    EXPECT_EQ(router.route(cell), router.route(cell));  // stable
  }
}

// --- AdmissionController ---

struct AdmissionFixture {
  /// A real dispatcher (via a DetectionServer) prices the tiers; the server
  /// itself sees no traffic in the unit tests.
  explicit AdmissionFixture(AdmissionOptions opts, const char* spec = "sphere")
      : server(test_system(), parse_decoder_spec(spec),
               [] {
                 serve::ServerOptions so;
                 so.num_workers = 2;
                 return so;
               }(),
               nullptr),
        controller(opts, server.dispatcher()) {}

  [[nodiscard]] double predicted(serve::DecodeTier tier, const Trial& t) {
    const dispatch::FrameFeatures f = dispatch::FrameFeatures::extract(
        ChannelHandle(t.h), t.sigma2,
        Constellation::get(Modulation::kQam4).order());
    double best = std::numeric_limits<double>::infinity();
    auto& cost = server.dispatcher().cost_model();
    for (usize b = 0; b < server.dispatcher().backend_count(); ++b)
      best = std::min(best,
                      cost.predict(f, static_cast<int>(b), tier).seconds);
    return best;
  }

  serve::DetectionServer server;
  AdmissionController controller;
};

TEST(Admission, DisabledModeAdmitsEverythingAtPrimary) {
  AdmissionOptions opts;
  opts.enabled = false;
  AdmissionFixture fx(opts);
  const Trial t = make_trials(1)[0];
  for (int i = 0; i < 5; ++i) {
    const AdmitDecision d = fx.controller.decide(
        ChannelHandle(t.h), t.sigma2, 1e-12, QosClass::kHard);
    EXPECT_EQ(d.action, AdmitAction::kAdmit);
    EXPECT_EQ(d.tier, serve::DecodeTier::kPrimary);
  }
  const AdmissionStats s = fx.controller.stats();
  EXPECT_EQ(s.considered, 5u);
  EXPECT_EQ(s.admitted, 5u);
  EXPECT_EQ(s.shed, 0u);
}

TEST(Admission, ImpossibleBudgetIsShed) {
  AdmissionFixture fx(AdmissionOptions{});
  const Trial t = make_trials(1)[0];
  // No tier decodes in a femtosecond; shed-before-miss refuses at the door.
  const AdmitDecision d = fx.controller.decide(
      ChannelHandle(t.h), t.sigma2, 1e-15, QosClass::kHard);
  EXPECT_EQ(d.action, AdmitAction::kShed);
  const AdmissionStats s = fx.controller.stats();
  EXPECT_EQ(s.shed, 1u);
  EXPECT_EQ(s.shed_by_class[static_cast<usize>(QosClass::kHard)], 1u);
}

TEST(Admission, GenerousBudgetAdmitsAtPrimary) {
  AdmissionFixture fx(AdmissionOptions{});
  const Trial t = make_trials(1)[0];
  const AdmitDecision d =
      fx.controller.decide(ChannelHandle(t.h), t.sigma2, 10.0, QosClass::kSoft);
  EXPECT_EQ(d.action, AdmitAction::kAdmit);
  EXPECT_EQ(d.tier, serve::DecodeTier::kPrimary);
  EXPECT_GT(d.predicted_s, 0.0);
}

TEST(Admission, TightBudgetDegradesBelowPrimary) {
  AdmissionFixture fx(AdmissionOptions{});
  const Trial t = make_trials(1)[0];
  const double primary = fx.predicted(serve::DecodeTier::kPrimary, t);
  const double linear = fx.predicted(serve::DecodeTier::kLinear, t);
  ASSERT_GT(primary, linear) << "cost model must price the ladder downward";
  // A budget between the linear and primary predictions: admissible, but not
  // at the primary tier.
  const double budget = (primary + linear) / 2.0;
  const AdmitDecision d = fx.controller.decide(
      ChannelHandle(t.h), t.sigma2, budget, QosClass::kHard);
  EXPECT_EQ(d.action, AdmitAction::kAdmit);
  EXPECT_NE(d.tier, serve::DecodeTier::kPrimary);
  const AdmissionStats s = fx.controller.stats();
  EXPECT_EQ(s.degraded_kbest + s.degraded_linear, 1u);
}

TEST(Admission, ClassDefaultBudgetsApplyWhenFrameCarriesNone) {
  AdmissionOptions opts;
  opts.class_deadline_s = {0.020, 0.070, 0.0};
  AdmissionFixture fx(opts);
  const Trial t = make_trials(1)[0];
  const AdmitDecision hard =
      fx.controller.decide(ChannelHandle(t.h), t.sigma2, 0.0, QosClass::kHard);
  EXPECT_DOUBLE_EQ(hard.budget_s, 0.020);
  const AdmitDecision soft =
      fx.controller.decide(ChannelHandle(t.h), t.sigma2, 0.0, QosClass::kSoft);
  EXPECT_DOUBLE_EQ(soft.budget_s, 0.070);
  // Best-effort has no default: budget 0 = never shed on budget.
  const AdmitDecision be = fx.controller.decide(
      ChannelHandle(t.h), t.sigma2, 0.0, QosClass::kBestEffort);
  EXPECT_DOUBLE_EQ(be.budget_s, 0.0);
  EXPECT_EQ(be.action, AdmitAction::kAdmit);
  // An explicit frame deadline overrides the class default.
  const AdmitDecision expl =
      fx.controller.decide(ChannelHandle(t.h), t.sigma2, 0.5, QosClass::kHard);
  EXPECT_DOUBLE_EQ(expl.budget_s, 0.5);
}

TEST(Admission, NonFiniteBudgetTakesTheDeadlinelessPathAndDegrades) {
  // Regression: an infinite class default used to ride the budgeted walk,
  // where (wait + pred) * headroom <= inf admits at kPrimary no matter how
  // saturated the shard is — the saturation degrade was unreachable. A
  // non-finite budget must normalize to 0 (deadline-less) and degrade to
  // the linear tier once the estimated wait passes the saturation bound.
  AdmissionOptions opts;
  opts.ewma_alpha = 1.0;  // estimate = last observed service time, exactly
  opts.class_deadline_s = {0.010, 0.050,
                           std::numeric_limits<double>::infinity()};
  AdmissionFixture fx(opts);
  const Trial t = make_trials(1)[0];

  // Idle: deadline-less best-effort is admitted at primary, budget 0.
  const AdmitDecision idle = fx.controller.decide(
      ChannelHandle(t.h), t.sigma2, 0.0, QosClass::kBestEffort);
  EXPECT_EQ(idle.action, AdmitAction::kAdmit);
  EXPECT_EQ(idle.tier, serve::DecodeTier::kPrimary);
  EXPECT_DOUBLE_EQ(idle.budget_s, 0.0);  // inf never leaks downstream

  // Saturate: teach a 1 s service time and pile up outstanding frames until
  // the wait estimate passes saturation_wait_s.
  serve::FrameResult r;
  r.status = serve::FrameStatus::kCompleted;
  r.service_s = 1.0;
  fx.controller.on_complete(r);
  for (int i = 0; i < 8; ++i)
    (void)fx.controller.decide(
        ChannelHandle(t.h), t.sigma2, 100.0, QosClass::kSoft);

  const AdmitDecision d = fx.controller.decide(
      ChannelHandle(t.h), t.sigma2, 0.0, QosClass::kBestEffort);
  EXPECT_EQ(d.action, AdmitAction::kAdmit);  // deadline-less never sheds
  EXPECT_EQ(d.tier, serve::DecodeTier::kLinear)
      << "saturated best-effort must degrade, not admit at primary";
  EXPECT_DOUBLE_EQ(d.budget_s, 0.0);
  EXPECT_GT(d.est_wait_s, fx.controller.options().saturation_wait_s);

  // An explicit non-finite frame deadline normalizes the same way.
  const AdmitDecision inf_frame = fx.controller.decide(
      ChannelHandle(t.h), t.sigma2, std::numeric_limits<double>::infinity(),
      QosClass::kHard);
  EXPECT_DOUBLE_EQ(inf_frame.budget_s, 0.0);
  EXPECT_EQ(inf_frame.action, AdmitAction::kAdmit);
}

TEST(Admission, BudgetedWalkIgnoresTiersNoBackendCanServe) {
  // Regression: cheapest() used to take the min over ALL backends at a tier,
  // ignoring Backend::ladder() — a zf-only pool would price kKBest/kLinear
  // it can never place, and a budget met only by those phantom predictions
  // admitted frames the dispatcher then served at the wrong tier. With the
  // ladder filter an unserved tier predicts +infinity, so a budget below the
  // primary prediction sheds instead of banking on an unplaceable pair.
  AdmissionFixture fx(AdmissionOptions{}, "zf");
  const Trial t = make_trials(1)[0];

  // The pool's only backend serves nothing below its primary rung.
  const dispatch::FrameFeatures f = dispatch::FrameFeatures::extract(
      ChannelHandle(t.h), t.sigma2,
      Constellation::get(Modulation::kQam4).order());
  auto& disp = fx.server.dispatcher();
  const double primary =
      disp.cheapest_prediction(f, serve::DecodeTier::kPrimary);
  ASSERT_TRUE(std::isfinite(primary));
  ASSERT_GT(primary, 0.0);
  EXPECT_TRUE(
      std::isinf(disp.cheapest_prediction(f, serve::DecodeTier::kKBest)));
  EXPECT_TRUE(
      std::isinf(disp.cheapest_prediction(f, serve::DecodeTier::kLinear)));

  // Affordable at primary: admitted there.
  const AdmitDecision ok = fx.controller.decide(
      ChannelHandle(t.h), t.sigma2, primary * 4.0, QosClass::kHard);
  EXPECT_EQ(ok.action, AdmitAction::kAdmit);
  EXPECT_EQ(ok.tier, serve::DecodeTier::kPrimary);

  // Below the primary prediction nothing placeable fits: shed — the buggy
  // min over unserved tiers would have admitted at kKBest or kLinear.
  const AdmitDecision shed = fx.controller.decide(
      ChannelHandle(t.h), t.sigma2, primary * 0.25, QosClass::kHard);
  EXPECT_EQ(shed.action, AdmitAction::kShed);
}

TEST(Admission, OutstandingLedgerDrivesTheWaitEstimate) {
  AdmissionOptions opts;
  opts.ewma_alpha = 1.0;  // estimate = last observed service time, exactly
  AdmissionFixture fx(opts);
  const Trial t = make_trials(1)[0];
  EXPECT_DOUBLE_EQ(fx.controller.estimated_wait_s(), 0.0);

  // Admit one frame, observe its completion at 0.1 s service.
  (void)fx.controller.decide(
      ChannelHandle(t.h), t.sigma2, 10.0, QosClass::kSoft);
  serve::FrameResult r;
  r.status = serve::FrameStatus::kCompleted;
  r.service_s = 0.1;
  fx.controller.on_complete(r);
  EXPECT_DOUBLE_EQ(fx.controller.estimated_wait_s(), 0.0);  // nothing queued

  // Two admitted-but-unfinished frames now wait 2 * 0.1 / lanes.
  (void)fx.controller.decide(
      ChannelHandle(t.h), t.sigma2, 10.0, QosClass::kSoft);
  (void)fx.controller.decide(
      ChannelHandle(t.h), t.sigma2, 10.0, QosClass::kSoft);
  const double lanes = fx.server.dispatcher().total_lanes();
  EXPECT_NEAR(fx.controller.estimated_wait_s(), 2.0 * 0.1 / lanes, 1e-12);

  // Evictions settle the ledger without teaching the service estimate.
  serve::FrameResult ev;
  ev.status = serve::FrameStatus::kEvicted;
  fx.controller.on_complete(ev);
  EXPECT_NEAR(fx.controller.estimated_wait_s(), 1.0 * 0.1 / lanes, 1e-12);
}

TEST(Admission, QueueBacklogShedsFramesAGenerousBudgetWouldAdmit) {
  AdmissionOptions opts;
  opts.ewma_alpha = 1.0;
  AdmissionFixture fx(opts);
  const Trial t = make_trials(1)[0];
  const double budget = 0.050;
  EXPECT_EQ(fx.controller.decide(
      ChannelHandle(t.h), t.sigma2, budget, QosClass::kHard).action,
            AdmitAction::kAdmit);
  // Teach a 1 s service time, then pile up admitted frames: the wait estimate
  // alone blows any 50 ms budget at every tier.
  serve::FrameResult r;
  r.status = serve::FrameStatus::kCompleted;
  r.service_s = 1.0;
  fx.controller.on_complete(r);
  for (int i = 0; i < 8; ++i)
    (void)fx.controller.decide(
        ChannelHandle(t.h), t.sigma2, 100.0, QosClass::kBestEffort);
  const AdmitDecision d = fx.controller.decide(
      ChannelHandle(t.h), t.sigma2, budget, QosClass::kHard);
  EXPECT_EQ(d.action, AdmitAction::kShed);
  EXPECT_GT(d.est_wait_s, budget);
}

TEST(Admission, StatsExportUnderNetAdmissionPrefix) {
  AdmissionFixture fx(AdmissionOptions{});
  const Trial t = make_trials(1)[0];
  (void)fx.controller.decide(
      ChannelHandle(t.h), t.sigma2, 10.0, QosClass::kHard);
  (void)fx.controller.decide(
      ChannelHandle(t.h), t.sigma2, 1e-15, QosClass::kSoft);
  obs::CounterRegistry reg;
  fx.controller.stats().export_counters(reg);
  EXPECT_EQ(reg.get_uint_or("net.admission.considered"), 2u);
  EXPECT_EQ(reg.get_uint_or("net.admission.admitted"), 1u);
  EXPECT_EQ(reg.get_uint_or("net.admission.shed"), 1u);
  EXPECT_EQ(reg.get_uint_or("net.admission.hard.admitted"), 1u);
  EXPECT_EQ(reg.get_uint_or("net.admission.soft.shed"), 1u);
}

// --- ShardedServer ---

ShardedServerOptions two_shards() {
  ShardedServerOptions o;
  o.num_shards = 2;
  o.server.num_workers = 2;
  o.admission.enabled = false;  // isolation tests want every frame served
  return o;
}

// Two cells submit byte-identical channel content. With per-shard prep
// caches each shard must prepare it independently — shard 1 misses even
// though shard 0 already holds the identical factorization.
TEST(ShardedServer, IdenticalChannelContentPrepsIndependentlyPerShard) {
  constexpr usize kPerCell = 12;
  const std::vector<Trial> trials = make_trials(kPerCell);
  const ChannelHandle shared(trials[0].h);  // one content, both cells

  ShardedServer shards(test_system(), parse_decoder_spec("sphere"),
                       two_shards());
  std::uint64_t id = 0;
  for (usize i = 0; i < kPerCell; ++i) {
    for (std::uint32_t cell : {0u, 1u}) {
      EXPECT_EQ(shards.submit(cell, make_frame(id++, shared, trials[i]),
                              QosClass::kBestEffort),
                ShardSubmit::kAccepted);
    }
  }
  shards.drain();

  for (usize s = 0; s < 2; ++s) {
    const serve::ServerMetrics m = shards.shard_metrics(s);
    EXPECT_EQ(m.submitted, kPerCell) << "shard " << s;
    EXPECT_EQ(m.completed, kPerCell) << "shard " << s;
    const dispatch::DispatchStats ds = shards.shard(s).dispatcher().stats();
    // An isolated cache pays its own (at least one) miss; a shared cache
    // would give one shard a free warm start.
    EXPECT_GE(ds.prep_misses, 1u) << "shard " << s;
    EXPECT_EQ(ds.prep_hits + ds.prep_misses, kPerCell) << "shard " << s;
  }
}

TEST(ShardedServer, CompletionTapSeesTheServingShard) {
  constexpr usize kFrames = 8;
  const std::vector<Trial> trials = make_trials(kFrames);
  ShardedServer shards(test_system(), parse_decoder_spec("zf"), two_shards());

  std::mutex mu;
  std::map<std::uint64_t, usize> served_by;
  shards.set_completion_tap([&](usize shard, const serve::FrameResult& r) {
    std::lock_guard<std::mutex> lock(mu);
    served_by[r.id] = shard;
  });
  for (usize i = 0; i < kFrames; ++i) {
    const auto cell = static_cast<std::uint32_t>(i % 4);
    const ChannelHandle h(trials[i].h);
    EXPECT_EQ(shards.submit(cell, make_frame(i, h, trials[i]),
                            QosClass::kBestEffort),
              ShardSubmit::kAccepted);
  }
  shards.drain();
  ASSERT_EQ(served_by.size(), kFrames);
  for (usize i = 0; i < kFrames; ++i) {
    EXPECT_EQ(served_by.at(i), shards.router().route(
                                   static_cast<std::uint32_t>(i % 4)));
  }
}

TEST(ShardedServer, GlobalMetricsMergeIsDeterministic) {
  constexpr usize kFrames = 20;
  const std::vector<Trial> trials = make_trials(kFrames);
  ShardedServer shards(test_system(), parse_decoder_spec("zf"), two_shards());
  for (usize i = 0; i < kFrames; ++i) {
    const ChannelHandle h(trials[i].h);
    EXPECT_EQ(shards.submit(static_cast<std::uint32_t>(i % 3),
                            make_frame(i, h, trials[i]), QosClass::kSoft),
              ShardSubmit::kAccepted);
  }
  shards.drain();

  const serve::ServerMetrics g = shards.global_metrics();
  const serve::ServerMetrics s0 = shards.shard_metrics(0);
  const serve::ServerMetrics s1 = shards.shard_metrics(1);
  EXPECT_EQ(g.submitted, s0.submitted + s1.submitted);
  EXPECT_EQ(g.submitted, kFrames);
  EXPECT_EQ(g.completed, kFrames);
  EXPECT_EQ(g.e2e.count, s0.e2e.count + s1.e2e.count);
  EXPECT_EQ(g.workers.size(), s0.workers.size() + s1.workers.size());
  EXPECT_DOUBLE_EQ(g.wall_seconds,
                   std::max(s0.wall_seconds, s1.wall_seconds));
  EXPECT_GE(g.e2e.p99_s, std::max(s0.e2e.p99_s, s1.e2e.p99_s) - 1e-12);
  // cells 0 and 2 -> shard 0; cell 1 -> shard 1: 13 vs 7 of 20.
  EXPECT_EQ(s0.submitted, 13u);
  EXPECT_EQ(s1.submitted, 7u);
  // Snapshot merging is pure: a second merge reproduces the first.
  const serve::ServerMetrics g2 = shards.global_metrics();
  EXPECT_EQ(g2.submitted, g.submitted);
  EXPECT_DOUBLE_EQ(g2.e2e.mean_s, g.e2e.mean_s);
  EXPECT_DOUBLE_EQ(g2.throughput_fps, g.throughput_fps);
}

TEST(ShardedServer, AdmissionShedIsReportedAndCostsTheShardNothing) {
  ShardedServerOptions o;
  o.num_shards = 1;
  o.server.num_workers = 1;
  o.admission.enabled = true;
  const std::vector<Trial> trials = make_trials(1);
  ShardedServer shards(test_system(), parse_decoder_spec("sphere"), o);
  const ChannelHandle h(trials[0].h);
  serve::FrameRequest f = make_frame(0, h, trials[0]);
  f.deadline_s = 1e-15;  // impossible everywhere
  AdmitDecision d;
  EXPECT_EQ(shards.submit(0, std::move(f), QosClass::kHard, &d),
            ShardSubmit::kShed);
  EXPECT_EQ(d.action, AdmitAction::kShed);
  shards.drain();
  EXPECT_EQ(shards.shard_metrics(0).submitted, 0u);
  EXPECT_EQ(shards.global_admission_stats().shed, 1u);
}

}  // namespace
}  // namespace sd::net
