#include "dispatch/dispatcher.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "core/spec_parse.hpp"
#include "mimo/constellation.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace sd::dispatch {

std::string_view placement_policy_name(PlacementPolicy p) noexcept {
  switch (p) {
    case PlacementPolicy::kRoundRobin: return "round-robin";
    case PlacementPolicy::kLeastLoaded: return "least-loaded";
    case PlacementPolicy::kCostAware: return "cost-aware";
  }
  return "?";
}

PlacementPolicy parse_placement_policy(std::string_view text) {
  if (text == "round-robin") return PlacementPolicy::kRoundRobin;
  if (text == "least-loaded") return PlacementPolicy::kLeastLoaded;
  if (text == "cost-aware") return PlacementPolicy::kCostAware;
  throw invalid_argument_error("unknown placement policy '" +
                               std::string(text) +
                               "' (round-robin, least-loaded, cost-aware)");
}

void DispatchStats::export_counters(obs::CounterRegistry& registry,
                                    std::string_view prefix) const {
  const std::string p = prefix.empty() ? "" : std::string(prefix) + ".";
  registry.set(p + "steals", steals);
  registry.set(p + "degraded.kbest", degraded_kbest);
  registry.set(p + "degraded.mmse", degraded_mmse);
  registry.set(p + "degraded.linear", degraded_linear);
  registry.set(p + "prediction.count", predictions);
  registry.set(p + "prediction.samples", prediction_samples);
  registry.set(p + "prediction.mean_rel_error", mean_rel_error);
  registry.set(p + "prediction.mean_rel_error.hit", mean_rel_error_hit);
  registry.set(p + "prediction.mean_rel_error.miss", mean_rel_error_miss);
  registry.set(p + "cost.observations", cost_observations);
  registry.set(p + "cost.buckets", cost_buckets);
  registry.set(p + "prep.cache_hit", prep_hits);
  registry.set(p + "prep.cache_miss", prep_misses);
  registry.set(p + "fused.runs", fused_runs);
  registry.set(p + "fused.frames", fused_frames);
  for (usize w = 0; w < fused_width_counts.size(); ++w) {
    if (fused_width_counts[w] == 0) continue;
    registry.set(p + "fused.width." + std::to_string(w),
                 fused_width_counts[w]);
  }
  registry.set(p + "former.runs", former_runs);
  registry.set(p + "former.gathered", former_gathered);
  registry.set(p + "former.empty", former_empty);
  registry.set(p + "rejected.invalid", rejected_invalid);
}

namespace {

[[nodiscard]] bool ladder_has(const std::vector<serve::DecodeTier>& ladder,
                              serve::DecodeTier t) {
  return std::find(ladder.begin(), ladder.end(), t) != ladder.end();
}

/// The work *shape* a tier costs on a backend, for cost-model bucketing: a
/// K-Best backend's primary decode is K-Best-shaped work, so its primary-tier
/// predictions and a degraded-to-K-Best placement share one bucket.
[[nodiscard]] serve::DecodeTier cost_shape(const Backend& b,
                                           serve::DecodeTier tier) {
  if (tier != serve::DecodeTier::kPrimary) return tier;
  switch (b.config().decoder.strategy) {
    case Strategy::kMrc:
    case Strategy::kZf:
    case Strategy::kMmse:
      return serve::DecodeTier::kLinear;
    case Strategy::kKBest:
    case Strategy::kFsd:
      return serve::DecodeTier::kKBest;
    case Strategy::kMmseNeumann:
      return serve::DecodeTier::kMmseApprox;
    default:
      return serve::DecodeTier::kPrimary;
  }
}

[[nodiscard]] double seconds_between(serve::Clock::time_point a,
                                     serve::Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

Dispatcher::Dispatcher(SystemConfig system, std::vector<BackendConfig> configs,
                       DispatcherOptions options,
                       serve::CompletionFn on_complete)
    : system_(system),
      opts_(options),
      on_complete_(std::move(on_complete)),
      cost_(options.cost),
      queue_wait_h_(0.0, options.histogram_max_s, options.histogram_buckets),
      service_h_(0.0, options.histogram_max_s, options.histogram_buckets),
      e2e_h_(0.0, options.histogram_max_s, options.histogram_buckets) {
  SD_CHECK(!configs.empty(), "dispatcher needs at least one backend");
  mod_order_ = Constellation::get(system_.modulation).order();
  backends_.reserve(configs.size());
  lane_base_.reserve(configs.size());
  per_backend_.reserve(configs.size());
  for (BackendConfig& cfg : configs) {
    const int id = cost_.register_backend(
        cfg.label, cfg.prior_seconds_per_node, cfg.prior_overhead_s,
        std::string(decoder_precision_name(cfg.decoder)));
    SD_CHECK(id == static_cast<int>(backends_.size()),
             "cost-model backend ids must track pool order");
    lane_base_.push_back(total_lanes_);
    std::unique_ptr<Backend> b = make_backend(system_, std::move(cfg));
    total_lanes_ += b->lanes();
    backends_.push_back(std::move(b));
    per_backend_.emplace_back(options.histogram_max_s,
                              options.histogram_buckets);
  }
  pending_s_.assign(total_lanes_, 0.0);
  lane_last_fp_.assign(total_lanes_, 0);
  start_ = serve::Clock::now();
  for (auto& b : backends_) b->start(*this);
}

Dispatcher::~Dispatcher() { drain(); }

double Dispatcher::cheapest_prediction(const FrameFeatures& f,
                                       serve::DecodeTier tier) {
  double best = std::numeric_limits<double>::infinity();
  for (usize b = 0; b < backends_.size(); ++b) {
    if (!ladder_has(backends_[b]->ladder(), tier)) continue;
    best = std::min(best, cost_.predict(f, static_cast<int>(b),
                                        cost_shape(*backends_[b], tier))
                              .seconds);
  }
  return best;
}

Dispatcher::Placement Dispatcher::choose(const FrameFeatures& f,
                                         double deadline_s,
                                         std::uint64_t channel_fp,
                                         serve::DecodeTier start_tier) {
  // A lane whose previous frame carried the same channel fingerprint will
  // find the factorization in the backend's prep cache — predict it from
  // the hit-calibrated buckets.
  const auto lane_is_hit = [&](unsigned global_lane) {
    return channel_fp != 0 && lane_last_fp_[global_lane] == channel_fp;
  };
  Placement p;
  switch (opts_.policy) {
    case PlacementPolicy::kRoundRobin: {
      const auto g =
          static_cast<unsigned>(rr_next_++ % static_cast<std::uint64_t>(total_lanes_));
      for (usize b = 0; b < backends_.size(); ++b) {
        if (g < lane_base_[b] + backends_[b]->lanes()) {
          p.backend = static_cast<int>(b);
          p.lane = g - lane_base_[b];
          break;
        }
      }
      p.tier = start_tier;
      break;
    }
    case PlacementPolicy::kLeastLoaded: {
      usize best_depth = std::numeric_limits<usize>::max();
      for (usize b = 0; b < backends_.size(); ++b) {
        for (unsigned l = 0; l < backends_[b]->lanes(); ++l) {
          const usize d = backends_[b]->queue_depth(l);
          if (d < best_depth) {
            best_depth = d;
            p.backend = static_cast<int>(b);
            p.lane = l;
          }
        }
      }
      p.tier = start_tier;
      break;
    }
    case PlacementPolicy::kCostAware: {
      // Per backend: its least-pending lane (the lane the frame would join).
      struct Cand {
        unsigned lane = 0;
        double pending = 0.0;
      };
      std::vector<Cand> cand(backends_.size());
      for (usize b = 0; b < backends_.size(); ++b) {
        Cand c;
        c.pending = std::numeric_limits<double>::infinity();
        for (unsigned l = 0; l < backends_[b]->lanes(); ++l) {
          const double pend = pending_s_[lane_base_[b] + l];
          if (pend < c.pending) {
            c.pending = pend;
            c.lane = l;
          }
        }
        cand[b] = c;
      }
      // Walk the ladder: take the first tier whose best placement meets the
      // deadline; if none does, serve the cheapest tier anyway — the ladder
      // sheds work, never frames. Admission control may pin a floor
      // (start_tier): rungs above it are skipped. If no backend ladder
      // serves any rung at or below the floor, a second pass lifts the
      // restriction rather than dropping the frame.
      static constexpr serve::DecodeTier kTiers[] = {
          serve::DecodeTier::kPrimary, serve::DecodeTier::kKBest,
          serve::DecodeTier::kMmseApprox, serve::DecodeTier::kLinear};
      bool chosen = false;
      for (int pass = 0; pass < 2 && !chosen; ++pass) {
      const serve::DecodeTier floor =
          pass == 0 ? start_tier : serve::DecodeTier::kPrimary;
      for (serve::DecodeTier tier : kTiers) {
        if (static_cast<int>(tier) < static_cast<int>(floor)) continue;
        int best_b = -1;
        unsigned best_lane = 0;
        double best_eta = std::numeric_limits<double>::infinity();
        double best_pred = 0.0;
        for (usize b = 0; b < backends_.size(); ++b) {
          if (!ladder_has(backends_[b]->ladder(), tier)) continue;
          const double pred =
              cost_.predict(f, static_cast<int>(b),
                            cost_shape(*backends_[b], tier),
                            lane_is_hit(lane_base_[b] + cand[b].lane))
                  .seconds;
          const double eta = cand[b].pending + pred;
          if (eta < best_eta) {
            best_eta = eta;
            best_b = static_cast<int>(b);
            best_lane = cand[b].lane;
            best_pred = pred;
          }
        }
        if (best_b < 0) continue;  // no backend serves this tier
        p.backend = best_b;
        p.lane = best_lane;
        p.tier = tier;
        p.predicted_seconds = best_pred;
        chosen = true;
        const bool must_degrade = opts_.degrade_on_deadline &&
                                  deadline_s > 0.0 && best_eta > deadline_s;
        if (!must_degrade) break;  // this tier fits (or degrading is off)
      }
      }
      SD_ASSERT(chosen);  // every backend ladder contains kPrimary
      return p;
    }
  }
  p.predicted_seconds =
      cost_.predict(f, p.backend, cost_shape(*backends_[p.backend], p.tier),
                    lane_is_hit(lane_base_[static_cast<usize>(p.backend)] +
                                p.lane))
          .seconds;
  return p;
}

serve::SubmitStatus Dispatcher::submit(serve::FrameRequest frame) {
  SD_TRACE_SPAN("dispatch.submit");
  SD_CHECK(frame.channel.valid(), "frame carries no channel estimate");
  SD_CHECK(frame.h().rows() == static_cast<index_t>(frame.y.size()),
           "frame y length does not match channel rows");
  SD_CHECK(frame.h().cols() == system_.num_tx,
           "frame channel columns do not match the served system");
  if (frame.submit_time == serve::Clock::time_point{}) {
    frame.submit_time = serve::Clock::now();
  }

  const FrameFeatures f =
      FrameFeatures::extract(frame.channel, frame.sigma2, mod_order_);
  const bool finite_y =
      std::all_of(frame.y.begin(), frame.y.end(), [](const cplx& v) {
        return std::isfinite(v.real()) && std::isfinite(v.imag());
      });
  if (!(frame.sigma2 > 0.0 && std::isfinite(frame.sigma2)) || !f.finite_h ||
      !finite_y) {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    ++rejected_invalid_;
    return serve::SubmitStatus::kInvalid;
  }
  Placement p;
  {
    std::lock_guard<std::mutex> lock(place_mu_);
    p = choose(f, frame.deadline_s, frame.channel.fingerprint(),
               frame.start_tier);
    const unsigned g = lane_base_[static_cast<usize>(p.backend)] + p.lane;
    pending_s_[g] += p.predicted_seconds;
    // Record the channel affinity: the next frame placed on this lane with
    // the same fingerprint is predicted (and costed) as a prep-cache hit.
    lane_last_fp_[g] = frame.channel.fingerprint();
  }
  const unsigned global = lane_base_[static_cast<usize>(p.backend)] + p.lane;
  const auto rollback_pending = [&] {
    std::lock_guard<std::mutex> lock(place_mu_);
    pending_s_[global] =
        std::max(0.0, pending_s_[global] - p.predicted_seconds);
  };

  PlacedFrame pf;
  pf.frame = std::move(frame);
  pf.tier = p.tier;
  pf.backend_id = p.backend;
  pf.lane = p.lane;
  pf.global_worker = global;
  pf.predicted_seconds = p.predicted_seconds;
  pf.snr_db = f.snr_db;
  pf.cond_proxy = f.cond_proxy;

  Backend::PushResult pushed =
      backends_[static_cast<usize>(p.backend)]->place(std::move(pf));
  if (pushed.status == serve::PushStatus::kClosed) {
    rollback_pending();
    return serve::SubmitStatus::kClosed;
  }
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    ++submitted_;
    PerBackend& pb = per_backend_[static_cast<usize>(p.backend)];
    ++pb.submitted;
    if (p.tier == serve::DecodeTier::kKBest) ++degraded_kbest_;
    if (p.tier == serve::DecodeTier::kMmseApprox) ++degraded_mmse_;
    if (p.tier == serve::DecodeTier::kLinear) ++degraded_linear_;
    if (pushed.status == serve::PushStatus::kRejected) {
      ++rejected_;
      ++pb.rejected;
    }
    if (pushed.status == serve::PushStatus::kDisplacedOldest) {
      ++evicted_;
      ++pb.evicted;
    }
  }
  if (pushed.status == serve::PushStatus::kRejected) {
    rollback_pending();
    return serve::SubmitStatus::kRejected;
  }
  if (pushed.status == serve::PushStatus::kDisplacedOldest) {
    account_evicted(*pushed.displaced);
  }
  return serve::SubmitStatus::kAccepted;
}

void Dispatcher::account_evicted(const PlacedFrame& displaced) {
  {
    std::lock_guard<std::mutex> lock(place_mu_);
    double& pend = pending_s_[displaced.global_worker];
    pend = std::max(0.0, pend - displaced.predicted_seconds);
  }
  // The displaced frame reaches its terminal state here, on the submitting
  // thread: report it so the producer can account for every frame.
  serve::FrameResult r;
  r.id = displaced.frame.id;
  r.status = serve::FrameStatus::kEvicted;
  r.worker_id = displaced.global_worker;
  r.backend_id = displaced.backend_id;
  r.lane_id = displaced.lane;
  r.tier = displaced.tier;
  r.queue_wait_s =
      seconds_between(displaced.frame.submit_time, serve::Clock::now());
  r.e2e_s = r.queue_wait_s;
  if (on_complete_) on_complete_(r);
}

void Dispatcher::frame_stolen(const PlacedFrame& placed, unsigned thief_lane) {
  std::lock_guard<std::mutex> lock(place_mu_);
  const unsigned old_g = placed.global_worker;
  const unsigned new_g = old_g - placed.lane + thief_lane;
  double& old_pend = pending_s_[old_g];
  old_pend = std::max(0.0, old_pend - placed.predicted_seconds);
  pending_s_[new_g] += placed.predicted_seconds;
  // The thief lane will decode this channel next; keep the affinity signal
  // honest for subsequent placements.
  lane_last_fp_[new_g] = placed.frame.channel.fingerprint();
}

void Dispatcher::frame_retired(const PlacedFrame& placed,
                               serve::FrameResult&& result) {
  {
    std::lock_guard<std::mutex> lock(place_mu_);
    double& pend = pending_s_[placed.global_worker];
    pend = std::max(0.0, pend - placed.predicted_seconds);
  }
  const auto b = static_cast<usize>(placed.backend_id);
  if (result.status == serve::FrameStatus::kCompleted) {
    // Close the calibration loop: real decodes at the placed tier feed their
    // observed work and occupancy back into the matching bucket.
    FrameFeatures f;
    f.num_tx = system_.num_tx;
    f.num_rx = placed.frame.h().rows();
    f.mod_order = mod_order_;
    f.sigma2 = placed.frame.sigma2;
    f.snr_db = placed.snr_db;
    f.cond_proxy = placed.cond_proxy;
    cost_.observe(f, placed.backend_id, cost_shape(*backends_[b], placed.tier),
                  result.result.stats.nodes_expanded, placed.charged_seconds,
                  placed.prep_hit);
  }
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    PerBackend& pb = per_backend_[b];
    switch (result.status) {
      case serve::FrameStatus::kCompleted:
        ++completed_;
        ++pb.completed;
        break;
      case serve::FrameStatus::kExpiredFallback:
        ++expired_fallback_;
        ++pb.expired_fallback;
        break;
      case serve::FrameStatus::kExpiredDropped:
        ++expired_dropped_;
        ++pb.expired_dropped;
        break;
      case serve::FrameStatus::kEvicted:
        break;  // accounted at submit
    }
    if (result.deadline_missed) {
      ++deadline_misses_;
      ++pb.deadline_misses;
    }
    queue_wait_h_.record(result.queue_wait_s);
    service_h_.record(result.service_s);
    e2e_h_.record(result.e2e_s);
    pb.queue_wait.record(result.queue_wait_s);
    pb.service.record(result.service_s);
    pb.e2e.record(result.e2e_s);
    if (result.status == serve::FrameStatus::kCompleted &&
        placed.predicted_seconds > 0.0) {
      ++predictions_;
      // Exclude each backend's cold-start frames from the reported error:
      // the model has nothing to have learned from yet.
      if (pb.completed > opts_.prediction_warmup) {
        const double actual = placed.charged_seconds;
        const double denom =
            std::max({placed.predicted_seconds, actual, 1e-12});
        const double err =
            std::abs(placed.predicted_seconds - actual) / denom;
        prediction_abs_rel_err_sum_ += err;
        ++prediction_samples_;
        // Split by prep-cache outcome so the report shows whether the
        // hit/miss buckets have actually diverged.
        if (placed.prep_hit) {
          prediction_err_sum_hit_ += err;
          ++prediction_samples_hit_;
        } else {
          prediction_err_sum_miss_ += err;
          ++prediction_samples_miss_;
        }
      }
    }
  }
  if (on_complete_) on_complete_(result);
}

void Dispatcher::drain() {
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    if (drained_) return;
    drained_ = true;
  }
  for (auto& b : backends_) b->close();
  for (auto& b : backends_) b->join();
  std::lock_guard<std::mutex> lock(metrics_mu_);
  drained_wall_s_ = seconds_between(start_, serve::Clock::now());
}

serve::ServerMetrics Dispatcher::metrics() const {
  usize queued_now = 0;
  std::vector<Backend::Snapshot> snaps;
  snaps.reserve(backends_.size());
  for (const auto& b : backends_) {
    snaps.push_back(b->snapshot());
    queued_now += snaps.back().in_queue;
  }
  std::lock_guard<std::mutex> lock(metrics_mu_);
  serve::ServerMetrics m;
  m.submitted = submitted_;
  m.completed = completed_;
  m.expired_fallback = expired_fallback_;
  m.expired_dropped = expired_dropped_;
  m.evicted = evicted_;
  m.rejected = rejected_;
  m.deadline_misses = deadline_misses_;
  m.in_queue = queued_now;
  m.wall_seconds = drained_wall_s_ >= 0.0
                       ? drained_wall_s_
                       : seconds_between(start_, serve::Clock::now());
  m.throughput_fps = m.wall_seconds > 0.0
                         ? static_cast<double>(m.retired()) / m.wall_seconds
                         : 0.0;
  m.queue_wait = serve::summarize_latency(queue_wait_h_);
  m.service = serve::summarize_latency(service_h_);
  m.e2e = serve::summarize_latency(e2e_h_);
  m.workers.reserve(total_lanes_);
  for (const Backend::Snapshot& s : snaps) {
    for (const serve::WorkerStats& lane : s.lanes) {
      serve::WorkerStats w = lane;
      w.utilization =
          m.wall_seconds > 0.0 ? w.busy_seconds / m.wall_seconds : 0.0;
      m.workers.push_back(w);
    }
  }
  return m;
}

std::vector<BackendMetrics> Dispatcher::backend_metrics() const {
  std::vector<BackendMetrics> out;
  out.reserve(backends_.size());
  for (usize b = 0; b < backends_.size(); ++b) {
    const Backend::Snapshot snap = backends_[b]->snapshot();
    BackendMetrics bm;
    bm.label = backends_[b]->config().label;
    bm.kind = backends_[b]->config().kind;
    bm.lanes = backends_[b]->lanes();
    bm.steals = snap.steals;
    bm.degraded_kbest = snap.degraded_kbest;
    bm.degraded_mmse = snap.degraded_mmse;
    bm.degraded_linear = snap.degraded_linear;
    bm.fused_runs = snap.fused_runs;
    bm.fused_frames = snap.fused_frames;
    bm.fused_width_counts = snap.fused_width_counts;
    bm.former_runs = snap.former_runs;
    bm.former_gathered = snap.former_gathered;
    bm.former_empty = snap.former_empty;
    std::lock_guard<std::mutex> lock(metrics_mu_);
    const PerBackend& pb = per_backend_[b];
    serve::ServerMetrics& m = bm.metrics;
    m.submitted = pb.submitted;
    m.completed = pb.completed;
    m.expired_fallback = pb.expired_fallback;
    m.expired_dropped = pb.expired_dropped;
    m.evicted = pb.evicted;
    m.rejected = pb.rejected;
    m.deadline_misses = pb.deadline_misses;
    m.in_queue = snap.in_queue;
    m.wall_seconds = drained_wall_s_ >= 0.0
                         ? drained_wall_s_
                         : seconds_between(start_, serve::Clock::now());
    m.throughput_fps = m.wall_seconds > 0.0
                           ? static_cast<double>(m.retired()) / m.wall_seconds
                           : 0.0;
    m.queue_wait = serve::summarize_latency(pb.queue_wait);
    m.service = serve::summarize_latency(pb.service);
    m.e2e = serve::summarize_latency(pb.e2e);
    m.workers = snap.lanes;
    for (serve::WorkerStats& w : m.workers) {
      w.utilization =
          m.wall_seconds > 0.0 ? w.busy_seconds / m.wall_seconds : 0.0;
    }
    out.push_back(std::move(bm));
  }
  return out;
}

DispatchStats Dispatcher::stats() const {
  DispatchStats s;
  for (const auto& b : backends_) {
    const Backend::Snapshot snap = b->snapshot();
    s.steals += snap.steals;
    s.prep_hits += snap.prep_hits;
    s.prep_misses += snap.prep_misses;
    s.fused_runs += snap.fused_runs;
    s.fused_frames += snap.fused_frames;
    s.former_runs += snap.former_runs;
    s.former_gathered += snap.former_gathered;
    s.former_empty += snap.former_empty;
    if (snap.fused_width_counts.size() > s.fused_width_counts.size()) {
      s.fused_width_counts.resize(snap.fused_width_counts.size(), 0);
    }
    for (usize w = 0; w < snap.fused_width_counts.size(); ++w) {
      s.fused_width_counts[w] += snap.fused_width_counts[w];
    }
  }
  std::lock_guard<std::mutex> lock(metrics_mu_);
  s.degraded_kbest = degraded_kbest_;
  s.degraded_mmse = degraded_mmse_;
  s.degraded_linear = degraded_linear_;
  s.rejected_invalid = rejected_invalid_;
  s.predictions = predictions_;
  s.prediction_samples = prediction_samples_;
  s.mean_rel_error = prediction_samples_ > 0
                         ? prediction_abs_rel_err_sum_ /
                               static_cast<double>(prediction_samples_)
                         : 0.0;
  s.prediction_samples_hit = prediction_samples_hit_;
  s.prediction_samples_miss = prediction_samples_miss_;
  s.mean_rel_error_hit =
      prediction_samples_hit_ > 0
          ? prediction_err_sum_hit_ /
                static_cast<double>(prediction_samples_hit_)
          : 0.0;
  s.mean_rel_error_miss =
      prediction_samples_miss_ > 0
          ? prediction_err_sum_miss_ /
                static_cast<double>(prediction_samples_miss_)
          : 0.0;
  s.cost_observations = cost_.observations();
  s.cost_buckets = cost_.bucket_count();
  return s;
}

}  // namespace sd::dispatch
