#include "net/shard.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace sd::net {

serve::LatencySummary merge_latency(const serve::LatencySummary& a,
                                    const serve::LatencySummary& b) {
  if (a.count == 0) return b;
  if (b.count == 0) return a;
  serve::LatencySummary m;
  m.count = a.count + b.count;
  m.mean_s = (a.mean_s * static_cast<double>(a.count) +
              b.mean_s * static_cast<double>(b.count)) /
             static_cast<double>(m.count);
  // Quantiles of a merged distribution are not recoverable from per-shard
  // summaries; the max across shards is a deterministic conservative upper
  // bound (DESIGN.md §13).
  m.p50_s = std::max(a.p50_s, b.p50_s);
  m.p95_s = std::max(a.p95_s, b.p95_s);
  m.p99_s = std::max(a.p99_s, b.p99_s);
  m.max_s = std::max(a.max_s, b.max_s);
  return m;
}

ShardedServer::ShardedServer(SystemConfig system, DecoderSpec spec,
                             ShardedServerOptions options)
    : router_(options.num_shards) {
  SD_CHECK(options.num_shards >= 1, "sharded server needs at least one shard");
  shards_.reserve(options.num_shards);
  for (usize s = 0; s < options.num_shards; ++s) {
    auto sh = std::make_unique<Shard>();
    Shard* raw = sh.get();
    // The completion chain: shard admission first (it owns the outstanding
    // count), then the tap. `raw` and `this` outlive every lane thread —
    // ~ShardedServer drains before members die.
    auto on_complete = [this, raw, s](const serve::FrameResult& r) {
      raw->admission->on_complete(r);
      if (tap_) tap_(s, r);
    };
    sh->server = std::make_unique<serve::DetectionServer>(
        system, spec, options.server, std::move(on_complete));
    sh->admission = std::make_unique<AdmissionController>(
        options.admission, sh->server->dispatcher());
    shards_.push_back(std::move(sh));
  }
}

ShardedServer::~ShardedServer() { drain(); }

void ShardedServer::set_completion_tap(TapFn tap) { tap_ = std::move(tap); }

ShardSubmit ShardedServer::submit(std::uint32_t cell_id,
                                  serve::FrameRequest frame, QosClass qos,
                                  AdmitDecision* decision) {
  Shard& sh = *shards_[router_.route(cell_id)];
  const AdmitDecision d =
      sh.admission->decide(frame.channel, frame.sigma2, frame.deadline_s, qos);
  if (decision != nullptr) *decision = d;
  if (d.action == AdmitAction::kShed) return ShardSubmit::kShed;
  frame.start_tier = d.tier;
  frame.deadline_s = d.budget_s;  // class default now binds server-side too
  const serve::SubmitStatus st = sh.server->submit(std::move(frame));
  if (st == serve::SubmitStatus::kAccepted) return ShardSubmit::kAccepted;
  // No completion callback fires for a synchronous refusal; settle the
  // admission ledger here so `outstanding` stays truthful.
  serve::FrameResult r;
  r.status = serve::FrameStatus::kEvicted;
  sh.admission->on_complete(r);
  switch (st) {
    case serve::SubmitStatus::kRejected:
      return ShardSubmit::kRejected;
    case serve::SubmitStatus::kInvalid:
      return ShardSubmit::kInvalid;
    default:
      return ShardSubmit::kClosed;
  }
}

void ShardedServer::drain() {
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    if (drained_) return;
    drained_ = true;
  }
  for (auto& sh : shards_) sh->server->drain();
}

serve::ServerMetrics ShardedServer::shard_metrics(usize i) const {
  return shards_[i]->server->metrics();
}

serve::ServerMetrics ShardedServer::global_metrics() const {
  serve::ServerMetrics g;
  for (const auto& sh : shards_) {
    const serve::ServerMetrics m = sh->server->metrics();
    g.submitted += m.submitted;
    g.completed += m.completed;
    g.expired_fallback += m.expired_fallback;
    g.expired_dropped += m.expired_dropped;
    g.evicted += m.evicted;
    g.rejected += m.rejected;
    g.deadline_misses += m.deadline_misses;
    g.in_queue += m.in_queue;
    g.wall_seconds = std::max(g.wall_seconds, m.wall_seconds);
    g.queue_wait = merge_latency(g.queue_wait, m.queue_wait);
    g.service = merge_latency(g.service, m.service);
    g.e2e = merge_latency(g.e2e, m.e2e);
    g.workers.insert(g.workers.end(), m.workers.begin(), m.workers.end());
  }
  g.throughput_fps = g.wall_seconds > 0.0
                         ? static_cast<double>(g.retired()) / g.wall_seconds
                         : 0.0;
  return g;
}

AdmissionStats ShardedServer::global_admission_stats() const {
  AdmissionStats g;
  for (const auto& sh : shards_) {
    const AdmissionStats s = sh->admission->stats();
    g.considered += s.considered;
    g.admitted += s.admitted;
    g.shed += s.shed;
    g.degraded_kbest += s.degraded_kbest;
    g.degraded_linear += s.degraded_linear;
    for (std::uint8_t q = 0; q < kQosClassCount; ++q) {
      g.admitted_by_class[q] += s.admitted_by_class[q];
      g.shed_by_class[q] += s.shed_by_class[q];
    }
  }
  return g;
}

}  // namespace sd::net
