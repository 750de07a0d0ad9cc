// Per-cell sharding of the detection runtime.
//
// A cell's channel structure never crosses cell boundaries — users of cell A
// and cell B see independent channels, so one shared ChannelPrepCache (and
// one shared lane pool) mixes two working sets for zero reuse. ShardedServer
// gives every shard its own full serving stack:
//
//   shard = DetectionServer (Dispatcher + backend pool + ChannelPrepCaches)
//         + AdmissionController (shed-before-miss, per-shard load estimate)
//         + its own ServerMetrics / DispatchStats
//
// and a ShardRouter maps cell id -> shard (cell % shards: deterministic,
// stateless, and stable across runs — the property the bit-identity e2e test
// pins). Admission runs per shard *before* submit: a kShed decision costs the
// shard nothing, and an admitted frame enters pre-degraded through
// FrameRequest::start_tier. Global reporting is a deterministic merge of the
// per-shard snapshots (counter sums, count-weighted latency summaries), so
// the operator view stays one report regardless of shard count.
// See DESIGN.md §13.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "net/admission.hpp"
#include "net/qos.hpp"
#include "serve/server.hpp"

namespace sd::net {

/// Deterministic cell -> shard map.
class ShardRouter {
 public:
  explicit ShardRouter(usize num_shards) : num_shards_(num_shards) {}
  [[nodiscard]] usize route(std::uint32_t cell_id) const noexcept {
    return cell_id % num_shards_;
  }
  [[nodiscard]] usize num_shards() const noexcept { return num_shards_; }

 private:
  usize num_shards_;
};

struct ShardedServerOptions {
  usize num_shards = 1;
  serve::ServerOptions server;      ///< replicated per shard
  AdmissionOptions admission;
};

/// Outcome of ShardedServer::submit — SubmitStatus plus the admission shed.
enum class ShardSubmit : std::uint8_t {
  kAccepted,
  kShed,      ///< admission refused (shed-before-miss)
  kRejected,  ///< backpressure refused at the shard queue
  kClosed,
  kInvalid,   ///< the dispatcher refused the frame's contents (kInvalid)
};

class ShardedServer {
 public:
  /// Builds `num_shards` independent serving stacks. The completion path of
  /// every shard notifies that shard's admission controller, then the tap
  /// (set_completion_tap), tagging each result with its shard.
  ShardedServer(SystemConfig system, DecoderSpec spec,
                ShardedServerOptions options);
  ~ShardedServer();

  ShardedServer(const ShardedServer&) = delete;
  ShardedServer& operator=(const ShardedServer&) = delete;

  /// Observer for every terminal FrameResult, with the shard that served it.
  /// Must be installed before the first submit (the ingress server does this
  /// at start): lane threads read it unlocked after that point.
  using TapFn = std::function<void(usize shard, const serve::FrameResult&)>;
  void set_completion_tap(TapFn tap);

  /// Routes by cell, runs admission, and submits on acceptance. The frame's
  /// start_tier is overwritten with the admission decision. Blocks iff the
  /// shard's lane queue is full under kBlock. Thread-safe.
  ShardSubmit submit(std::uint32_t cell_id, serve::FrameRequest frame,
                     QosClass qos, AdmitDecision* decision = nullptr);

  /// Drains every shard (all in-flight frames terminal). Idempotent.
  void drain();

  [[nodiscard]] usize num_shards() const noexcept { return shards_.size(); }
  [[nodiscard]] const ShardRouter& router() const noexcept { return router_; }

  [[nodiscard]] serve::DetectionServer& shard(usize i) {
    return *shards_[i]->server;
  }
  [[nodiscard]] AdmissionController& admission(usize i) {
    return *shards_[i]->admission;
  }

  /// Per-shard snapshot.
  [[nodiscard]] serve::ServerMetrics shard_metrics(usize i) const;

  /// Deterministic merge across shards: counters and worker lists sum /
  /// concatenate in shard order; wall time is the max; latency summaries are
  /// merged count-weighted (means exact; quantiles and max conservative —
  /// per-shard maxima of the quantile, documented in DESIGN.md §13).
  [[nodiscard]] serve::ServerMetrics global_metrics() const;

  /// Aggregate admission stats across shards (field-wise sums).
  [[nodiscard]] AdmissionStats global_admission_stats() const;

 private:
  struct Shard {
    std::unique_ptr<serve::DetectionServer> server;
    std::unique_ptr<AdmissionController> admission;
  };

  ShardRouter router_;
  std::vector<std::unique_ptr<Shard>> shards_;
  TapFn tap_;  ///< written before traffic, read by lane threads
  std::mutex drain_mu_;
  bool drained_ = false;
};

/// Count-weighted merge of two latency summaries (exposed for tests).
[[nodiscard]] serve::LatencySummary merge_latency(
    const serve::LatencySummary& a, const serve::LatencySummary& b);

}  // namespace sd::net
