// DetectionServer: the batched, deadline-aware runtime that turns the
// single-shot detectors into a served workload.
//
// Architecture (DESIGN.md §6, §8):
//
//   submit() ──> Dispatcher (src/dispatch)
//                   │  feature extraction -> cost model -> placement policy
//                   ▼
//             Backend pool: CPU / FPGA / parallel-SD backends, each with
//             N lanes owning private detector ladders and bounded queues
//                   │  per frame: deadline check -> decode or ZF fallback
//                   ▼
//             completion callback (any lane thread) + ServerMetrics
//
// The classic homogeneous worker pool is the degenerate case: with no
// `backends` spec the server builds a single CPU backend whose lane count is
// num_workers, which behaves exactly like the original pop-batch pool. A
// `backends` spec ("cpu:4,fpga:2,...") turns on the heterogeneous pool and
// cost-aware placement.
//
// Deadline semantics: a frame's budget starts when submit() stamps it. If
// the budget is already exhausted when a lane dequeues the frame, decoding
// it would waste capacity on an answer nobody is waiting for — the lane
// instead serves a ZF fallback (graceful degradation, never silence) or
// drops it, per ServerOptions. Frames that finish late still count as
// deadline misses. Under predicted overload the dispatcher additionally
// degrades the decode *tier* (SD -> K-Best -> linear) before frames ever
// expire: shed work, not frames.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "core/sphere_decoder.hpp"
#include "dispatch/dispatcher.hpp"
#include "serve/frame.hpp"
#include "serve/metrics.hpp"
#include "serve/queue.hpp"

namespace sd::serve {

struct ServerOptions {
  unsigned num_workers = 1;        ///< lanes of the degenerate CPU pool (>= 1)
  usize batch_size = 1;            ///< max frames per queue pop (>= 1)
  usize queue_capacity = 64;       ///< bounded queue depth per lane (>= 1)
  BackpressurePolicy policy = BackpressurePolicy::kBlock;
  double default_deadline_s = 0.0; ///< applied when a frame carries none; 0 = none
  /// Wide-batch former: lanes extend their pops with compatible frames from
  /// sibling lanes' queues, so fused width tracks system load (DESIGN.md
  /// §16). Results are bit-identical either way; off = per-lane fusion only.
  bool cross_lane_former = true;
  /// Hard cap on frames per formed wide run.
  usize max_wide_width = 32;
  bool zf_fallback_on_expiry = true;
  /// Heterogeneous pool spec for parse_backend_pool, e.g.
  /// "cpu:4,fpga:2:rtt-ms=1". Empty = degenerate single-CPU-backend pool
  /// with num_workers lanes.
  std::string backends;
  /// How the dispatcher places frames onto lanes.
  dispatch::PlacementPolicy placement = dispatch::PlacementPolicy::kCostAware;
  /// Default host<->device RTT for fpga pool entries without an rtt-ms field.
  double fpga_rtt_s = 1e-3;
  /// Degrade decode tiers when no placement meets a frame's deadline
  /// (cost-aware placement only).
  bool degrade_on_deadline = true;
  /// Freeze the cost model's measured-rate calibration so placement depends
  /// only on deterministic node counts (reproducible placement sequences).
  bool deterministic_cost = false;
  /// Histogram range for latency recording; values above clamp into the last
  /// bucket but max stays exact. 0.1 ms resolution over [0, 1 s] by default.
  double histogram_max_s = 1.0;
  usize histogram_buckets = 10'000;
};

/// Parses "workers=4,batch=8,queue=64,policy=drop-oldest,deadline-ms=10,
/// no-fallback,no-cross-lane-fuse,wide-width=32,placement=cost-aware,
/// fpga-rtt-ms=1,no-degrade,deterministic-cost" (any subset, any order) on
/// top of `base`. The `backends` pool spec is itself comma-separated, so it
/// cannot ride in this option string — set it directly or via a dedicated
/// CLI flag. Throws sd::invalid_argument_error on unknown keys or bad values.
[[nodiscard]] ServerOptions parse_server_options(std::string_view text,
                                                 ServerOptions base = {});

class DetectionServer {
 public:
  /// Builds the backend pool (from options.backends, or the degenerate
  /// single CPU backend) and starts every lane. Each lane builds its own
  /// detector, so any spec the factory accepts can be served. Throws
  /// sd::invalid_argument_error on bad options.
  DetectionServer(SystemConfig system, DecoderSpec spec, ServerOptions options,
                  CompletionFn on_complete);

  /// Drains and joins.
  ~DetectionServer();

  DetectionServer(const DetectionServer&) = delete;
  DetectionServer& operator=(const DetectionServer&) = delete;

  /// Submits one frame. Stamps frame.submit_time and applies the default
  /// deadline if the frame carries none. Blocks iff the chosen lane queue is
  /// full under kBlock. Thread-safe.
  SubmitStatus submit(FrameRequest frame);

  /// Closes the pool, lets lanes drain every queued frame, joins them.
  /// Idempotent. After drain() submits fail with kClosed.
  void drain();

  /// Point-in-time metrics snapshot (aggregate across the pool; `workers`
  /// holds one entry per lane). Thread-safe.
  [[nodiscard]] ServerMetrics metrics() const;

  [[nodiscard]] const ServerOptions& options() const noexcept { return opts_; }
  [[nodiscard]] const SystemConfig& system() const noexcept { return system_; }

  /// The placement layer, for per-backend metrics, dispatch stats, and cost
  /// model import/export. Valid for the server's lifetime.
  [[nodiscard]] dispatch::Dispatcher& dispatcher() noexcept {
    return *dispatcher_;
  }
  [[nodiscard]] const dispatch::Dispatcher& dispatcher() const noexcept {
    return *dispatcher_;
  }

 private:
  SystemConfig system_;
  DecoderSpec spec_;
  ServerOptions opts_;
  std::unique_ptr<dispatch::Dispatcher> dispatcher_;
};

}  // namespace sd::serve
