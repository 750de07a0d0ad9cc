// Backend: one execution substrate of the heterogeneous pool, wrapped as a
// capacity-bearing device.
//
// A Backend owns N lanes. Each lane is a thread with its own bounded frame
// queue and a private ladder of detectors (the configured decoder, a K-Best
// fallback, a linear fallback), so decodes never share mutable state. The
// dispatcher places frames onto specific lanes; idle lanes of a stealing-
// enabled backend (CPU lanes) take work from their most-backlogged sibling,
// so a mispredicted placement costs occupancy, not latency.
//
// BackendKind names the substrate; the lane machinery is the same for all:
//   - kCpu: one detector per lane built from an arbitrary DecoderSpec.
//   - kFpga: each lane drives a simulated FpgaPipeline design point and is
//     paced to the *charged* device time (cycle model) plus a configurable
//     host<->device RTT — the accelerator round trip a host thread blocks on.
//   - kParallelSd: lanes own multi-threaded sub-tree SD detectors.
// Any kind can be paced (pace_to_charged, the `rtt-ms=` pool field); kFpga
// always is.
#pragma once

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/sphere_decoder.hpp"
#include "decode/channel_prep.hpp"
#include "serve/frame.hpp"
#include "serve/metrics.hpp"
#include "serve/queue.hpp"

namespace sd::dispatch {

enum class BackendKind : std::uint8_t { kCpu, kFpga, kParallelSd };

[[nodiscard]] std::string_view backend_kind_name(BackendKind k) noexcept;

struct BackendConfig {
  BackendKind kind = BackendKind::kCpu;
  std::string label = "cpu";
  unsigned lanes = 1;
  DecoderSpec decoder;             ///< lane detector spec
  double rtt_s = 0.0;              ///< host<->device round trip (paced backends)
  bool pace_to_charged = false;    ///< sleep to charged device time + RTT
  bool allow_stealing = true;      ///< idle lanes steal from siblings
  usize lane_queue_capacity = 64;  ///< bounded depth per lane
  serve::BackpressurePolicy policy = serve::BackpressurePolicy::kBlock;
  usize batch_size = 1;            ///< max frames per own-queue pop
  /// Wide-batch former (DESIGN.md §16): when a lane pops work, it also drains
  /// compatible frames (same tier, fusable prep) from its SIBLING lanes'
  /// queues — up to a fair share of the backend's ready work — so the run
  /// width tracks system load instead of one lane's queue depth. Claims
  /// happen under the same queue mutex as work stealing, so a claimed frame
  /// can never be stolen or decoded twice. No-op for single-lane backends
  /// and for decoders without a cacheable prep phase (their runs are single
  /// frames). Paced lanes of a prep-capable decoder gather too — the run pays
  /// one RTT and sleeps to its summed charged time (see Backend::run).
  bool cross_lane_former = true;
  /// Hard cap on frames per formed wide run (own pop + cross-lane gather).
  usize max_wide_width = 32;
  bool zf_fallback_on_expiry = true;
  /// Cost-model rate priors for this substrate (seconds per expanded node and
  /// fixed per-frame overhead including any RTT).
  double prior_seconds_per_node = 150e-9;
  double prior_overhead_s = 30e-6;
  /// Entries in the backend's shared channel-preprocessing cache (one per
  /// distinct (channel, PrepKind) in flight; coherence blocks need one).
  usize prep_cache_capacity = 64;
};

/// A frame bound to a (backend, lane) with its placement metadata. The
/// dispatcher fills everything; the executing lane updates `lane` /
/// `stolen` when work stealing moves it, and `charged_seconds` after decode.
struct PlacedFrame {
  serve::FrameRequest frame;
  serve::DecodeTier tier = serve::DecodeTier::kPrimary;
  int backend_id = 0;
  unsigned lane = 0;           ///< lane the frame executes on
  unsigned global_worker = 0;  ///< flattened lane index across the pool
  bool stolen = false;
  double predicted_seconds = 0.0;  ///< dispatcher's prediction at placement
  double charged_seconds = 0.0;    ///< filled by the lane after decode
  /// Set by the decoding lane: the channel factorization came from the
  /// backend's prep cache (or an earlier frame of the same popped run)
  /// instead of being rebuilt for this frame.
  bool prep_hit = false;
  /// Frame features captured at placement so the completion path can update
  /// the cost model without recomputing them.
  double snr_db = 0.0;
  double cond_proxy = 1.0;
};

/// Callbacks from lane threads into the dispatcher. Implementations must be
/// thread-safe; both run on the decode path.
class LaneSink {
 public:
  virtual ~LaneSink() = default;
  /// One frame reached a terminal state on a lane. Backend-local accounting
  /// has already happened; the sink performs dispatcher-level accounting and
  /// invokes the user completion callback.
  virtual void frame_retired(const PlacedFrame& placed,
                             serve::FrameResult&& result) = 0;
  /// `placed` moved from lane `placed.lane` to `thief_lane` before decoding.
  virtual void frame_stolen(const PlacedFrame& placed, unsigned thief_lane) = 0;
  /// The wide-batch former claimed `placed` from lane `placed.lane` into a
  /// wide run executing on `gatherer_lane`. The dispatcher-side accounting
  /// is the same rebinding a steal needs, so the default forwards there;
  /// sinks that distinguish the two can override.
  virtual void frame_gathered(const PlacedFrame& placed,
                              unsigned gatherer_lane) {
    frame_stolen(placed, gatherer_lane);
  }
};

class Backend {
 public:
  struct PushResult {
    serve::PushStatus status = serve::PushStatus::kAccepted;
    std::optional<PlacedFrame> displaced;  ///< set iff kDisplacedOldest
  };

  /// Point-in-time accounting snapshot.
  struct Snapshot {
    std::uint64_t frames = 0;      ///< retired through this backend's lanes
    std::uint64_t completed = 0;
    std::uint64_t expired_fallback = 0;
    std::uint64_t expired_dropped = 0;
    std::uint64_t steals = 0;
    std::uint64_t degraded_kbest = 0;
    std::uint64_t degraded_mmse = 0;
    std::uint64_t degraded_linear = 0;
    /// Coherence-block reuse: frames whose channel factorization was reused
    /// (cache or same popped run) vs rebuilt, fused multi-frame decode runs,
    /// and the distribution of fused-run widths (index = frames per run).
    /// Hits and misses count only live frames on a rung with a cacheable
    /// channel phase: an expired frame is answered by ZF from H or dropped,
    /// resolves no channel and counts as neither.
    std::uint64_t prep_hits = 0;
    std::uint64_t prep_misses = 0;
    std::uint64_t fused_runs = 0;
    std::uint64_t fused_frames = 0;
    std::vector<std::uint64_t> fused_width_counts;
    /// Wide-batch former activity: pops the former widened (with cross-lane
    /// claims and/or own-queue frames past batch_size), total CROSS-LANE
    /// frames gathered, and eligible pops that found nothing compatible to
    /// add (the former's idle/occupancy signal).
    std::uint64_t former_runs = 0;
    std::uint64_t former_gathered = 0;
    std::uint64_t former_empty = 0;
    usize in_queue = 0;
    std::vector<serve::WorkerStats> lanes;  ///< utilization filled by caller
  };

  /// Validates the config (an fpga kind needs an @fpga decoder and is always
  /// paced; a parallel-sd kind needs a multipe decoder) and eagerly builds
  /// (and discards) one detector so an unbuildable spec fails in the
  /// constructing thread, not in a lane.
  Backend(SystemConfig system, BackendConfig config);
  ~Backend();

  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  /// Spawns the lane threads. Call exactly once; `sink` must outlive close().
  void start(LaneSink& sink);

  /// Admits a frame onto lane `frame.lane` under the configured backpressure
  /// policy. Blocks iff the lane queue is full under kBlock. Thread-safe.
  [[nodiscard]] PushResult place(PlacedFrame frame);

  /// Closes all lane queues: subsequent places fail with kClosed; lanes
  /// drain every queued frame and exit. Idempotent.
  void close();

  /// Joins the lane threads (close() first).
  void join();

  [[nodiscard]] unsigned lanes() const noexcept { return cfg_.lanes; }
  [[nodiscard]] const BackendConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const SystemConfig& system() const noexcept { return system_; }

  /// Queued frames on one lane / across all lanes. Thread-safe.
  [[nodiscard]] usize queue_depth(unsigned lane) const;
  [[nodiscard]] usize queue_depth_total() const;

  [[nodiscard]] Snapshot snapshot() const;

  /// The overload-ladder tiers this backend can serve, cheapest last. Always
  /// starts with kPrimary; SD-family decoders degrade through kKBest and
  /// kMmseApprox to kLinear, fixed-complexity decoders skip the kKBest rung,
  /// an MMSE-Neumann primary degrades straight to kLinear, and linear
  /// decoders not at all.
  [[nodiscard]] const std::vector<serve::DecodeTier>& ladder() const noexcept {
    return ladder_;
  }

 private:
  struct Lane;  ///< one lane's detector ladder and reusable run scratch

  void lane_main(unsigned lane);
  /// Blocks for work: fills `out` from the lane's own queue (up to
  /// batch_size), or steals one frame from the most-backlogged sibling when
  /// the own queue is empty. Returns false when closed and fully drained.
  bool next_batch(unsigned lane, std::vector<PlacedFrame>& out);
  /// Decodes and retires one run: consecutive frames of one popped batch
  /// that share a tier (channels may differ). Expired frames peel off to
  /// the ZF fallback or are dropped; each distinct channel is resolved once,
  /// from the run and then from prep_cache_; the live frames decode in one
  /// decode_wide call (decode_into for a rung without a cacheable phase,
  /// whose runs are single frames), each against its own prep and
  /// bit-identical to a one-shot decode. Paced backends sleep to the run's
  /// summed charged device time plus ONE round trip. A width-1 run is just
  /// a run.
  void run(Lane& lane, std::span<PlacedFrame> frames);

  SystemConfig system_;
  BackendConfig cfg_;
  std::vector<serve::DecodeTier> ladder_;
  LaneSink* sink_ = nullptr;
  /// Shared across this backend's lanes: (fingerprint, kind) -> prep. Lanes
  /// of one backend serve the same coherent stream, so sharing the cache
  /// (instead of one per lane) lets a stolen or rebalanced frame still hit.
  ChannelPrepCache prep_cache_;
  /// Lets a test look up the prep a lane built and timed.
  friend struct BackendTestAccess;

  /// True when this backend's lanes may form cross-lane wide runs: the
  /// config enables it, there are siblings to gather from, and the primary
  /// detector has a cacheable prep phase (probed once at construction).
  /// Paced lanes of a prep-capable decoder qualify too: a gathered run pays
  /// ONE host<->device round trip. `fpga` lanes never gather (the FPGA model
  /// has no prep phase) and pay one RTT per frame.
  bool former_enabled_ = false;

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::vector<std::deque<PlacedFrame>> queues_;
  /// Lanes currently inside next_batch (popping or blocked waiting) under
  /// mu_. The former divides the backend's ready work by this count, so a
  /// gathering lane takes a fair share instead of draining its siblings and
  /// serializing the backend.
  unsigned hungry_ = 0;
  bool closed_ = false;

  mutable std::mutex acct_mu_;
  Snapshot acct_;  ///< in_queue unused here; computed from queues_

  std::vector<std::thread> threads_;
};

/// Heap-allocates the Backend for config.
[[nodiscard]] std::unique_ptr<Backend> make_backend(const SystemConfig& system,
                                                    BackendConfig config);

/// Overwrites cfg's cost-model rate priors with the defaults for its kind
/// (plus the RTT for paced backends). parse_backend_pool applies this to
/// every entry; call it yourself when building a BackendConfig by hand.
void apply_rate_priors(BackendConfig& cfg);

/// Defaults a pool spec inherits from the server options.
struct PoolDefaults {
  DecoderSpec primary;             ///< what "cpu" resolves to
  usize lane_queue_capacity = 64;
  serve::BackpressurePolicy policy = serve::BackpressurePolicy::kBlock;
  usize batch_size = 1;
  bool cross_lane_former = true;
  usize max_wide_width = 32;
  bool zf_fallback_on_expiry = true;
  double fpga_rtt_s = 1e-3;        ///< default RTT for fpga entries
};

/// Parses a backend-pool spec: comma-separated entries of
/// `kind[:lanes][:rtt-ms=X][:opt=val...]`, e.g. "cpu:4,fpga:2:rtt-ms=1".
/// Kinds: `cpu` (the server's primary decoder), `fpga` / `fpga-base`
/// (simulated design points), `multipe` (parallel sub-tree SD), or any
/// decoder-spec name (`kbest:2:k=8`, `zf`, ...) for a CPU backend of that
/// decoder. Bare integer fields set the lane count; remaining `key=val`
/// fields become decoder options. Throws sd::invalid_argument_error on
/// malformed specs.
[[nodiscard]] std::vector<BackendConfig> parse_backend_pool(
    std::string_view text, const PoolDefaults& defaults);

}  // namespace sd::dispatch
