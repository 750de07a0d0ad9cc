// Dispatcher: cost-model-driven frame placement over a heterogeneous
// backend pool.
//
// The serve layer's original worker pool treated every worker as
// interchangeable — correct when the pool is N clones of one detector, and
// wasteful the moment it isn't. A base station fronting both host software
// decoders and accelerator cards wants easy frames (high SNR, shallow search)
// on whatever is free and hard frames on the substrate that finishes them
// before the deadline. The Dispatcher makes that call per frame:
//
//   submit(frame)
//     -> FrameFeatures::extract          (SNR, geometry, conditioning proxy
//                                         from the channel handle's summary)
//     -> CostModel::predict per backend  (EWMA-calibrated analytic prior)
//     -> placement policy                (round-robin / least-loaded /
//                                         cost-aware + overload ladder)
//     -> Backend::place on a lane queue  (bounded, per-lane backpressure)
//
// The cost-aware policy minimizes predicted completion time: each global
// lane carries a running sum of the predicted seconds already queued on it,
// and a frame goes where (pending + predicted) is smallest. When even the
// best placement cannot meet the frame's deadline, the dispatcher degrades
// the decode tier along the backend's ladder (SD -> K-Best -> MMSE-Neumann
// -> linear) —
// shedding *work* instead of frames — before the queue-expiry ZF fallback
// ever has to fire. Completed decodes feed their observed node counts and
// charged seconds back into the cost model, closing the calibration loop.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "dispatch/backend.hpp"
#include "dispatch/cost_model.hpp"
#include "serve/frame.hpp"
#include "serve/metrics.hpp"

namespace sd::obs {
class CounterRegistry;
}

namespace sd::dispatch {

enum class PlacementPolicy : std::uint8_t {
  kRoundRobin,  ///< rotate over global lanes, ignore cost
  kLeastLoaded, ///< shallowest lane queue by frame count
  kCostAware,   ///< minimize predicted completion; degrade tiers on overload
};

[[nodiscard]] std::string_view placement_policy_name(PlacementPolicy p) noexcept;

/// Parses "round-robin" / "least-loaded" / "cost-aware"; throws on others.
[[nodiscard]] PlacementPolicy parse_placement_policy(std::string_view text);

struct DispatcherOptions {
  PlacementPolicy policy = PlacementPolicy::kCostAware;
  CostModelOptions cost = {};
  /// Degrade the decode tier along the ladder when no placement meets the
  /// frame's deadline (cost-aware policy only). Off = always primary tier.
  bool degrade_on_deadline = true;
  /// Completed frames per backend before its prediction errors count toward
  /// the reported mean (the model is still cold below this).
  std::uint64_t prediction_warmup = 16;
  double histogram_max_s = 1.0;
  usize histogram_buckets = 10'000;
};

/// Per-backend view: the same ServerMetrics shape the serve layer reports,
/// restricted to frames placed on this backend, plus the dispatch-specific
/// counters.
struct BackendMetrics {
  std::string label;
  BackendKind kind = BackendKind::kCpu;
  unsigned lanes = 0;
  serve::ServerMetrics metrics;
  std::uint64_t steals = 0;
  std::uint64_t degraded_kbest = 0;
  std::uint64_t degraded_mmse = 0;
  std::uint64_t degraded_linear = 0;
  /// Fused-width histogram of this backend's wide runs (index = frames per
  /// run) plus the wide-batch former's activity counters — per backend, so a
  /// mixed pool shows which substrate actually forms wide work.
  std::uint64_t fused_runs = 0;
  std::uint64_t fused_frames = 0;
  std::vector<std::uint64_t> fused_width_counts;
  std::uint64_t former_runs = 0;
  std::uint64_t former_gathered = 0;
  std::uint64_t former_empty = 0;
};

/// Dispatcher-level counters not tied to one backend.
struct DispatchStats {
  std::uint64_t steals = 0;          ///< frames rebound between lanes
  std::uint64_t degraded_kbest = 0;  ///< placements demoted to the K-Best tier
  std::uint64_t degraded_mmse = 0;   ///< placements demoted to the MMSE tier
  std::uint64_t degraded_linear = 0; ///< placements demoted to the linear tier
  std::uint64_t predictions = 0;     ///< completed frames with a prediction
  std::uint64_t prediction_samples = 0;  ///< post-warmup samples in the mean
  double mean_rel_error = 0.0;  ///< mean |pred-actual| / max(pred, actual)
  /// Prediction error split by prep-cache outcome: a calibrated model should
  /// show the two diverging (hits are cheaper than misses).
  std::uint64_t prediction_samples_hit = 0;
  std::uint64_t prediction_samples_miss = 0;
  double mean_rel_error_hit = 0.0;
  double mean_rel_error_miss = 0.0;
  std::uint64_t cost_observations = 0;   ///< decodes fed back into the model
  std::uint64_t cost_buckets = 0;        ///< calibrated (backend, scenario) buckets
  /// Coherence-block reuse: preprocessing cache traffic and fused multi-frame
  /// decode runs, aggregated over the backend pool (Backend::Snapshot: an
  /// expired frame counts as neither a prep hit nor a miss).
  std::uint64_t prep_hits = 0;
  std::uint64_t prep_misses = 0;
  std::uint64_t fused_runs = 0;    ///< decode_wide calls covering >= 2 frames
  std::uint64_t fused_frames = 0;  ///< frames decoded inside fused runs
  std::vector<std::uint64_t> fused_width_counts;  ///< index = frames per run
  /// Wide-batch former activity across the pool: pops the former widened
  /// (cross-lane claims and/or own-queue frames past batch_size), cross-lane
  /// frames gathered, and eligible pops that found nothing compatible to add
  /// (the former's idle signal).
  std::uint64_t former_runs = 0;
  std::uint64_t former_gathered = 0;
  std::uint64_t former_empty = 0;
  /// Frames refused at submit as kInvalid (sigma2 not finite and positive, a
  /// non-finite H or y entry). They never count as submitted.
  std::uint64_t rejected_invalid = 0;

  /// Pours the stats into the unified counter registry under "<prefix>.*",
  /// e.g. "dispatch.prediction.mean_rel_error".
  void export_counters(obs::CounterRegistry& registry,
                       std::string_view prefix = "dispatch") const;
};

class Dispatcher final : public LaneSink {
 public:
  /// Builds one Backend per config, registers each with the cost model, and
  /// starts every lane. Throws sd::invalid_argument_error on bad configs.
  Dispatcher(SystemConfig system, std::vector<BackendConfig> configs,
             DispatcherOptions options, serve::CompletionFn on_complete);

  /// Drains and joins.
  ~Dispatcher() override;

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Places one frame. Stamps frame.submit_time if unset; deadline defaults
  /// are the caller's business (DetectionServer applies its own). Blocks iff
  /// the chosen lane queue is full under kBlock. Refuses a frame no detector
  /// can answer in bounded work — sigma2 not finite and positive, a
  /// non-finite H or y entry — with kInvalid, the in-process twin of the
  /// wire decoder's kBadField. Thread-safe.
  serve::SubmitStatus submit(serve::FrameRequest frame);

  /// Closes every backend, drains all lane queues, joins all lanes.
  /// Idempotent. After drain() submits fail with kClosed.
  void drain();

  /// Aggregate metrics across the pool; `workers` holds one entry per
  /// global lane, in backend order. Thread-safe.
  [[nodiscard]] serve::ServerMetrics metrics() const;

  /// Per-backend breakdown, same order as the configs. Thread-safe.
  [[nodiscard]] std::vector<BackendMetrics> backend_metrics() const;

  [[nodiscard]] DispatchStats stats() const;

  [[nodiscard]] const DispatcherOptions& options() const noexcept {
    return opts_;
  }
  [[nodiscard]] const SystemConfig& system() const noexcept { return system_; }
  [[nodiscard]] usize backend_count() const noexcept { return backends_.size(); }
  [[nodiscard]] unsigned total_lanes() const noexcept { return total_lanes_; }

  /// The calibration state. Import before traffic to start warm; export
  /// after a run to persist. Thread-safe (the model locks internally).
  [[nodiscard]] CostModel& cost_model() noexcept { return cost_; }

  /// Cheapest predicted service time for `tier` across the backends whose
  /// ladder can actually serve it — the same filter (and cost shape) the
  /// cost-aware placement applies. Returns +infinity when no backend serves
  /// the tier, so callers treating the result as "can this tier meet a
  /// budget" never bank on an unplaceable (backend, tier) pair. Thread-safe.
  [[nodiscard]] double cheapest_prediction(const FrameFeatures& f,
                                           serve::DecodeTier tier);

  // LaneSink — invoked by backend lanes; not for external use.
  void frame_retired(const PlacedFrame& placed,
                     serve::FrameResult&& result) override;
  void frame_stolen(const PlacedFrame& placed, unsigned thief_lane) override;

 private:
  struct Placement {
    int backend = 0;
    unsigned lane = 0;
    serve::DecodeTier tier = serve::DecodeTier::kPrimary;
    double predicted_seconds = 0.0;
  };

  [[nodiscard]] Placement choose(const FrameFeatures& f, double deadline_s,
                                 std::uint64_t channel_fp,
                                 serve::DecodeTier start_tier);
  void account_evicted(const PlacedFrame& displaced);

  SystemConfig system_;
  DispatcherOptions opts_;
  serve::CompletionFn on_complete_;
  index_t mod_order_ = 0;

  std::vector<std::unique_ptr<Backend>> backends_;
  std::vector<unsigned> lane_base_;  ///< global index of backend b's lane 0
  unsigned total_lanes_ = 0;

  CostModel cost_;

  // Placement state: round-robin cursor and the per-global-lane sum of
  // predicted seconds still queued (the cost-aware policy's load signal).
  std::mutex place_mu_;
  std::uint64_t rr_next_ = 0;
  std::vector<double> pending_s_;
  /// Last channel fingerprint placed on each global lane (0 = none): the
  /// cost-aware policy's prep-cache affinity signal.
  std::vector<std::uint64_t> lane_last_fp_;

  // Metrics. Same single-lock discipline as the serve layer: counter and
  // histogram updates are noise next to a decode.
  mutable std::mutex metrics_mu_;
  std::uint64_t submitted_ = 0, completed_ = 0, expired_fallback_ = 0,
                expired_dropped_ = 0, evicted_ = 0, rejected_ = 0,
                deadline_misses_ = 0;
  std::uint64_t degraded_kbest_ = 0, degraded_mmse_ = 0, degraded_linear_ = 0;
  std::uint64_t rejected_invalid_ = 0;
  std::uint64_t predictions_ = 0, prediction_samples_ = 0;
  double prediction_abs_rel_err_sum_ = 0.0;
  std::uint64_t prediction_samples_hit_ = 0, prediction_samples_miss_ = 0;
  double prediction_err_sum_hit_ = 0.0, prediction_err_sum_miss_ = 0.0;
  Histogram queue_wait_h_, service_h_, e2e_h_;
  struct PerBackend {
    std::uint64_t submitted = 0, completed = 0, expired_fallback = 0,
                  expired_dropped = 0, evicted = 0, rejected = 0,
                  deadline_misses = 0, retired = 0;
    Histogram queue_wait, service, e2e;
    PerBackend(double max_s, usize buckets)
        : queue_wait(0.0, max_s, buckets),
          service(0.0, max_s, buckets),
          e2e(0.0, max_s, buckets) {}
  };
  std::vector<PerBackend> per_backend_;
  serve::Clock::time_point start_;
  double drained_wall_s_ = -1.0;
  bool drained_ = false;
};

}  // namespace sd::dispatch
