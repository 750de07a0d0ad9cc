// Frame-level request/response types for the serving runtime.
//
// A FrameRequest is one received MIMO vector plus its channel estimate —
// exactly the (h, y, sigma2) triple Detector::decode consumes — wrapped
// with the bookkeeping the server needs: an id, a per-frame latency budget,
// and the submit timestamp stamped when the server accepts the frame.
//
// These types sit at the bottom of the serving stack: both the dispatch
// layer (src/dispatch — backend pool, cost model, placement) and the server
// facade (src/serve) speak them.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string_view>

#include "decode/detector.hpp"
#include "linalg/matrix.hpp"

namespace sd::serve {

/// Monotonic clock used for all serving timestamps.
using Clock = std::chrono::steady_clock;

/// Which rung of the overload ladder decoded a frame. The dispatcher degrades
/// placement along primary -> K-Best -> MMSE-Neumann -> linear when the
/// predicted completion time exceeds the frame's deadline — shedding *work*,
/// not frames. kPrimary is whatever the backend's configured decoder is; the
/// lower tiers are the progressively cheaper approximations every lane keeps
/// on standby. Values are wire-visible (src/net) and must stay dense and
/// ordered cheapest-last.
enum class DecodeTier : std::uint8_t {
  kPrimary = 0,     ///< the backend's configured decoder
  kKBest = 1,       ///< breadth-limited search (fixed complexity)
  kMmseApprox = 2,  ///< Gram-domain MMSE with Neumann-series inverse
  kLinear = 3,      ///< equalize-and-slice (cheapest)
};

[[nodiscard]] std::string_view decode_tier_name(DecodeTier t) noexcept;

/// One frame submitted for detection.
///
/// The channel estimate travels as a shared immutable ChannelHandle: frames
/// of one coherence block reference a single H allocation through every
/// queue hop (submit -> lane queue -> steal -> decode), instead of the dense
/// matrix being deep-copied per frame per hop. The handle's fingerprint also
/// keys the backends' preprocessing cache.
struct FrameRequest {
  std::uint64_t id = 0;        ///< caller-chosen identifier, echoed back
  ChannelHandle channel;       ///< shared channel estimate (N x M)
  CVec y;                      ///< received vector (length N)
  double sigma2 = 0.0;         ///< noise variance
  double deadline_s = 0.0;     ///< end-to-end budget from accept; 0 = none
  Clock::time_point submit_time{};  ///< stamped by DetectionServer::submit
  /// Highest decode-ladder rung this frame may be served at. Admission
  /// control (src/net) pre-degrades overloaded frames by lowering this; the
  /// dispatcher never places the frame above it. kPrimary = no restriction.
  DecodeTier start_tier = DecodeTier::kPrimary;

  /// The channel matrix. Requires a valid handle (submit enforces this).
  [[nodiscard]] const CMat& h() const { return channel.matrix(); }
};

/// Terminal state of a frame.
enum class FrameStatus : std::uint8_t {
  kCompleted,        ///< decoded by the configured backend
  kExpiredFallback,  ///< deadline passed in queue; ZF fallback result attached
  kExpiredDropped,   ///< deadline passed in queue; no fallback configured
  kEvicted,          ///< displaced by drop-oldest backpressure, never decoded
};

[[nodiscard]] std::string_view frame_status_name(FrameStatus s) noexcept;

/// Outcome of DetectionServer::submit / Dispatcher::submit.
enum class SubmitStatus : std::uint8_t {
  kAccepted,  ///< enqueued (a drop-oldest displacement still accepts)
  kRejected,  ///< refused: reject policy with a full queue
  kClosed,    ///< server already drained
  kInvalid,   ///< refused: sigma2 not finite and positive, or a non-finite
              ///< H or y entry (counted as dispatch.rejected.invalid)
};

/// Completion record delivered to the server's callback. `result` holds the
/// backend decode for kCompleted, the ZF fallback for kExpiredFallback, and
/// is default-constructed (empty indices, infinite metric) otherwise.
struct FrameResult {
  std::uint64_t id = 0;
  FrameStatus status = FrameStatus::kCompleted;
  unsigned worker_id = 0;       ///< global lane index that retired the frame
  int backend_id = 0;           ///< backend within the pool (0 when degenerate)
  unsigned lane_id = 0;         ///< lane within the backend that decoded it
  DecodeTier tier = DecodeTier::kPrimary;  ///< overload-ladder rung served
  bool stolen = false;          ///< decoded by a lane other than the placed one
  DecodeResult result;
  double queue_wait_s = 0.0;    ///< submit -> dequeue
  double service_s = 0.0;       ///< dequeue -> done (0 for kEvicted)
  double e2e_s = 0.0;           ///< submit -> done
  bool deadline_missed = false; ///< had a deadline and e2e exceeded it
};

/// Invoked on a worker thread (or, for evicted frames, on the submitting
/// thread) once per frame reaching a terminal state other than kRejected.
/// Must be thread-safe; keep it cheap — it runs on the decode path.
using CompletionFn = std::function<void(const FrameResult&)>;

}  // namespace sd::serve
