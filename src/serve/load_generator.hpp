// Deterministic synthetic load for the serving runtime.
//
// Frame contents come from the seeded Monte-Carlo Scenario (mimo/scenario),
// so every run of the same configuration submits byte-identical frames in
// the same order — tests can assert exact frame accounting and compare the
// served results against single-shot decodes of the same trials.
//
// Two arrival processes:
//  - closed-loop: `window` frames stay outstanding; each completion submits
//    the next. Arrival adapts to service rate, so counts are exact and the
//    run is reproducible — the mode tests and the soak bench use.
//  - open-loop: frames are paced at a fixed rate regardless of completions
//    (the real base-station arrival model). Submission count is exact;
//    which frames expire or shed under overload depends on wall-clock.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "core/sphere_decoder.hpp"
#include "mimo/scenario.hpp"
#include "serve/server.hpp"

namespace sd::serve {

enum class ArrivalMode : std::uint8_t {
  kClosedLoop,  ///< fixed number of outstanding frames
  kOpenLoop,    ///< fixed arrival rate
};

[[nodiscard]] std::string_view arrival_mode_name(ArrivalMode m) noexcept;

struct LoadOptions {
  ArrivalMode mode = ArrivalMode::kClosedLoop;
  usize num_frames = 64;     ///< total frames to submit
  usize window = 4;          ///< closed-loop outstanding frames (>= 1)
  double rate_fps = 1000.0;  ///< open-loop arrival rate (> 0)
  double deadline_s = 0.0;   ///< per-frame budget; 0 = server default
  double snr_db = 8.0;
  std::uint64_t seed = 1;    ///< scenario seed (frame contents)
  /// Channel coherence block: H is drawn once per `coherence` consecutive
  /// frames, and frames of one block share one ChannelHandle (one storage
  /// allocation, one fingerprint). 1 = i.i.d. channels, the original
  /// byte-identical stream.
  usize coherence = 1;
  /// Independent cells multiplexed round-robin into one submission stream:
  /// frame i belongs to cell i % cells, and each cell draws from its own
  /// seeded scenario (seed + cell) with its own coherence blocks. With
  /// cells > 1 consecutive arrivals carry DIFFERENT channels — the
  /// interleaved multi-cell traffic the cross-channel wide engine and the
  /// cross-lane former are built for. 1 = the original single-cell stream.
  usize cells = 1;
  /// Optional cooperative stop flag (e.g. wired to a SIGINT handler). When
  /// it flips true, no further frames are submitted; run() still waits for
  /// every in-flight frame to reach a terminal state, drains the server,
  /// and returns a complete report — graceful shutdown, not abandonment.
  const std::atomic<bool>* stop = nullptr;
};

/// Result of one generated run. Detection quality is measured against the
/// scenario's ground truth for every frame that produced symbols.
struct LoadReport {
  usize submitted = 0;          ///< submit() calls made
  usize rejected_at_submit = 0; ///< synchronous refusals observed
  std::uint64_t symbol_errors = 0;  ///< vs ground truth (completed + fallback)
  std::uint64_t symbols_checked = 0;
  ServerMetrics metrics;        ///< snapshot after drain
  /// Per-backend breakdown and dispatcher counters, captured after drain.
  std::vector<dispatch::BackendMetrics> backends;
  dispatch::DispatchStats dispatch;
  /// Cost model state after the run (CostModel::export_json), so one run's
  /// calibration can warm-start the next.
  std::string cost_model_json;
};

class LoadGenerator {
 public:
  /// The generator owns the server for the duration of run(): closed-loop
  /// arrivals are driven from the completion callback, so the callback
  /// chain must be wired before the first submit.
  LoadGenerator(SystemConfig system, DecoderSpec spec, ServerOptions server,
                LoadOptions load);

  /// Called with the freshly built server before the first submit — the
  /// window for importing a warm cost model or other pre-traffic setup.
  using ServerHook = std::function<void(DetectionServer&)>;

  /// Runs the configured load to completion (every frame terminal), drains
  /// the server, and reports. `observer`, when set, sees every FrameResult
  /// (called from worker threads; must be thread-safe).
  [[nodiscard]] LoadReport run(const CompletionFn& observer = {},
                               const ServerHook& before_traffic = {});

 private:
  SystemConfig system_;
  DecoderSpec spec_;
  ServerOptions server_opts_;
  LoadOptions load_;
};

}  // namespace sd::serve
