#include "serve/load_generator.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace sd::serve {

std::string_view arrival_mode_name(ArrivalMode m) noexcept {
  switch (m) {
    case ArrivalMode::kClosedLoop: return "closed-loop";
    case ArrivalMode::kOpenLoop: return "open-loop";
  }
  return "?";
}

LoadGenerator::LoadGenerator(SystemConfig system, DecoderSpec spec,
                             ServerOptions server, LoadOptions load)
    : system_(system), spec_(spec), server_opts_(server), load_(load) {
  SD_CHECK(load_.num_frames > 0, "load needs at least one frame");
  if (load_.mode == ArrivalMode::kClosedLoop) {
    SD_CHECK(load_.window >= 1, "closed-loop window must be positive");
    // With window <= capacity a closed-loop producer can never find the
    // queue full, so submits from completion callbacks cannot block a
    // worker thread (or trigger shedding) — the no-deadlock invariant.
    SD_CHECK(load_.window <= server_opts_.queue_capacity,
             "closed-loop window must fit in the queue");
  } else {
    SD_CHECK(load_.rate_fps > 0.0, "open-loop rate must be positive");
  }
  SD_CHECK(load_.coherence >= 1, "coherence block must be positive");
  SD_CHECK(load_.cells >= 1, "cell count must be positive");
}

LoadReport LoadGenerator::run(const CompletionFn& observer,
                              const ServerHook& before_traffic) {
  // Pre-generate every frame from the seeded scenario(s): identical runs see
  // identical (h, y, sigma2) streams, and ground truth stays available for
  // symbol-error accounting. With cells > 1, each cell owns an independent
  // scenario (seed + cell) and the cells are multiplexed round-robin into
  // the submission order — consecutive arrivals then carry different
  // channels, the interleaved traffic shape the wide engine fuses across.
  // One shared ChannelHandle per (cell, coherence block): every frame of a
  // block points at the same immutable storage (and carries the same
  // fingerprint), so nothing downstream ever copies or re-fingerprints H.
  const usize n_total = load_.num_frames;
  std::vector<Trial> trials(n_total);
  std::vector<ChannelHandle> channels(n_total);
  for (usize cell = 0; cell < load_.cells; ++cell) {
    ScenarioConfig sc;
    sc.num_tx = system_.num_tx;
    sc.num_rx = system_.num_rx;
    sc.modulation = system_.modulation;
    sc.snr_db = load_.snr_db;
    sc.seed = load_.seed + cell;
    sc.coherence_block = load_.coherence;
    Scenario scenario(sc);
    usize k = 0;  // per-cell frame index, for the cell's coherence blocks
    for (usize i = cell; i < n_total; i += load_.cells, ++k) {
      trials[i] = scenario.next();
      channels[i] = (k % load_.coherence == 0)
                        ? ChannelHandle(trials[i].h)
                        : channels[i - load_.cells];
    }
  }

  struct Shared {
    std::mutex mu;
    std::condition_variable all_done;
    usize next = 0;        // next frame index to submit (closed loop)
    usize outstanding = 0; // frames in flight (closed loop)
    usize terminal = 0;    // frames that reached a terminal state
    usize submitted = 0;
    usize rejected = 0;
    std::uint64_t symbol_errors = 0;
    std::uint64_t symbols_checked = 0;
  } sh;
  const usize n = load_.num_frames;

  // Cooperative stop: once this reads true no further frames are submitted;
  // frames already in flight still run to a terminal state below.
  const auto stopped = [this] {
    return load_.stop != nullptr &&
           load_.stop->load(std::memory_order_relaxed);
  };

  DetectionServer* server = nullptr;  // set before any submit below

  auto make_frame = [&](usize i) {
    FrameRequest f;
    f.id = i;
    f.channel = channels[i];
    f.y = trials[i].y;
    f.sigma2 = trials[i].sigma2;
    f.deadline_s = load_.deadline_s;
    return f;
  };

  // Submits frames while the closed-loop window has room. Called from run()
  // to prime the window and from the completion callback to refill it.
  std::function<void()> pump = [&] {
    for (;;) {
      usize i = 0;
      {
        std::lock_guard<std::mutex> lock(sh.mu);
        if (stopped() || sh.next >= n || sh.outstanding >= load_.window)
          return;
        i = sh.next++;
        ++sh.outstanding;
      }
      const SubmitStatus st = server->submit(make_frame(i));
      std::lock_guard<std::mutex> lock(sh.mu);
      ++sh.submitted;
      // kRejected, kClosed and kInvalid all refuse synchronously: no
      // completion will fire. (An invalid frame is also counted in
      // report.dispatch.rejected_invalid.)
      if (st != SubmitStatus::kAccepted) {
        ++sh.rejected;
        ++sh.terminal;
        --sh.outstanding;
        if (sh.terminal == n) sh.all_done.notify_all();
      }
    }
  };

  auto on_complete = [&](const FrameResult& r) {
    if (observer) observer(r);
    bool refill = false;
    {
      std::lock_guard<std::mutex> lock(sh.mu);
      if ((r.status == FrameStatus::kCompleted ||
           r.status == FrameStatus::kExpiredFallback) &&
          r.id < trials.size()) {
        const std::vector<index_t>& truth = trials[r.id].tx.indices;
        const std::vector<index_t>& got = r.result.indices;
        for (usize k = 0; k < truth.size(); ++k) {
          ++sh.symbols_checked;
          if (k >= got.size() || got[k] != truth[k]) ++sh.symbol_errors;
        }
      }
      ++sh.terminal;
      if (sh.outstanding > 0) --sh.outstanding;
      refill = load_.mode == ArrivalMode::kClosedLoop && sh.next < n;
      if (sh.terminal == n) sh.all_done.notify_all();
    }
    if (refill) pump();
  };

  DetectionServer srv(system_, spec_, server_opts_, on_complete);
  server = &srv;
  if (before_traffic) before_traffic(srv);

  if (load_.mode == ArrivalMode::kClosedLoop) {
    pump();
  } else {
    // Fixed-rate open loop: arrival i fires at start + i/rate, regardless
    // of how the pool is keeping up — the backpressure policy absorbs any
    // mismatch.
    const Clock::time_point t0 = Clock::now();
    const auto interval = std::chrono::duration<double>(1.0 / load_.rate_fps);
    for (usize i = 0; i < n && !stopped(); ++i) {
      // Chunked sleep so a stop request interrupts even a slow arrival rate
      // within ~10 ms instead of waiting out the full inter-arrival gap.
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(interval) *
                   static_cast<long>(i);
      while (Clock::now() < due && !stopped()) {
        std::this_thread::sleep_until(
            std::min(due, Clock::now() + std::chrono::milliseconds(10)));
      }
      if (stopped()) break;
      {
        std::lock_guard<std::mutex> lock(sh.mu);
        ++sh.outstanding;
      }
      const SubmitStatus st = server->submit(make_frame(i));
      std::lock_guard<std::mutex> lock(sh.mu);
      ++sh.submitted;
      // kRejected, kClosed and kInvalid all refuse synchronously: no
      // completion will fire. (An invalid frame is also counted in
      // report.dispatch.rejected_invalid.)
      if (st != SubmitStatus::kAccepted) {
        ++sh.rejected;
        ++sh.terminal;
        if (sh.outstanding > 0) --sh.outstanding;
        if (sh.terminal == n) sh.all_done.notify_all();
      }
    }
  }

  {
    // Normal completion is notified; the stop path is polled, because the
    // flag flips from a signal handler that cannot touch the condvar.
    std::unique_lock<std::mutex> lock(sh.mu);
    const auto done = [&] {
      return sh.terminal == n || (stopped() && sh.outstanding == 0);
    };
    while (!done()) {
      sh.all_done.wait_for(lock, std::chrono::milliseconds(50), done);
    }
  }
  srv.drain();

  LoadReport report;
  report.submitted = sh.submitted;
  report.rejected_at_submit = sh.rejected;
  report.symbol_errors = sh.symbol_errors;
  report.symbols_checked = sh.symbols_checked;
  report.metrics = srv.metrics();
  report.backends = srv.dispatcher().backend_metrics();
  report.dispatch = srv.dispatcher().stats();
  report.cost_model_json = srv.dispatcher().cost_model().export_json();
  return report;
}

}  // namespace sd::serve
