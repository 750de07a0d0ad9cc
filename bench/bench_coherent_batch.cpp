// Coherence-block channel reuse: throughput of the serving runtime as the
// channel coherence block L and the lane batch size B grow.
//
// Under block fading a base station decodes many frames against one channel
// estimate. The runtime exploits that twice: the backend's ChannelPrepCache
// pays the QR factorization once per block instead of once per frame, and a
// lane that pops B consecutive frames sharing a channel decodes them as one
// run (decode_wide) — bit-identical per frame to the sequential path. This
// bench sweeps L x B on a single lane so the speedup is pure reuse + fusion,
// not parallelism.
//
//   SD_TRIALS=256 ./bench_coherent_batch [--m=10] [--mod=4qam] [--snr=14]
//
// The default operating point is high-SNR (14 dB): under block fading the
// interesting regime is where the tree search is cheap and preprocessing is
// a large share of per-frame cost — exactly where coherence reuse pays. At
// low SNR the BFS search dominates and the same machinery is measurable but
// small; pass --snr=8 to see that regime.
//
// The emitted BENCH_coherent_batch.json carries per-cell prep-cache and
// fused-run counters; at full trial counts the config flag gate_speedup
// turns on the validator's perf gate (fused L=64/B=8 vs L=1/B=1, each cell
// the best of three runs).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/spec_parse.hpp"
#include "dispatch/dispatcher.hpp"
#include "serve/load_generator.hpp"

int main(int argc, char** argv) {
  using namespace sd;
  using namespace sd::serve;
  const Cli cli(argc, argv);
  const auto m = static_cast<index_t>(cli.get_int_or("m", 10));
  const Modulation mod = parse_modulation(cli.get_or("mod", "4qam"));
  const double snr = cli.get_double_or("snr", 14.0);
  const usize frames = bench::trials_or(256);
  const SystemConfig sys{m, m, mod};

  bench::open_report("coherent_batch");
  bench::print_banner(
      "Coherence-block reuse: throughput vs coherence L x batch B",
      std::to_string(m) + "x" + std::to_string(m) + " MIMO, " +
          std::string(modulation_name(mod)) + " @ " + fmt(snr, 0) +
          " dB, 1 lane, BFS decoder",
      frames);

  const std::vector<usize> coherences = {1, 4, 16, 64};
  const std::vector<usize> batches = {1, 4, 8};
  // The perf gate only means something at real trial counts; a smoke run
  // (SD_TRIALS=1) measures nothing.
  const bool gate = frames >= 128;
  bench::report().config("gate_speedup", gate);
  const usize reps = gate ? 3 : 1;

  // With the gate on, every cell runs for at least kMinCellSeconds: at
  // 50-100k frames/s a cell of 1024 frames lasts 10-20 ms, too short for its
  // ratio to stand out from scheduler noise. A cell that finishes early is
  // rerun with its frame count scaled up from the measured duration.
  constexpr double kMinCellSeconds = 0.25;
  const auto run_cell = [&](const ServerOptions& so, LoadOptions lo) {
    lo.num_frames = frames;
    LoadReport rep =
        LoadGenerator(sys, parse_decoder_spec("bfs"), so, lo).run();
    const double wall = rep.metrics.wall_seconds;
    if (gate && wall > 0.0 && wall < kMinCellSeconds) {
      lo.num_frames = static_cast<usize>(
          std::ceil(1.2 * kMinCellSeconds / wall * static_cast<double>(frames)));
      rep = LoadGenerator(sys, parse_decoder_spec("bfs"), so, lo).run();
    }
    return rep;
  };

  Table t({"coherence L", "batch B", "frames/s", "speedup", "p99 (ms)",
           "prep hit", "fused runs", "fused frames"},
          {Align::kRight, Align::kRight, Align::kRight, Align::kRight,
           Align::kRight, Align::kRight, Align::kRight, Align::kRight});

  // Untimed warm-up at the baseline configuration: the first measured cell
  // is the denominator of every speedup, so it must not also pay the
  // cold-start cost (code paging, allocator growth, branch training).
  {
    ServerOptions so;
    so.num_workers = 1;
    so.batch_size = 1;
    so.queue_capacity = 64;
    LoadOptions lo;
    lo.mode = ArrivalMode::kClosedLoop;
    lo.num_frames = frames;
    lo.window = 4;
    lo.snr_db = snr;
    lo.seed = 7;
    LoadGenerator warm(sys, parse_decoder_spec("bfs"), so, lo);
    (void)warm.run();
  }

  double base_fps = 0.0;
  dispatch::DispatchStats last_stats;
  for (usize coherence : coherences) {
    for (usize batch : batches) {
      ServerOptions so;
      so.num_workers = 1;  // one lane: speedup is reuse + fusion, not cores
      so.batch_size = batch;
      so.queue_capacity = 64;
      LoadOptions lo;
      lo.mode = ArrivalMode::kClosedLoop;
      lo.window = std::min<usize>(std::max<usize>(2 * batch, 4), 32);
      lo.snr_db = snr;
      lo.seed = 7;
      lo.coherence = coherence;
      // The gated pair (the L=1/B=1 baseline and the L=64/B=8 cell) is
      // best-of-reps like the cross_lane table below: one closed-loop run
      // of either is scheduler-noisy, and the gate is their ratio.
      const bool gated_cell =
          (coherence == 1 && batch == 1) || (coherence == 64 && batch == 8);
      LoadReport rep = run_cell(so, lo);
      for (usize r = 1; gated_cell && r < reps; ++r) {
        LoadReport again = run_cell(so, lo);
        if (again.metrics.throughput_fps > rep.metrics.throughput_fps) {
          rep = std::move(again);
        }
      }
      const ServerMetrics& mx = rep.metrics;
      const dispatch::DispatchStats& ds = rep.dispatch;
      if (coherence == 1 && batch == 1) base_fps = mx.throughput_fps;
      const double hit_rate =
          ds.prep_hits + ds.prep_misses > 0
              ? static_cast<double>(ds.prep_hits) /
                    static_cast<double>(ds.prep_hits + ds.prep_misses)
              : 0.0;
      const double speedup =
          base_fps > 0.0 ? mx.throughput_fps / base_fps : 0.0;
      t.add_row({std::to_string(coherence), std::to_string(batch),
                 fmt(mx.throughput_fps, 0), fmt_factor(speedup),
                 fmt(mx.e2e.p99_s * 1e3, 3), fmt_pct(hit_rate),
                 std::to_string(ds.fused_runs),
                 std::to_string(ds.fused_frames)});
      bench::report().row("coherent_batch",
                          {{"coherence", coherence},
                           {"batch", batch},
                           {"frames", rep.submitted},
                           {"frames_per_s", mx.throughput_fps},
                           {"speedup", speedup},
                           {"e2e_p99_s", mx.e2e.p99_s},
                           {"prep_hits", ds.prep_hits},
                           {"prep_misses", ds.prep_misses},
                           {"prep_hit_rate", hit_rate},
                           {"fused_runs", ds.fused_runs},
                           {"fused_frames", ds.fused_frames}});
      last_stats = ds;
    }
    t.add_separator();
  }
  {
    obs::CounterRegistry reg;
    last_stats.export_counters(reg);
    bench::report().counters(reg);
  }
  bench::print_table(t, "coherent_batch");

  // Cross-lane former ablation: a multi-lane pool serving interleaved
  // multi-cell traffic (cells = lanes) at batch B = 1 — the adversarial
  // shape for per-lane batching, because each lane's own pop yields exactly
  // one frame. Former off, every decode run is width 1 no matter how deep
  // the backlog; former on, the popping lane gathers its siblings' queue
  // fronts into one wide run, so the fused width tracks the offered batch
  // and the BFS level GEMMs run at material width. Offered batch is the
  // per-lane share of the QUEUED half of the closed-loop window — by
  // Little's law roughly half the outstanding frames are in service at
  // saturation, so window = 2 * lanes * offered is what sustains pops of
  // `offered` width; window / lanes would only offer that width to a cold
  // backlog. Both sides are best-of-3: closed-loop e2e throughput is
  // scheduler-noisy, and the max is the least contended run of each.
  Table tl({"lanes", "former", "frames/s", "speedup", "width p50", "offered",
            "former runs", "gathered", "empty"},
           {Align::kRight, Align::kRight, Align::kRight, Align::kRight,
            Align::kRight, Align::kRight, Align::kRight, Align::kRight,
            Align::kRight});
  // Median width over ALL decode runs: the fused histogram (width >= 2)
  // plus the singleton runs it deliberately excludes, reconstructed as
  // completed - fused_frames. Counting singletons keeps the p50 honest —
  // a former that only occasionally forms wide runs cannot hide behind a
  // histogram of its successes.
  const auto width_p50 = [](const dispatch::DispatchStats& ds,
                            std::uint64_t completed) {
    std::vector<std::uint64_t> counts = ds.fused_width_counts;
    if (counts.size() < 2) counts.resize(2, 0);
    counts[1] += completed > ds.fused_frames ? completed - ds.fused_frames : 0;
    std::uint64_t runs = 0;
    for (const std::uint64_t c : counts) runs += c;
    if (runs == 0) return usize{0};
    std::uint64_t seen = 0;
    for (usize w = 0; w < counts.size(); ++w) {
      seen += counts[w];
      if (2 * seen >= runs) return w;
    }
    return counts.size() - 1;
  };
  const std::vector<usize> lane_counts = {2, 4, 8};
  for (const usize lanes : lane_counts) {
    const usize window = lanes * 16;
    const usize offered = window / (2 * lanes);
    double off_fps = 0.0;
    for (const bool former : {false, true}) {
      double best = 0.0;
      dispatch::DispatchStats ds;
      std::uint64_t completed = 0;
      for (usize r = 0; r < reps; ++r) {
        ServerOptions so;
        so.num_workers = static_cast<unsigned>(lanes);
        so.batch_size = 1;
        so.queue_capacity = std::max<usize>(window, 64);
        so.cross_lane_former = former;
        LoadOptions lo;
        lo.mode = ArrivalMode::kClosedLoop;
        lo.window = window;
        lo.snr_db = snr;
        lo.seed = 7;
        lo.coherence = 1;
        lo.cells = lanes;
        const LoadReport rep = run_cell(so, lo);
        if (rep.metrics.throughput_fps > best) {
          best = rep.metrics.throughput_fps;
          ds = rep.dispatch;
          completed = rep.metrics.completed;
        }
      }
      if (!former) off_fps = best;
      const double speedup = off_fps > 0.0 ? best / off_fps : 0.0;
      const usize p50 = width_p50(ds, completed);
      tl.add_row({std::to_string(lanes), former ? "on" : "off", fmt(best, 0),
                  fmt_factor(speedup, 2), std::to_string(p50),
                  std::to_string(offered), std::to_string(ds.former_runs),
                  std::to_string(ds.former_gathered),
                  std::to_string(ds.former_empty)});
      bench::report().row("cross_lane",
                          {{"lanes", lanes},
                           {"former", former},
                           {"frames_per_s", best},
                           {"speedup", speedup},
                           {"fused_width_p50", p50},
                           {"offered_batch", offered},
                           {"fused_runs", ds.fused_runs},
                           {"fused_frames", ds.fused_frames},
                           {"former_runs", ds.former_runs},
                           {"former_gathered", ds.former_gathered},
                           {"former_empty", ds.former_empty}});
    }
    tl.add_separator();
  }
  bench::print_table(tl, "cross_lane (cells = lanes, B = 1)");
  std::printf("\nclosed-loop, 1 lane, window = min(max(2B, 4), 32); the L=1 "
              "column is the i.i.d. baseline every other cell is measured "
              "against. Fused decodes are bit-identical to sequential ones "
              "(tests/test_coherent_batch.cpp pins this). The cross_lane "
              "table runs lanes workers over interleaved cells with window = "
              "16x lanes; 'offered' is the per-lane share of the queued half "
              "of the window, window / (2 * lanes) — about half the window "
              "is in service at saturation — which is the width the former "
              "can hope to fuse.\n");
  return 0;
}
