// Serving soak: throughput and tail latency of the detection runtime as the
// worker pool grows, per backend. This is the deployment view of the paper's
// per-frame numbers — a base station serves a stream, so what matters is
// frames/s at the pool level and the p99 a subscriber actually experiences.
//
// Closed-loop load (window = 2x workers) with seeded frames, so every cell
// decodes the same trial stream and runs are reproducible. Scale the frame
// count with SD_TRIALS.
//
//   SD_TRIALS=500 ./bench_serve_soak [--m=10] [--mod=4qam] [--snr=8]
//                                    [--coherence=1] [--precision=int16]
//
// With --backends=cpu:2,fpga:2 the sweep runs over a heterogeneous pool
// instead: one row per placement policy at the pool's fixed lane count.
// --coherence=L holds each channel realization for L consecutive frames
// (block fading), exercising the prep cache and fused decode paths.
// --precision=int16 soaks the fixed-point BFS datapath (DESIGN.md §15): the
// worker sweep compares "bfs (fp32)" against "bfs (int16)" lanes, and the
// pool mode maps its primary lanes onto bfs:precision=int16.
#include <cstdio>
#include <string>
#include <thread>
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
  const double snr = cli.get_double_or("snr", 8.0);
  const usize frames = bench::trials_or(200);
  const auto coherence = static_cast<usize>(cli.get_int_or("coherence", 1));
  // --cells=C interleaves C independent cells round-robin (different
  // channels on consecutive arrivals), feeding the cross-lane former.
  const auto cells = static_cast<usize>(cli.get_int_or("cells", 1));
  const SystemConfig sys{m, m, mod};

  bench::open_report("serve_soak");
  bench::print_banner(
      "Serving soak: throughput scaling vs workers x backend",
      std::to_string(m) + "x" + std::to_string(m) + " MIMO, " +
          std::string(modulation_name(mod)) + " @ " + fmt(snr, 0) + " dB",
      frames);

  // CPU-bound backends scale with physical cores; the emulated-offload
  // series (workers blocked on the FPGA cycle model's device time plus a
  // 1 ms host<->device round trip, like a host thread waiting on the
  // accelerator) scales with workers on any host because the waits
  // overlap — the paper's multi-pipeline argument.
  struct Backend {
    std::string label;
    std::string spec;
    std::string rtt_ms;  ///< non-empty: paced `cpu:<workers>:rtt-ms=` lanes
  };
  const std::string precision = cli.get_or("precision", "");
  std::vector<Backend> backends;
  if (precision == "int16") {
    // Fixed-point soak: same traversal on the float and the quantized
    // datapaths, so any throughput/latency delta is the datapath's.
    backends = {
        {"bfs (fp32)", "bfs", ""},
        {"bfs (int16)", "bfs:precision=int16", ""},
    };
  } else {
    backends = {
        {"sphere (cpu)", "sphere", ""},
        {"multipe:threads=2", "multipe:threads=2", ""},
        {"kbest:k=16", "kbest:k=16", ""},
        {"sphere@fpga (model)", "sphere@fpga", ""},
        {"sphere@fpga (offload, 1ms rtt)", "sphere@fpga", "1"},
    };
  }
  const std::string pool = cli.get_or("backends", "");

  if (!pool.empty()) {
    // Heterogeneous-pool mode: the lane count is fixed by the pool spec, so
    // the sweep axis becomes the placement policy.
    // --precision=int16 moves the pool's primary lanes onto the quantized
    // BFS detector; the sweep shape is otherwise unchanged.
    const DecoderSpec primary = parse_decoder_spec(
        precision == "int16" ? "bfs:precision=int16" : "sphere");
    unsigned lanes = 0;
    {
      dispatch::PoolDefaults defaults;
      defaults.primary = primary;
      for (const dispatch::BackendConfig& cfg :
           dispatch::parse_backend_pool(pool, defaults))
        lanes += cfg.lanes;
    }
    Table pt({"pool / policy", "lanes", "frames/s", "p50 (ms)", "p95 (ms)",
              "p99 (ms)", "max (ms)", "steals"},
             {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
              Align::kRight, Align::kRight, Align::kRight, Align::kRight});
    ServerMetrics last_metrics;
    for (dispatch::PlacementPolicy policy :
         {dispatch::PlacementPolicy::kRoundRobin,
          dispatch::PlacementPolicy::kLeastLoaded,
          dispatch::PlacementPolicy::kCostAware}) {
      ServerOptions so;
      so.backends = pool;
      so.placement = policy;
      so.batch_size = 1;
      so.queue_capacity = 64;
      LoadOptions lo;
      lo.mode = ArrivalMode::kClosedLoop;
      lo.num_frames = frames;
      lo.window = 2 * lanes;
      lo.snr_db = snr;
      lo.seed = 7;
      lo.coherence = coherence;
      lo.cells = cells;
      LoadGenerator gen(sys, primary, so, lo);
      const LoadReport rep = gen.run();
      const ServerMetrics& mx = rep.metrics;
      const std::string label(dispatch::placement_policy_name(policy));
      pt.add_row({label, std::to_string(lanes), fmt(mx.throughput_fps, 0),
                  fmt(mx.e2e.p50_s * 1e3, 3), fmt(mx.e2e.p95_s * 1e3, 3),
                  fmt(mx.e2e.p99_s * 1e3, 3), fmt(mx.e2e.max_s * 1e3, 3),
                  std::to_string(rep.dispatch.steals)});
      bench::report().row("soak",
                          {{"backend", "pool:" + pool},
                           {"policy", label},
                           {"workers", lanes},
                           {"frames_per_s", mx.throughput_fps},
                           {"e2e_p50_s", mx.e2e.p50_s},
                           {"e2e_p95_s", mx.e2e.p95_s},
                           {"e2e_p99_s", mx.e2e.p99_s},
                           {"e2e_max_s", mx.e2e.max_s},
                           {"steals", rep.dispatch.steals}});
      last_metrics = mx;
    }
    obs::CounterRegistry reg;
    last_metrics.export_counters(reg);
    bench::report().counters(reg);
    bench::print_table(pt, "soak");
    std::printf("\npool %s, closed-loop, window = 2x lanes, batch = 1; "
                "latencies are end-to-end.\n", pool.c_str());
    return 0;
  }
  const std::vector<unsigned> worker_counts = {1, 2, 4};
  std::printf("host concurrency: %u cores — CPU-backend scaling is bounded "
              "by cores; the offload series overlaps device waits.\n\n",
              std::thread::hardware_concurrency());

  Table t({"backend", "workers", "frames/s", "speedup", "p50 (ms)", "p95 (ms)",
           "p99 (ms)", "max (ms)", "util"},
          {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
           Align::kRight, Align::kRight, Align::kRight, Align::kRight,
           Align::kRight});

  ServerMetrics last_metrics;
  for (const Backend& backend : backends) {
    const DecoderSpec spec = parse_decoder_spec(backend.spec);
    double base_fps = 0.0;
    for (unsigned workers : worker_counts) {
      ServerOptions so;
      so.num_workers = workers;
      so.batch_size = 4;
      so.queue_capacity = 64;
      if (!backend.rtt_ms.empty()) {
        so.backends = "cpu:" + std::to_string(workers) + ":rtt-ms=";
        so.backends += backend.rtt_ms;
      }
      LoadOptions lo;
      lo.mode = ArrivalMode::kClosedLoop;
      lo.num_frames = frames;
      lo.window = 2 * workers;
      lo.snr_db = snr;
      lo.seed = 7;
      lo.coherence = coherence;
      lo.cells = cells;
      LoadGenerator gen(sys, spec, so, lo);
      const LoadReport rep = gen.run();
      const ServerMetrics& mx = rep.metrics;
      if (workers == worker_counts.front()) base_fps = mx.throughput_fps;
      double util = 0.0;
      for (const WorkerStats& w : mx.workers) util += w.utilization;
      util /= static_cast<double>(mx.workers.size());
      t.add_row({backend.label, std::to_string(workers), fmt(mx.throughput_fps, 0),
                 fmt_factor(base_fps > 0 ? mx.throughput_fps / base_fps : 0.0),
                 fmt(mx.e2e.p50_s * 1e3, 3), fmt(mx.e2e.p95_s * 1e3, 3),
                 fmt(mx.e2e.p99_s * 1e3, 3), fmt(mx.e2e.max_s * 1e3, 3),
                 fmt_pct(util)});
      bench::report().row(
          "soak",
          {{"backend", backend.label},
           {"workers", workers},
           {"frames_per_s", mx.throughput_fps},
           {"speedup", base_fps > 0 ? mx.throughput_fps / base_fps : 0.0},
           {"e2e_p50_s", mx.e2e.p50_s},
           {"e2e_p95_s", mx.e2e.p95_s},
           {"e2e_p99_s", mx.e2e.p99_s},
           {"e2e_max_s", mx.e2e.max_s},
           {"utilization", util}});
      last_metrics = mx;
    }
    t.add_separator();
  }
  {
    // Counter snapshot of the last cell, through the unified registry path.
    obs::CounterRegistry reg;
    last_metrics.export_counters(reg);
    bench::report().counters(reg);
  }
  bench::print_table(t, "soak");
  std::printf("\nclosed-loop, window = 2x workers, batch = 4; latencies are "
              "end-to-end (queue wait + decode).\n");
  return 0;
}
