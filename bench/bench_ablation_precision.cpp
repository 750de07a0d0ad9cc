// Ablation (paper §V future work): reduced-precision datapaths. The paper
// proposes FP16/mixed precision as an extension to cut resources and
// latency; this bench measures the BER impact of (a) an fp16 GEMM/NORM
// datapath in the simulated pipeline plus the resource savings the model
// predicts, and (b) the real int16 fixed-point BFS datapath (DESIGN.md §15)
// against its float twin over the Fig. 7 SNR axis — the series
// validate_bench_json.py gates on the quantized BER staying within 0.2 dB
// of float.
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "core/spec_parse.hpp"
#include "fpga/resources.hpp"

int main() {
  using namespace sd;
  const usize trials = bench::trials_or(200);
  const SystemConfig sys{10, 10, Modulation::kQam4};
  bench::open_report("ablation_precision");
  bench::print_banner("Ablation: FP16 vs FP32 datapath (paper SV future work)",
                      "10x10 MIMO, 4-QAM, simulated U280", trials);

  ExperimentRunner runner(sys, trials, 44);
  DecoderSpec fp32_spec;
  fp32_spec.device = TargetDevice::kFpgaOptimized;
  auto fp32 = make_detector(sys, fp32_spec);
  DecoderSpec fp16_spec = fp32_spec;
  fp16_spec.fpga_precision = Precision::kFp16;
  auto fp16 = make_detector(sys, fp16_spec);

  Table t({"SNR (dB)", "BER fp32", "BER fp16", "nodes fp32", "nodes fp16",
           "fp16 time (ms)"});
  for (double snr : {4.0, 8.0, 12.0, 16.0}) {
    const SweepPoint p32 = runner.run_point(*fp32, snr);
    const SweepPoint p16 = runner.run_point(*fp16, snr);
    t.add_row({fmt(snr, 0), fmt_sci(p32.ber), fmt_sci(p16.ber),
               fmt(p32.mean_nodes_expanded, 0), fmt(p16.mean_nodes_expanded, 0),
               fmt(p16.mean_seconds * 1e3, 3)});
  }
  bench::print_table(t, "ber");

  FpgaConfig cfg32 = FpgaConfig::optimized_design(10, 10, Modulation::kQam4);
  FpgaConfig cfg16 = cfg32;
  cfg16.precision = Precision::kFp16;
  const auto r32 = estimate_resources(cfg32);
  const auto r16 = estimate_resources(cfg16);
  Table rt({"resource", "fp32", "fp16", "saving"});
  rt.add_row({"DSPs", fmt(r32.dsps, 0), fmt(r16.dsps, 0),
              fmt_pct(1.0 - r16.dsps / r32.dsps)});
  rt.add_row({"BRAMs", fmt(r32.bram18, 0), fmt(r16.bram18, 0),
              fmt_pct(1.0 - r16.bram18 / r32.bram18)});
  rt.add_row({"URAMs", fmt(r32.urams, 0), fmt(r16.urams, 0),
              fmt_pct(1.0 - r16.urams / r32.urams)});
  bench::print_table(rt, "resources");
  std::printf("fp16 rounding perturbs partial distances; near-tied leaf "
              "candidates can flip, so BER may degrade slightly at low SNR "
              "while resources drop ~50%% in the DSP/memory classes.\n");

  // ---- int16 fixed-point BFS datapath vs float (DESIGN.md §15) ------------
  // Paired trials (same seed => byte-identical channels/noise per SNR), so
  // the BER delta is exactly the quantization effect. The CI gate reads the
  // "int16_ber" series and checks the quantized BER against the float curve
  // shifted by 0.2 dB; with few trials the binomial noise swamps that bound,
  // so the gate only binds when the run used >= 100 trials per point.
  bench::report().config("gate_ber", trials >= 100);
  const index_t m = sys.num_tx;
  const auto bits_per_sym = static_cast<usize>(std::lround(
      std::log2(static_cast<double>(Constellation::get(sys.modulation)
                                        .order()))));
  ExperimentRunner qrunner(sys, trials, 7);
  // The paper's BFS settings: plain QR, noise-scaled radius.
  auto bfs32 = make_detector(sys, parse_decoder_spec("bfs:sorted=0,alpha=2"));
  auto bfs16 = make_detector(
      sys, parse_decoder_spec("bfs:sorted=0,alpha=2,precision=int16"));
  Table qt({"SNR (dB)", "BER fp32", "BER int16", "SER int16", "bits"});
  for (double snr : {4.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0}) {
    const SweepPoint q32 = qrunner.run_point(*bfs32, snr);
    const SweepPoint q16 = qrunner.run_point(*bfs16, snr);
    const std::uint64_t bits =
        static_cast<std::uint64_t>(trials) * static_cast<std::uint64_t>(m) *
        bits_per_sym;
    qt.add_row({fmt(snr, 0), fmt_sci(q32.ber), fmt_sci(q16.ber),
                fmt_sci(q16.ser), std::to_string(bits)});
    bench::report().row("int16_ber", {{"snr_db", snr},
                                      {"ber_fp32", q32.ber},
                                      {"ber_int16", q16.ber},
                                      {"ser", q16.ser},
                                      {"bits", bits}});
  }
  bench::print_table(qt, "int16_ber");
  std::printf("int16 rows run the fixed-point BFS datapath end-to-end "
              "(quantized level GEMMs, integer PD comparisons); fp32 rows "
              "are the same traversal on floats over identical trials.\n");
  return 0;
}
