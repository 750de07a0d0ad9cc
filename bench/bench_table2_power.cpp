// Table II: power and energy, CPU vs FPGA, for {10,15,20}x{..} 4-QAM plus
// 10x10 16-QAM. Decode times come from real decodes at 4 dB (the operating
// point whose CPU times match Table II's Exec row in the paper); power from
// the calibrated platform models. The paper's headline is a 38.1x geo-mean
// energy reduction.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "fpga/power.hpp"
#include "platform/cpu_model.hpp"

namespace {

struct Config {
  sd::index_t m;
  sd::Modulation mod;
};

}  // namespace

int main() {
  using namespace sd;
  const usize trials = bench::trials_or(6);
  bench::open_report("table2_power");
  bench::print_banner("Table II: power profile for CPU and FPGA",
                      "operating point SNR 4 dB", trials);

  const std::vector<Config> configs{{10, Modulation::kQam4},
                                    {15, Modulation::kQam4},
                                    {20, Modulation::kQam4},
                                    {10, Modulation::kQam16}};
  const double snr = 4.0;

  Table t({"", "10x10 4-QAM", "15x15 4-QAM", "20x20 4-QAM", "10x10 16-QAM"});
  std::vector<std::string> cpu_power_row{"Power CPU (W)"},
      fpga_power_row{"Power FPGA (W)"}, cpu_exec_row{"Exec CPU (ms)"},
      fpga_exec_row{"Exec FPGA (ms)"}, cpu_energy_row{"Energy CPU (J)"},
      fpga_energy_row{"Energy FPGA (J)"}, reduction_row{"Energy reduction"};
  std::vector<double> reductions;

  for (const Config& cfg : configs) {
    const SystemConfig sys{cfg.m, cfg.m, cfg.mod};
    ExperimentRunner runner(sys, trials, 22);

    DecoderSpec cpu_spec;
    cpu_spec.sd.max_nodes = 1'000'000;
    DecoderSpec fpga_spec = cpu_spec;
    // The energy ratio is the paper's: its CPU decoder multiplies the whole
    // trailing k x k block of R per expansion, not just the row 0 the PD
    // reads (the default decoder's shape; see the figure benches' CPU row-0
    // column).
    cpu_spec.sd.level_gemm = LevelGemm::kFull;
    auto cpu = make_detector(sys, cpu_spec);
    fpga_spec.device = TargetDevice::kFpgaOptimized;
    auto fpga = make_detector(sys, fpga_spec);

    const SweepPoint p_cpu = runner.run_point(*cpu, snr);
    const SweepPoint p_fpga = runner.run_point(*fpga, snr);

    const double p_c = cpu_power_watts(cfg.m, cfg.mod);
    const double p_f =
        fpga_power_watts(FpgaConfig::optimized_design(cfg.m, cfg.m, cfg.mod));
    const double e_c = p_c * p_cpu.mean_seconds;
    const double e_f = p_f * p_fpga.mean_seconds;
    reductions.push_back(e_c / e_f);

    cpu_power_row.push_back(fmt(p_c, 0));
    fpga_power_row.push_back(fmt(p_f, 1));
    cpu_exec_row.push_back(fmt(p_cpu.mean_seconds * 1e3, 2));
    fpga_exec_row.push_back(fmt(p_fpga.mean_seconds * 1e3, 2));
    cpu_energy_row.push_back(fmt_sci(e_c, 2));
    fpga_energy_row.push_back(fmt_sci(e_f, 2));
    reduction_row.push_back(fmt_factor(e_c / e_f));
  }

  t.add_row(cpu_power_row);
  t.add_row(fpga_power_row);
  t.add_separator();
  t.add_row(cpu_exec_row);
  t.add_row(fpga_exec_row);
  t.add_separator();
  t.add_row(cpu_energy_row);
  t.add_row(fpga_energy_row);
  t.add_row(reduction_row);
  bench::print_table(t, "power");

  std::printf("geo-mean energy reduction: %s (paper: 38.1x; paper per-config "
              "reductions 35.8x / 36.8x / 38.4x / 41.8x)\n",
              fmt_factor(geomean(reductions)).c_str());
  std::printf("CPU exec is measured single-core wall-clock here vs the "
              "paper's 64-core MKL box, so absolute times and the absolute "
              "reduction differ; the FPGA-power advantage and the >10x "
              "energy gap are the reproduced shape.\n");
  return 0;
}
