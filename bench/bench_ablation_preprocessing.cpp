// Ablation: detection preprocessing. The paper detects in natural antenna
// order; this bench quantifies what channel-aware preprocessing adds on
// top of (or instead of) the exact search: SQRD layer ordering for the SD,
// and LLL lattice reduction for the polynomial-time SIC alternative —
// on both i.i.d. and spatially correlated channels.
#include <cstdio>
#include <utility>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "decode/linear.hpp"
#include "decode/lr_sic.hpp"
#include "decode/sd_gemm.hpp"
#include "decode/sd_gemm_bfs.hpp"
#include "mimo/metrics.hpp"
#include "mimo/scenario.hpp"

int main() {
  using namespace sd;
  const usize trials = bench::trials_or(150);
  bench::open_report("ablation_preprocessing");
  bench::print_banner("Ablation: preprocessing (SQRD ordering, LLL reduction)",
                      "8x8 MIMO 4-QAM, iid vs correlated (rho=0.9)", trials);
  const Constellation& c = Constellation::get(Modulation::kQam4);

  for (const auto& [rho, snr] : {std::pair{0.0, 12.0}, std::pair{0.0, 20.0},
                                std::pair{0.9, 12.0}, std::pair{0.9, 20.0}}) {
    std::printf("--- rho = %.1f, SNR = %.0f dB ---\n", rho, snr);
    ScenarioConfig sc;
    sc.num_tx = 8;
    sc.num_rx = 8;
    sc.modulation = Modulation::kQam4;
    sc.snr_db = snr;
    sc.seed = 61;
    sc.correlation.tx_rho = rho;

    SdGemmDetector sd_plain(c);
    SdOptions sorted_opts;
    sorted_opts.sorted_qr = true;
    SdGemmDetector sd_sorted(c, sorted_opts);
    LinearDetector zf(LinearKind::kZf, c);
    SdGemmBfsDetector sic(c, kbest_options(1));
    LrSicDetector lr_sic(c);

    struct Row {
      Detector* det;
      ErrorCounter errors;
      double nodes = 0;
      Row(Detector* d, const Constellation& cc) : det(d), errors(cc) {}
    };
    std::vector<Row> rows;
    rows.emplace_back(&sd_plain, c);
    rows.emplace_back(&sd_sorted, c);
    rows.emplace_back(&zf, c);
    rows.emplace_back(&sic, c);
    rows.emplace_back(&lr_sic, c);

    Scenario scenario(sc);
    for (usize t = 0; t < trials; ++t) {
      const Trial trial = scenario.next();
      for (Row& row : rows) {
        const DecodeResult r =
            row.det->decode(trial.h, trial.y, trial.sigma2);
        row.errors.record(trial.tx.indices, r.indices);
        row.nodes += static_cast<double>(r.stats.nodes_generated);
      }
    }

    Table table({"Detector", "BER", "mean nodes generated"});
    const char* names[] = {"SD (natural order)", "SD + SQRD", "ZF",
                           "SIC (sorted)", "LR-SIC (LLL)"};
    for (usize i = 0; i < rows.size(); ++i) {
      table.add_row({names[i], fmt_sci(rows[i].errors.ber()),
                     fmt(rows[i].nodes / static_cast<double>(trials), 0)});
    }
    bench::print_table(table, "rho_" + fmt(rho, 1) + "_snr_" + fmt(snr, 0));
  }
  std::printf("SQRD does not change the (exact) SD's BER but shrinks its "
              "tree. LR-SIC has the steeper (full-diversity) slope: it "
              "trails ordered SIC at 12 dB but overtakes every linear/SIC "
              "scheme by 20 dB — most visibly on the correlated channel "
              "where ZF collapses.\n");
  return 0;
}
