// Ablation (paper §II-B / §IV-F): search-strategy comparison. The paper
// claims Best-FS (sorted children + LIFO) prunes the search space to <1% of
// the nodes the BFS strategy explores, at identical (exact) BER. This bench
// quantifies nodes and BER for every strategy in the repository.
#include <cstdio>

#include "bench_common.hpp"
#include "common/table.hpp"

int main() {
  using namespace sd;
  const usize trials = bench::trials_or(10);
  const SystemConfig sys{10, 10, Modulation::kQam4};
  bench::open_report("ablation_strategies");
  bench::print_banner("Ablation: tree-search strategies",
                      "10x10 MIMO, 4-QAM", trials);

  struct Entry {
    std::string name;
    DecoderSpec spec;
  };
  std::vector<Entry> entries;
  entries.push_back({"Best-FS + GEMM (paper)", DecoderSpec{}});
  {
    DecoderSpec s;
    s.strategy = Strategy::kBestFsScalar;
    entries.push_back({"Best-FS scalar (ablation)", s});
  }
  {
    DecoderSpec s;
    s.strategy = Strategy::kDfs;
    entries.push_back({"SE-DFS (Geosphere traversal)", s});
  }
  {
    DecoderSpec s;
    s.strategy = Strategy::kGemmBfs;
    s.bfs.max_frontier = 1u << 16;
    entries.push_back({"BFS + GEMM ([1])", s});
  }
  {
    DecoderSpec s;
    s.strategy = Strategy::kBestFsGemm;
    s.sd.sorted_qr = true;
    entries.push_back({"Best-FS + SQRD ordering", s});
  }
  {
    DecoderSpec s;
    s.strategy = Strategy::kKBest;
    s.bfs.max_frontier = 16;
    entries.push_back({"K-Best (K=16)", s});
  }
  {
    DecoderSpec s;
    s.strategy = Strategy::kFsd;
    s.fsd.full_levels = 1;
    entries.push_back({"FSD (1 full level)", s});
  }

  for (double snr : {4.0, 8.0, 16.0}) {
    std::printf("--- SNR %.0f dB ---\n", snr);
    ExperimentRunner runner(sys, trials, 33);
    Table t({"Strategy", "nodes generated", "vs Best-FS", "GEMM calls",
             "BER", "CPU ms"});
    double best_fs_nodes = 0;
    for (usize i = 0; i < entries.size(); ++i) {
      auto det = make_detector(sys, entries[i].spec);
      const SweepPoint p = runner.run_point(*det, snr);
      if (i == 0) best_fs_nodes = p.mean_nodes_generated;
      t.add_row({entries[i].name, fmt(p.mean_nodes_generated, 0),
                 fmt_factor(p.mean_nodes_generated / best_fs_nodes, 2),
                 fmt(p.mean_gemm_calls, 0), fmt_sci(p.ber),
                 fmt(p.mean_seconds * 1e3, 3)});
    }
    bench::print_table(
        t, "snr_" + std::to_string(static_cast<int>(snr)));
  }
  std::printf("Best-FS, scalar Best-FS and SE-DFS visit identical trees (the "
              "evaluation style differs); BFS explodes at low SNR; K-Best and "
              "FSD have flat complexity but lose exactness.\n");
  return 0;
}
