// Cycle-approximate simulation of the paper's dataflow pipeline (Fig. 4):
//
//   HBM -> [Pre-Fetch] -> [Branch] -> [GEMM engine] -> [NORM] -> [Sort/Prune]
//                     (tree state in BRAM, node records in the URAM MST)
//
// The pipeline runs the CPU's Best-FS loop itself (best_fs_search in
// decode/best_fs.hpp): the paper is "careful to mimic the execution profile
// and operational sequence of the CPU execution", so the model observes that
// search and charges each hardware unit between its steps rather than
// re-implementing it. It charges the Meta State Table's record writes but
// stores no nodes: the search's LIFO open list already holds them. The fp32
// and int16 designs take the CPU's row-0 products; the fp16 design forms row
// 0 through the half-precision MAC chain of SystolicGemmEngine::run. The
// simulated decode latency is total_cycles / clock + the one-time PCIe
// staging cost the paper measures at under 3% of execution.
#pragma once

#include <cstdint>
#include <vector>

#include "decode/decode_scratch.hpp"
#include "decode/detector.hpp"
#include "decode/sphere_common.hpp"
#include "fpga/hw_config.hpp"
#include "fpga/memory_bank.hpp"
#include "fpga/prefetch.hpp"
#include "fpga/sort_unit.hpp"
#include "fpga/systolic_gemm.hpp"

namespace sd {

/// Per-unit cycle accounting for one decode.
struct CycleBreakdown {
  std::uint64_t branch = 0;
  std::uint64_t prefetch_exposed = 0;  ///< staging cycles NOT hidden by compute
  std::uint64_t gemm = 0;
  std::uint64_t norm = 0;
  std::uint64_t sort = 0;
  std::uint64_t mst = 0;
  std::uint64_t radius = 0;

  [[nodiscard]] std::uint64_t total() const noexcept {
    return branch + prefetch_exposed + gemm + norm + sort + mst + radius;
  }

  /// Pours the per-unit cycle ledger into the unified counter registry
  /// (src/obs) under "<prefix>.<unit>" names, e.g. "fpga.cycles.gemm".
  void export_counters(obs::CounterRegistry& registry,
                       std::string_view prefix = "fpga.cycles") const;
};

/// Everything the benches need from one simulated decode.
struct FpgaRunReport {
  DecodeResult result;          ///< decisions + algorithmic stats
  CycleBreakdown cycles;
  double transfer_seconds = 0;  ///< PCIe staging (one-time per decode)
  double compute_seconds = 0;   ///< cycles / clock
  double total_seconds = 0;
  usize mst_peak_nodes = 0;     ///< most children pushed at one depth in
                                ///< one attempt: the high-water mark of one
                                ///< MST partition, which frees nothing
                                ///< within an attempt
  bool mst_overflow = false;    ///< design capacity would have been exceeded
  std::uint64_t hbm_bytes = 0;
  std::uint64_t uram_bytes_written = 0;

  /// Exports the cycle ledger, timing split, and memory/MST gauges under
  /// "<prefix>.*" plus the embedded DecodeStats under "<prefix>.decode.*".
  void export_counters(obs::CounterRegistry& registry,
                       std::string_view prefix = "fpga") const;
};

class FpgaPipeline {
 public:
  explicit FpgaPipeline(const FpgaConfig& config);

  [[nodiscard]] const FpgaConfig& config() const noexcept { return cfg_; }

  /// Runs one decode on a preprocessed triangular system. `search_opts`
  /// controls radius policy / node budget exactly as for the CPU decoders;
  /// the level product is always the design's own.
  [[nodiscard]] FpgaRunReport run(const Preprocessed& pre,
                                  const Constellation& constellation,
                                  double sigma2,
                                  const SdOptions& search_opts = {});

  /// The same decode into `report`, with the search state in `scratch`:
  /// once both are warm at a problem shape, a call allocates nothing.
  void run_into(const Preprocessed& pre, const Constellation& constellation,
                double sigma2, const SdOptions& search_opts,
                DecodeScratch& scratch, FpgaRunReport& report);

 private:
  struct Observer;  // charges the units between the search's steps

  FpgaConfig cfg_;
  SystolicGemmEngine gemm_engine_;
  MemoryBank hbm_;
  MemoryBank uram_;
  PrefetchUnit prefetch_;
  SortUnit sorter_;
  std::vector<usize> level_pushes_;  ///< children pushed per depth, this attempt
  CVec half_row_;                    ///< the fp16 design's row 0
};

}  // namespace sd
