#include "fpga/pipeline.hpp"

#include <algorithm>
#include <string>

#include "decode/best_fs.hpp"
#include "fpga/half.hpp"
#include "linalg/gemm.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace sd {

void CycleBreakdown::export_counters(obs::CounterRegistry& registry,
                                     std::string_view prefix) const {
  const std::string p = prefix.empty() ? "" : std::string(prefix) + ".";
  registry.set(p + "branch", branch);
  registry.set(p + "prefetch_exposed", prefetch_exposed);
  registry.set(p + "gemm", gemm);
  registry.set(p + "norm", norm);
  registry.set(p + "sort", sort);
  registry.set(p + "mst", mst);
  registry.set(p + "radius", radius);
  registry.set(p + "total", total());
}

void FpgaRunReport::export_counters(obs::CounterRegistry& registry,
                                    std::string_view prefix) const {
  const std::string p = prefix.empty() ? "" : std::string(prefix) + ".";
  cycles.export_counters(registry, p + "cycles");
  result.stats.export_counters(registry, p + "decode");
  registry.set(p + "transfer_seconds", transfer_seconds);
  registry.set(p + "compute_seconds", compute_seconds);
  registry.set(p + "total_seconds", total_seconds);
  registry.set(p + "mst_peak_nodes", static_cast<std::uint64_t>(mst_peak_nodes));
  registry.set(p + "mst_overflow", std::uint64_t{mst_overflow ? 1u : 0u});
  registry.set(p + "hbm_bytes", hbm_bytes);
  registry.set(p + "uram_bytes_written", uram_bytes_written);
}

FpgaPipeline::FpgaPipeline(const FpgaConfig& config)
    : cfg_(config),
      gemm_engine_(config.mesh_rows, config.mesh_cols,
                   config.gemm_fill_latency, config.precision, config.mac_ii),
      hbm_("HBM", static_cast<usize>(U280Totals::kHbmBytes),
           config.hbm_latency, config.hbm_words_per_cycle),
      uram_("URAM", static_cast<usize>(U280Totals::kUram) * 288 * 1024 / 8,
            config.bram_latency, 1),
      prefetch_(config.optimized),
      sorter_(config.sort_stage_latency) {}

// Charges the pipeline's units between the steps of the Best-FS loop.
struct FpgaPipeline::Observer : BestFsObserver {
  FpgaPipeline& pipe;
  const Preprocessed& pre;
  const Constellation& c;
  CycleBreakdown& cyc;
  usize mst_peak = 0;
  // Compute cycles of the previous expansion, available for the prefetch of
  // the next one to hide behind (ping-pong buffering).
  std::uint64_t prev_compute_cycles = 0;

  Observer(FpgaPipeline& pipeline, const Preprocessed& system,
           const Constellation& constellation, CycleBreakdown& cycles)
      : pipe(pipeline), pre(system), c(constellation), cyc(cycles) {}

  void attempt() {
    prev_compute_cycles = 0;
    std::fill(pipe.level_pushes_.begin(), pipe.level_pushes_.end(), usize{0});
  }

  void expand(index_t depth) {
    const FpgaConfig& cfg = pipe.cfg_;
    const index_t k = depth + 1;
    const auto p = static_cast<std::uint64_t>(c.order());

    // --- Phase 1: branching. P children at II = branch_ii after setup.
    const std::uint64_t branch_cycles =
        static_cast<std::uint64_t>(cfg.branch_setup) +
        p * static_cast<std::uint64_t>(cfg.branch_ii);
    {
      SD_TRACE_SPAN("fpga.branch");
      cyc.branch += branch_cycles;
    }

    // --- Pre-fetch: R row block + the parent's tree-state block. In the
    // optimized design this hides behind the previous expansion's compute.
    const usize fetch_bytes =
        sizeof(cplx) *
        (static_cast<usize>(cfg.optimized ? k * k : k) +  // R block / row
         static_cast<usize>(k) * static_cast<usize>(p) +  // tree-state matrix
         1);                                              // ybar element
    {
      SD_TRACE_SPAN("fpga.prefetch");
      cyc.prefetch_exposed +=
          pipe.prefetch_.stage(pipe.hbm_, fetch_bytes, prev_compute_cycles);
    }

    // --- Phase 2: evaluation. The optimized design streams the full
    // (k x k) x (k x P) tree-state block product through the systolic
    // engine (the paper's GEMM refactoring); the baseline design is a
    // direct port of the scalar algorithm and evaluates only the new row
    // on its MAC chain. The charge depends on the shapes alone.
    std::uint64_t gemm_cycles = 0;
    {
      SD_TRACE_SPAN("fpga.gemm");
      gemm_cycles = pipe.gemm_engine_.cycles_for(cfg.optimized ? k : 1,
                                                 c.order(), k);
      cyc.gemm += gemm_cycles;
    }

    // --- NORM: |ybar_a - z_c|^2 accumulate across the P lanes at the unit's
    // initiation interval (1 in the optimized design, stalled in the port).
    const std::uint64_t norm_cycles =
        static_cast<std::uint64_t>(cfg.norm_latency) +
        p * static_cast<std::uint64_t>(cfg.branch_ii);
    {
      SD_TRACE_SPAN("fpga.norm");
      cyc.norm += norm_cycles;
    }

    // --- Phase 3: prune + sort (bitonic network over the whole sibling
    // batch, whatever survives the radius test).
    std::uint64_t sort_cycles = 0;
    {
      SD_TRACE_SPAN("fpga.sort");
      sort_cycles = pipe.sorter_.sort(static_cast<usize>(p));
      cyc.sort += sort_cycles;
    }

    // The ping-pong prefetch of the *next* expansion overlaps this entire
    // expansion's compute (branch through sort).
    prev_compute_cycles = branch_cycles + gemm_cycles + norm_cycles +
                          sort_cycles;
  }

  // The fp16 datapath rounds its operands to half precision at the BRAM
  // boundary and every MAC: row 0 of SystolicGemmEngine::run in that mode.
  // The fp32 and int16 designs take the search's own row 0, bit-identical
  // to the fp32 engine's (int16 differs in its cycle model only).
  const cplx* row0(index_t depth, std::span<const std::uint8_t> path) {
    if (pipe.cfg_.precision != Precision::kFp16) return nullptr;
    const index_t a = pre.r.rows() - 1 - depth;
    CVec& z = pipe.half_row_;
    for (index_t col = 0; col < c.order(); ++col) {
      cplx acc = half_cmadd(cplx{0, 0}, round_to_half(pre.r(a, a)),
                            round_to_half(c.point(col)));
      for (index_t t = 1; t <= depth; ++t) {
        acc = half_cmadd(acc, round_to_half(pre.r(a, a + t)),
                         round_to_half(c.point(path[static_cast<usize>(
                             depth - t)])));
      }
      z[static_cast<usize>(col)] = acc;
    }
    return z.data();
  }

  void leaf() {
    cyc.radius += static_cast<std::uint64_t>(pipe.cfg_.radius_update_cycles);
  }

  // Each pushed child is one MST record {parent id, symbol, PD}, 32 bits
  // each, written to URAM.
  void pushed(index_t depth, usize survivors) {
    constexpr usize kMstRecordBytes = 12;
    for (usize i = 0; i < survivors; ++i) {
      cyc.mst += pipe.uram_.write(kMstRecordBytes) - 1 +
                 static_cast<std::uint64_t>(pipe.cfg_.mst_insert_cycles);
    }
    usize& level = pipe.level_pushes_[static_cast<usize>(depth)];
    level += survivors;
    mst_peak = std::max(mst_peak, level);
  }

  // The design evaluates and sorts every expansion's whole sibling batch:
  // one product of the design's shape and p comparisons per expansion, and
  // no operand traffic in the CPU's sense.
  void charge_products(DecodeStats& stats, const SdOptions& /*opts*/,
                       index_t p, std::span<const std::uint64_t> expansions,
                       std::uint64_t /*sorts*/) const {
    for (usize depth = 0; depth < expansions.size(); ++depth) {
      const std::uint64_t times = expansions[depth];
      const auto k = static_cast<index_t>(depth + 1);
      stats.gemm_calls += times;
      stats.flops += times * gemm_flops(pipe.cfg_.optimized ? k : 1, p, k);
      stats.sort_ops += times * static_cast<std::uint64_t>(p);
    }
  }
};

FpgaRunReport FpgaPipeline::run(const Preprocessed& pre,
                                const Constellation& constellation,
                                double sigma2, const SdOptions& search_opts) {
  DecodeScratch scratch;
  FpgaRunReport report;
  run_into(pre, constellation, sigma2, search_opts, scratch, report);
  return report;
}

void FpgaPipeline::run_into(const Preprocessed& pre,
                            const Constellation& constellation, double sigma2,
                            const SdOptions& search_opts,
                            DecodeScratch& scratch, FpgaRunReport& report) {
  const index_t m = pre.r.rows();
  report.result.reset();
  report.cycles = CycleBreakdown{};

  hbm_.reset_counters();
  uram_.reset_counters();
  prefetch_.reset_counters();
  sorter_.reset_counters();

  // One-time host -> HBM staging over PCIe: channel matrix, received vector,
  // triangular factor. The paper measures this below 3% of execution.
  const double staged_bytes =
      static_cast<double>(sizeof(cplx)) *
      (static_cast<double>(cfg_.num_rx) * cfg_.num_tx +  // H
       static_cast<double>(m) * m +                      // R
       static_cast<double>(cfg_.num_rx) + m);            // y, ybar
  report.transfer_seconds =
      cfg_.pcie_latency_s + staged_bytes / (cfg_.pcie_gbps * 1e9);

  // The design's datapath forms the level product, whatever the options
  // ask of the CPU's.
  SdOptions opts = search_opts;
  opts.gemm_eval = true;
  opts.level_gemm = LevelGemm::kRow0;
  level_pushes_.assign(static_cast<usize>(m), 0);
  half_row_.resize(static_cast<usize>(constellation.order()));
  Observer observer(*this, pre, constellation, report.cycles);
  best_fs_search(pre, constellation, opts, sigma2, scratch, observer,
                 report.result);
  materialize_symbols(constellation, report.result);

  report.mst_peak_nodes = observer.mst_peak;
  report.mst_overflow = report.mst_peak_nodes > cfg_.mst_capacity_per_level;
  report.hbm_bytes = hbm_.bytes_read() + hbm_.bytes_written();
  report.uram_bytes_written = uram_.bytes_written();
  report.compute_seconds =
      static_cast<double>(report.cycles.total()) / cfg_.clock_hz();
  report.total_seconds = report.compute_seconds + report.transfer_seconds;
}

}  // namespace sd
