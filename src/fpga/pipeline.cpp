#include "fpga/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "decode/mst.hpp"
#include "linalg/gemm.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace sd {

namespace {

struct ListEntry {
  NodeId id;
  real pd;
};

struct Child {
  index_t symbol;
  real pd;
};

}  // namespace

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
      prefetch_(config.optimized, hbm_),
      sorter_(config.sort_stage_latency) {}

FpgaRunReport FpgaPipeline::run(const Preprocessed& pre,
                                const Constellation& constellation,
                                double sigma2, const SdOptions& search_opts) {
  const Constellation& c = constellation;
  const index_t m = pre.r.rows();
  const index_t p = c.order();
  SD_CHECK(static_cast<index_t>(pre.ybar.size()) == m, "ybar length mismatch");

  FpgaRunReport report;
  DecodeResult& result = report.result;
  result.stats.tree_levels = static_cast<std::uint64_t>(m);

  gemm_engine_.reset_counters();
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

  MetaStateTable mst(m, cfg_.mst_capacity_per_level, /*fixed_capacity=*/false);
  TreeList<ListEntry> open;

  double radius_sq = initial_radius_sq(search_opts, sigma2, m);
  bool found_leaf = false;
  std::vector<index_t> best_path(static_cast<usize>(m), 0);
  double best_pd = std::numeric_limits<double>::infinity();

  std::vector<index_t> path(static_cast<usize>(m), 0);
  std::vector<Child> children(static_cast<usize>(p));
  std::vector<Child> survivors;
  survivors.reserve(static_cast<usize>(p));
  std::vector<ListEntry> batch;
  batch.reserve(static_cast<usize>(p));

  CycleBreakdown& cyc = report.cycles;
  // Compute cycles of the previous expansion, available for the prefetch of
  // the next one to hide behind (ping-pong buffering).
  std::uint64_t prev_compute_cycles = 0;

  auto expand = [&](NodeId parent_id, index_t depth, real parent_pd) {
    const index_t a = m - 1 - depth;
    const index_t k = m - a;
    ++result.stats.nodes_expanded;
    result.stats.nodes_generated += static_cast<std::uint64_t>(p);

    // --- Phase 1: branching. P children at II = branch_ii after setup.
    {
      SD_TRACE_SPAN("fpga.branch");
      cyc.branch += static_cast<std::uint64_t>(cfg_.branch_setup) +
                    static_cast<std::uint64_t>(p) *
                        static_cast<std::uint64_t>(cfg_.branch_ii);
    }

    // --- Pre-fetch: R row block + the parent's tree-state block. In the
    // optimized design this hides behind the previous expansion's compute.
    const usize fetch_bytes =
        sizeof(cplx) *
        (static_cast<usize>(cfg_.optimized ? k * k : k) +  // R block / row
         static_cast<usize>(k) * p +                       // tree-state matrix
         1);                                               // ybar element
    {
      SD_TRACE_SPAN("fpga.prefetch");
      cyc.prefetch_exposed += prefetch_.stage(fetch_bytes, prev_compute_cycles);
    }

    // --- Phase 2: evaluation. The optimized design streams the full
    // (k x k) x (k x P) tree-state block product through the systolic
    // engine (the paper's GEMM refactoring); the baseline design is a
    // direct port of the scalar algorithm and evaluates only the new row
    // on its MAC chain. Row 0 of z — the PD input — is bitwise identical
    // to the CPU decoder's in both cases.
    const index_t a_rows = cfg_.optimized ? k : 1;
    CMat z(a_rows, p);
    std::uint64_t gemm_cycles = 0;
    {
      SD_TRACE_SPAN("fpga.gemm");
      CMat a_block(a_rows, k);
      for (index_t r2 = 0; r2 < a_rows; ++r2) {
        for (index_t t = r2; t < k; ++t) {
          a_block(r2, t) = pre.r(a + r2, a + t);
        }
      }
      CMat s_mat(k, p);
      for (index_t col = 0; col < p; ++col) s_mat(0, col) = c.point(col);
      for (index_t t = 1; t < k; ++t) {
        const cplx sym = c.point(path[static_cast<usize>(depth - t)]);
        for (index_t col = 0; col < p; ++col) s_mat(t, col) = sym;
      }
      gemm_cycles = gemm_engine_.run(a_block, s_mat, z);
      cyc.gemm += gemm_cycles;
      ++result.stats.gemm_calls;
      result.stats.flops += gemm_flops(a_rows, p, k);
    }

    // --- NORM: |ybar_a - z_c|^2 accumulate across the P lanes at the unit's
    // initiation interval (1 in the optimized design, stalled in the port).
    const std::uint64_t norm_cycles =
        static_cast<std::uint64_t>(cfg_.norm_latency) +
        static_cast<std::uint64_t>(p) * static_cast<std::uint64_t>(cfg_.branch_ii);
    {
      SD_TRACE_SPAN("fpga.norm");
      cyc.norm += norm_cycles;
      const cplx target = pre.ybar[static_cast<usize>(a)];
      for (index_t col = 0; col < p; ++col) {
        children[static_cast<usize>(col)] = {
            col, parent_pd + norm2(target - z(0, col))};
      }
    }

    // --- Phase 3: prune + sort (bitonic network over the sibling batch).
    std::uint64_t sort_cycles = 0;
    {
      SD_TRACE_SPAN("fpga.sort");
      survivors.clear();
      for (const Child& ch : children) {
        if (static_cast<double>(ch.pd) < radius_sq) {
          survivors.push_back(ch);
        } else {
          ++result.stats.nodes_pruned;
        }
      }
      sort_cycles = sorter_.sort(static_cast<usize>(p));
      cyc.sort += sort_cycles;
      result.stats.sort_ops += static_cast<std::uint64_t>(p);
    }

    // The ping-pong prefetch of the *next* expansion overlaps this entire
    // expansion's compute (branch through sort).
    prev_compute_cycles = static_cast<std::uint64_t>(cfg_.branch_setup) +
                          static_cast<std::uint64_t>(p) *
                              static_cast<std::uint64_t>(cfg_.branch_ii) +
                          gemm_cycles + norm_cycles + sort_cycles;

    if (survivors.empty()) return;
    std::sort(survivors.begin(), survivors.end(),
              [](const Child& x, const Child& y2) { return x.pd < y2.pd; });

    if (depth == m - 1) {
      const Child& best_child = survivors.front();
      ++result.stats.leaves_reached;
      result.stats.nodes_pruned += survivors.size() - 1;
      radius_sq = static_cast<double>(best_child.pd);
      best_pd = radius_sq;
      best_path = path;
      best_path[static_cast<usize>(depth)] = best_child.symbol;
      found_leaf = true;
      ++result.stats.radius_updates;
      cyc.radius += static_cast<std::uint64_t>(cfg_.radius_update_cycles);
      return;
    }

    batch.clear();
    for (const Child& ch : survivors) {
      const NodeId id = mst.insert(depth, MstNode{parent_id, ch.symbol, ch.pd});
      batch.push_back(ListEntry{id, ch.pd});
      cyc.mst += uram_.write(sizeof(MstNode)) - 1 +
                 static_cast<std::uint64_t>(cfg_.mst_insert_cycles);
    }
    open.push_sorted_batch(std::span<const ListEntry>(batch));
  };

  for (int attempt = 0;; ++attempt) {
    mst.reset();
    open.clear();
    prev_compute_cycles = 0;
    expand(kRootId, 0, real{0});

    while (!open.empty()) {
      if (result.stats.nodes_expanded >= search_opts.max_nodes) {
        result.stats.node_budget_hit = true;
        break;
      }
      const ListEntry entry = open.pop();
      if (static_cast<double>(entry.pd) >= radius_sq) {
        ++result.stats.nodes_pruned;
        continue;
      }
      const index_t depth = MetaStateTable::level_of(entry.id) + 1;
      mst.path_symbols(entry.id, path);
      expand(entry.id, depth, entry.pd);
    }

    result.stats.peak_list_size =
        std::max<std::uint64_t>(result.stats.peak_list_size, open.peak_size());
    report.mst_peak_nodes = std::max(report.mst_peak_nodes, mst.peak_level_count());

    if (found_leaf || result.stats.node_budget_hit || std::isinf(radius_sq)) {
      break;
    }
    radius_sq = next_radius_sq(radius_sq, attempt, result.stats);
  }

  if (!found_leaf) {
    // Babai fallback (budget exhausted before a leaf) — identical to the CPU
    // decoder so results stay comparable.
    double pd = 0.0;
    for (index_t depth = 0; depth < m; ++depth) {
      const index_t a = m - 1 - depth;
      cplx acc{0, 0};
      for (index_t t = 1; t <= depth; ++t) {
        acc += pre.r(a, a + t) *
               c.point(best_path[static_cast<usize>(depth - t)]);
      }
      const cplx b = pre.ybar[static_cast<usize>(a)] - acc;
      const index_t sym = c.slice(b / pre.r(a, a));
      best_path[static_cast<usize>(depth)] = sym;
      pd += norm2(b - pre.r(a, a) * c.point(sym));
    }
    best_pd = pd;
  }

  report.mst_overflow = report.mst_peak_nodes > cfg_.mst_capacity_per_level;
  report.hbm_bytes = hbm_.bytes_read() + hbm_.bytes_written();
  report.uram_bytes_written = uram_.bytes_written();

  std::vector<index_t> layered(static_cast<usize>(m));
  for (index_t depth = 0; depth < m; ++depth) {
    layered[static_cast<usize>(m - 1 - depth)] =
        best_path[static_cast<usize>(depth)];
  }
  result.indices = to_antenna_order(pre, layered);
  result.metric = best_pd;
  materialize_symbols(c, result);

  report.compute_seconds =
      static_cast<double>(cyc.total()) / cfg_.clock_hz();
  report.total_seconds = report.compute_seconds + report.transfer_seconds;
  return report;
}

}  // namespace sd
