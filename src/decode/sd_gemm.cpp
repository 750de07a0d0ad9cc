#include "decode/sd_gemm.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/trace.hpp"
#include "linalg/gemm.hpp"

namespace sd {

namespace {

/// Comparison-count model for sorting a batch of p children. The FPGA uses a
/// bitonic network; on the CPU std::sort is O(p log p). We charge the
/// canonical p*ceil(log2 p) so counts are deterministic across platforms.
std::uint64_t sort_cost(usize p) noexcept {
  if (p < 2) return 0;
  const auto logp = static_cast<std::uint64_t>(std::bit_width(p - 1));
  return static_cast<std::uint64_t>(p) * logp;
}

}  // namespace

SdGemmDetector::SdGemmDetector(const Constellation& constellation,
                               SdOptions options)
    : c_(&constellation), opts_(options) {}

DecodeResult SdGemmDetector::decode(const CMat& h, std::span<const cplx> y,
                                    double sigma2) {
  DecodeResult result;
  decode_into(h, y, sigma2, result);
  return result;
}

void SdGemmDetector::decode_into(const CMat& h, std::span<const cplx> y,
                                 double sigma2, DecodeResult& out) {
  SD_TRACE_SPAN("decode");
  out.reset();
  preprocess_into(h, y, opts_.sorted_qr, scratch_.prep, scratch_.pre);
  out.stats.preprocess_seconds = scratch_.pre.seconds;
  search(scratch_.pre, sigma2, out);
  materialize_symbols(*c_, out);
}

void SdGemmDetector::decode_with(const PreprocessedChannel& prep,
                                 std::span<const cplx> y, double sigma2,
                                 DecodeResult& out) {
  if (prep.kind != prep_kind()) {
    Detector::decode_with(prep, y, sigma2, out);
    return;
  }
  SD_TRACE_SPAN("decode");
  out.reset();
  preprocess_with_channel(prep, y, scratch_.prep, scratch_.pre);
  out.stats.preprocess_seconds = scratch_.pre.seconds;
  search(scratch_.pre, sigma2, out);
  materialize_symbols(*c_, out);
}

void SdGemmDetector::search(const Preprocessed& pre, double sigma2,
                            DecodeResult& result) {
  SD_TRACE_SPAN("decode.search");
  const index_t m = pre.r.rows();
  SD_CHECK(static_cast<index_t>(pre.ybar.size()) == m, "ybar length mismatch");
  const index_t p = c_->order();
  result.stats.tree_levels = static_cast<std::uint64_t>(m);

  Timer timer;

  // The tree state database (paper Fig. 5). Soft capacity on CPU; the peak
  // per-level occupancy feeds the URAM sizing model. All working state lives
  // in detector-owned scratch so repeat decodes allocate nothing.
  MetaStateTable& mst = scratch_.mst(m, 1024);
  TreeList<ScratchNode>& open = scratch_.open;
  open.clear();

  double radius_sq = initial_radius_sq(opts_, sigma2, m);
  // With a finite (noise-scaled) radius the sphere can be empty; the standard
  // remedy — also used by the BFS/GPU variant [1] — is to enlarge and retry.
  bool found_leaf = false;
  std::vector<index_t>& best_path = scratch_.best_path;
  best_path.assign(static_cast<usize>(m), 0);
  double best_pd = std::numeric_limits<double>::infinity();

  const bool row0 = opts_.level_gemm == LevelGemm::kRow0;
  std::vector<index_t>& path = scratch_.path;
  path.assign(static_cast<usize>(m), 0);
  std::vector<ScratchChild>& children = scratch_.children;
  children.resize(static_cast<usize>(p));
  std::vector<ScratchChild>& survivors = scratch_.survivors;
  survivors.reserve(static_cast<usize>(p));
  std::vector<ScratchNode>& batch = scratch_.batch;
  batch.reserve(static_cast<usize>(p));

  // Expands the node `parent_id` (kRootId = the virtual root) whose path
  // symbols for depths [0, depth) are already in `path` and whose PD is
  // `parent_pd`. Children live at depth `depth`, i.e. antenna a = m-1-depth.
  auto expand = [&](NodeId parent_id, index_t depth, real parent_pd) {
    const index_t a = m - 1 - depth;
    ++result.stats.nodes_expanded;
    result.stats.nodes_generated += static_cast<std::uint64_t>(p);

    if (opts_.gemm_eval) {
      // Phase 2, GEMM form (the BLAS-2 -> BLAS-3 refactoring of [1]): the
      // whole trailing R block R[a:m, a:m] is multiplied by the tree-state
      // matrix S whose columns are the P candidate blocks (new symbol on
      // top, parent path below) — "a block of the tree state matrix is
      // multiplied by its corresponding block in the channel matrix"
      // (paper §III-A2). Only row a is new information (the rows below
      // re-derive the parent's contributions), so the PD increment reads
      // row 0 of z; the redundant rows are the regularity the compute-bound
      // refactoring trades for accelerator-friendly GEMM shapes.
      const index_t k = m - a;  // trailing block size
      CMat& z = scratch_.z;
      if (row0) {
        // Row 0 only, evaluated from the parent's path (level_row0):
        // bit-identical to row 0 of the block product below.
        CVec& above = scratch_.above;
        above.resize(static_cast<usize>(k - 1));
        for (index_t t = 1; t < k; ++t) {
          // Column a+t of R corresponds to the symbol decided at depth
          // m-1-(a+t) = depth - t.
          above[static_cast<usize>(t - 1)] =
              c_->point(path[static_cast<usize>(depth - t)]);
        }
        z.reshape(1, p);
        level_row0(pre.r.row(a).subspan(static_cast<usize>(a),
                                        static_cast<usize>(k)),
                   above, c_->points(), z.row(0));
      } else {
        // kFull: the paper's whole block product, staged in scratch
        // (reshape keeps capacity; a_block rows are rewritten in full,
        // s_mat / z fully overwritten).
        CMat& a_block = scratch_.a_block;
        a_block.reshape(k, k);
        for (index_t r2 = 0; r2 < k; ++r2) {
          for (index_t t = 0; t < r2; ++t) a_block(r2, t) = cplx{0, 0};
          for (index_t t = r2; t < k; ++t) {
            a_block(r2, t) = pre.r(a + r2, a + t);
          }
        }
        CMat& s_mat = scratch_.s_mat;
        s_mat.reshape(k, p);
        for (index_t col = 0; col < p; ++col) s_mat(0, col) = c_->point(col);
        for (index_t t = 1; t < k; ++t) {
          const cplx sym = c_->point(path[static_cast<usize>(depth - t)]);
          for (index_t col = 0; col < p; ++col) s_mat(t, col) = sym;
        }
        z.reshape(k, p);
        gemm(Op::kNone, cplx{1, 0}, a_block, s_mat, cplx{0, 0}, z,
             scratch_.gemm_ws);
      }
      // Either way the charge is the paper's full block (sphere_common.hpp).
      charge_level_gemm(result.stats, p, k, LevelOperands::kComplexFloat);
      const cplx target = pre.ybar[static_cast<usize>(a)];
      for (index_t col = 0; col < p; ++col) {
        children[static_cast<usize>(col)] = {
            col, parent_pd + norm2(target - z(0, col))};
      }
    } else {
      // Scalar (ablation) form: shared interference term once, then one
      // complex MAC per child — the memory-bound BLAS-2 profile.
      cplx interference{0, 0};
      for (index_t t = 1; t <= depth; ++t) {
        interference +=
            pre.r(a, a + t) * c_->point(path[static_cast<usize>(depth - t)]);
      }
      const cplx b = pre.ybar[static_cast<usize>(a)] - interference;
      const cplx raa = pre.r(a, a);
      for (index_t col = 0; col < p; ++col) {
        children[static_cast<usize>(col)] = {
            col, parent_pd + norm2(b - raa * c_->point(col))};
      }
      result.stats.bytes_touched +=
          sizeof(cplx) * static_cast<std::uint64_t>(m - a);
    }

    // Phase 3: prune against the radius.
    survivors.clear();
    for (const ScratchChild& ch : children) {
      if (static_cast<double>(ch.pd) < radius_sq) {
        survivors.push_back(ch);
      } else {
        ++result.stats.nodes_pruned;
      }
    }
    if (survivors.empty()) return;

    std::sort(survivors.begin(), survivors.end(),
              [](const ScratchChild& x, const ScratchChild& y2) {
                return x.pd < y2.pd;
              });
    result.stats.sort_ops += sort_cost(static_cast<usize>(p));

    if (depth == m - 1) {
      // Leaf level: the best surviving child inside the radius becomes the
      // new incumbent and shrinks the sphere (Alg. 1 lines 7-9).
      const ScratchChild& best_child = survivors.front();
      ++result.stats.leaves_reached;
      // Its siblings can no longer beat the shrunken radius.
      result.stats.nodes_pruned += survivors.size() - 1;
      radius_sq = static_cast<double>(best_child.pd);
      best_pd = radius_sq;
      best_path = path;
      best_path[static_cast<usize>(depth)] = best_child.symbol;
      found_leaf = true;
      ++result.stats.radius_updates;
      return;
    }

    // Interior level: commit survivors to the MST, push in sorted order.
    batch.clear();
    for (const ScratchChild& ch : survivors) {
      const NodeId id = mst.insert(depth, MstNode{parent_id, ch.symbol, ch.pd});
      batch.push_back(ScratchNode{id, ch.pd});
    }
    open.push_sorted_batch(std::span<const ScratchNode>(batch));
  };

  for (int attempt = 0;; ++attempt) {
    mst.reset();
    open.clear();
    expand(kRootId, 0, real{0});

    while (!open.empty()) {
      if (result.stats.nodes_expanded >= opts_.max_nodes) {
        result.stats.node_budget_hit = true;
        break;
      }
      const ScratchNode entry = open.pop();
      // Lazy pruning: the radius may have shrunk since this node was pushed.
      if (static_cast<double>(entry.pd) >= radius_sq) {
        ++result.stats.nodes_pruned;
        continue;
      }
      // The open list is LIFO, so nothing popped since this node's parent
      // was expanded has touched path[0, level): only its own symbol is
      // missing.
      const index_t level = MetaStateTable::level_of(entry.id);
      path[static_cast<usize>(level)] = mst.get(entry.id).symbol;
      expand(entry.id, level + 1, entry.pd);
    }

    result.stats.peak_list_size =
        std::max<std::uint64_t>(result.stats.peak_list_size, open.peak_size());

    // An unbounded sphere cannot grow; the Babai fallback below answers.
    if (found_leaf || result.stats.node_budget_hit || std::isinf(radius_sq)) {
      break;
    }
    // Empty sphere under the noise-scaled radius: enlarge it and retry.
    radius_sq = next_radius_sq(radius_sq, attempt, result.stats);
  }

  if (!found_leaf) {
    // Budget exhausted before any leaf: fall back to the Babai (successive
    // interference cancellation) point so the detector always answers.
    double pd = 0.0;
    for (index_t depth = 0; depth < m; ++depth) {
      const index_t a = m - 1 - depth;
      cplx acc{0, 0};
      for (index_t t = 1; t <= depth; ++t) {
        acc += pre.r(a, a + t) *
               c_->point(best_path[static_cast<usize>(depth - t)]);
      }
      const cplx b = pre.ybar[static_cast<usize>(a)] - acc;
      const index_t sym = c_->slice(b / pre.r(a, a));
      best_path[static_cast<usize>(depth)] = sym;
      pd += norm2(b - pre.r(a, a) * c_->point(sym));
    }
    best_pd = pd;
  }

  // Depth d decided antenna (column) m-1-d; flip to column order, then undo
  // any SQRD permutation.
  std::vector<index_t>& layered = scratch_.layered;
  layered.resize(static_cast<usize>(m));
  for (index_t depth = 0; depth < m; ++depth) {
    layered[static_cast<usize>(m - 1 - depth)] =
        best_path[static_cast<usize>(depth)];
  }
  to_antenna_order_into(pre, layered, result.indices);
  result.metric = best_pd;
  result.stats.search_seconds = timer.elapsed_seconds();
}

}  // namespace sd
