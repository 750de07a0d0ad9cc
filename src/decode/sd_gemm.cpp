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
  SD_CHECK(m <= 0xFFFF && p <= 0x100,
           "Best-FS stores depths in 16 bits and symbols in 8");
  result.stats.tree_levels = static_cast<std::uint64_t>(m);

  Timer timer;

  double radius_sq = initial_radius_sq(opts_, sigma2, m);
  // With a finite (noise-scaled) radius the sphere can be empty; the standard
  // remedy — also used by the BFS/GPU variant [1] — is to enlarge and retry.
  bool found_leaf = false;
  std::vector<index_t>& best_path = scratch_.best_path;
  best_path.assign(static_cast<usize>(m), 0);
  double best_pd = std::numeric_limits<double>::infinity();

  const bool row0 = opts_.gemm_eval && opts_.level_gemm == LevelGemm::kRow0;
  if (row0) {
    // Row 0 of every level's product depends only on R and the alphabet:
    // one table per level serves every expansion of the search.
    std::vector<Row0Table>& tables = scratch_.tables;
    if (tables.size() < static_cast<usize>(m)) {
      tables.resize(static_cast<usize>(m));
    }
    for (index_t depth = 0; depth < m; ++depth) {
      const index_t a = m - 1 - depth;
      build_row0_table(pre.r.row(a).subspan(static_cast<usize>(a),
                                            static_cast<usize>(depth + 1)),
                       c_->points(), tables[static_cast<usize>(depth)]);
    }
    scratch_.z_row.resize(static_cast<usize>(p));
  }

  // The open list: LIFO, so the entries below the top are the unexpanded
  // siblings of the current path's nodes, at most p per interior depth.
  // The loop works on raw pointers into the scratch: its byte stores to
  // the path may alias anything, which would otherwise reload each
  // vector's data pointer after every one of them.
  scratch_.open.resize(static_cast<usize>(m) * static_cast<usize>(p));
  BestFsNode* const open = scratch_.open.data();
  usize top = 0;
  usize peak = 0;
  scratch_.path.assign(static_cast<usize>(m), 0);
  std::uint8_t* const path = scratch_.path.data();
  scratch_.children.resize(static_cast<usize>(p));
  ScratchChild* const kept = scratch_.children.data();
  // Tallies stay local; the level products are charged once per depth at
  // the end.
  scratch_.expansions.assign(static_cast<usize>(m), 0);
  std::uint64_t* const expansions = scratch_.expansions.data();
  std::uint64_t expanded = result.stats.nodes_expanded;
  std::uint64_t pruned = 0;
  std::uint64_t sorts = 0;
  const std::uint64_t sort_ops = sort_cost(static_cast<usize>(p));

  // Expands the node whose path symbols for depths [0, depth) are in `path`
  // and whose PD is `parent_pd` (depth 0 = the virtual root). Children live
  // at depth `depth`, i.e. antenna a = m-1-depth.
  auto expand = [&](index_t depth, real parent_pd) {
    const index_t a = m - 1 - depth;
    const index_t k = depth + 1;  // trailing block size
    ++expanded;
    ++expansions[static_cast<usize>(depth)];

    // Phase 2 produces the p child PDs; Phase 3's radius test keeps a child
    // only when its PD is inside the sphere, so a NaN PD is pruned.
    usize n = 0;
    auto keep = [&](index_t col, real pd) {
      kept[n] = ScratchChild{col, pd};
      n += static_cast<double>(pd) < radius_sq ? 1 : 0;
    };
    if (!opts_.gemm_eval) {
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
        keep(col, parent_pd + norm2(b - raa * c_->point(col)));
      }
    } else {
      // Phase 2, GEMM form (the BLAS-2 -> BLAS-3 refactoring of [1]): the
      // trailing R block R[a:m, a:m] times the tree-state matrix S whose
      // columns are the P candidate blocks (new symbol on top, parent path
      // below) — "a block of the tree state matrix is multiplied by its
      // corresponding block in the channel matrix" (paper §III-A2). Only
      // row 0 of the product is new information: kRow0 gathers it from the
      // level's table, bit-identical to row 0 of the block product that
      // kFull stages and multiplies.
      const cplx* z_row = nullptr;
      if (row0) {
        level_row0_from_table(
            scratch_.tables[static_cast<usize>(depth)],
            std::span<const std::uint8_t>(path, static_cast<usize>(depth)),
            scratch_.z_row);
        z_row = scratch_.z_row.data();
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
        CMat& z = scratch_.z;
        z.reshape(k, p);
        gemm(Op::kNone, cplx{1, 0}, a_block, s_mat, cplx{0, 0}, z,
             scratch_.gemm_ws);
        z_row = z.row(0).data();
      }
      const cplx target = pre.ybar[static_cast<usize>(a)];
      for (index_t col = 0; col < p; ++col) {
        keep(col, parent_pd + norm2(target - z_row[col]));
      }
    }
    pruned += static_cast<std::uint64_t>(p) - n;
    if (n == 0) return;
    sorts += sort_ops;

    std::sort(kept, kept + n,
              [](const ScratchChild& x, const ScratchChild& y2) {
                return x.pd < y2.pd;
              });

    if (depth == m - 1) {
      // Leaf level: the best surviving child inside the radius becomes the
      // new incumbent and shrinks the sphere (Alg. 1 lines 7-9). Its
      // siblings can no longer beat the shrunken radius.
      ++result.stats.leaves_reached;
      pruned += n - 1;
      radius_sq = static_cast<double>(kept[0].pd);
      best_pd = radius_sq;
      for (index_t d = 0; d < depth; ++d) {
        best_path[static_cast<usize>(d)] = path[static_cast<usize>(d)];
      }
      best_path[static_cast<usize>(depth)] = kept[0].symbol;
      found_leaf = true;
      ++result.stats.radius_updates;
      return;
    }

    // Interior level: push the survivors in reverse so the best pops next.
    const auto d16 = static_cast<std::uint16_t>(depth);
    for (usize i = n; i-- > 0;) {
      open[top++] = BestFsNode{kept[i].pd, d16,
                               static_cast<std::uint8_t>(kept[i].symbol)};
    }
    peak = std::max(peak, top);
  };

  for (int attempt = 0;; ++attempt) {
    top = 0;
    expand(0, real{0});

    while (top > 0) {
      if (expanded >= opts_.max_nodes) {
        result.stats.node_budget_hit = true;
        break;
      }
      const BestFsNode entry = open[--top];
      // Lazy pruning: the radius may have shrunk since this node was pushed.
      if (static_cast<double>(entry.pd) >= radius_sq) {
        ++pruned;
        continue;
      }
      // Nothing popped since this node's parent was expanded has touched
      // path[0, depth): only its own symbol is missing.
      path[entry.depth] = entry.symbol;
      expand(static_cast<index_t>(entry.depth) + 1, entry.pd);
    }

    // An unbounded sphere cannot grow; the Babai fallback below answers.
    if (found_leaf || result.stats.node_budget_hit || std::isinf(radius_sq)) {
      break;
    }
    // Empty sphere under the noise-scaled radius: enlarge it and retry.
    radius_sq = next_radius_sq(radius_sq, attempt, result.stats);
  }

  const std::uint64_t new_expansions = expanded - result.stats.nodes_expanded;
  result.stats.nodes_expanded = expanded;
  result.stats.nodes_generated +=
      static_cast<std::uint64_t>(p) * new_expansions;
  result.stats.nodes_pruned += pruned;
  result.stats.sort_ops += sorts;
  result.stats.peak_list_size =
      std::max<std::uint64_t>(result.stats.peak_list_size, peak);
  for (index_t depth = 0; depth < m; ++depth) {
    const std::uint64_t times = expansions[static_cast<usize>(depth)];
    if (times == 0) continue;
    // Either product shape is charged as the paper's full block
    // (sphere_common.hpp); the scalar form reads the row's depth+1 entries.
    if (opts_.gemm_eval) {
      charge_level_gemm(result.stats, p, depth + 1,
                        LevelOperands::kComplexFloat, times);
    } else {
      result.stats.bytes_touched +=
          times * sizeof(cplx) * static_cast<std::uint64_t>(depth + 1);
    }
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
