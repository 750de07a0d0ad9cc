// The Best-FS tree search (paper Algorithm 1 + §III), written once.
//
// best_fs_search() is the search of SdGemmDetector and of the FPGA pipeline
// model (src/fpga/pipeline.cpp). The paper's hardware pipeline mimics "the
// execution profile and operational sequence of the CPU execution"
// (§III-C), so the model runs this loop and charges hardware cycles between
// its steps instead of keeping a second copy of it. The loop calls an
// observer at each step. BestFsObserver is the CPU's: it does nothing
// between the steps, and at the end charges the CPU's accounting of the
// level products. The model derives its own observer from it. Both callers
// compile under the same floating-point flags, so they form the same PDs and
// visit the same nodes in the same order.
//
// The steps of one expansion follow the paper:
//  - Phase 1 (Branching): a popped node generates P = |Ω| children, one per
//    constellation symbol of the next transmit antenna.
//  - Phase 2 (Evaluation): the children's partial distances come from row 0
//    of one level product — the trailing block of R times the children's
//    tree-state matrix — and a norm against ybar. Row 0 is the only new
//    information; it is gathered from one table per tree level, built once
//    per search (Row0Table), bit-identical to the block product that
//    LevelGemm::kFull still multiplies out.
//  - Phase 3 (Pruning): children outside the sphere radius are cut; the
//    survivors are sorted by PD and pushed onto the open list so the best
//    child is popped first (LIFO), the Best-FS strategy adopted from
//    Geosphere [14]. Reaching a leaf shrinks the radius (Alg. 1 line 8).
//
// The open list is a flat LIFO array of {pd, depth, symbol}; LIFO order
// keeps every open node's path in one shared array, so the search needs no
// tree store (DESIGN.md §3).
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "decode/decode_scratch.hpp"
#include "decode/detector.hpp"
#include "decode/sphere_common.hpp"
#include "linalg/gemm.hpp"
#include "mimo/constellation.hpp"

namespace sd {

/// The steps of the Best-FS loop an observer sees. Each hook here is what
/// the CPU search does at that step; an observer derives from this struct
/// and hides the hooks it needs.
struct BestFsObserver {
  /// A search attempt begins: the first, or a retry on a grown radius.
  void attempt() {}

  /// A node is about to be expanded into its children at `depth`.
  void expand(index_t /*depth*/) {}

  /// Row 0 of the level product for the children at `depth` of the parent
  /// whose symbols are `path` (p values), or nullptr to let the search form
  /// it from the level's Row0Table (or as the paper's full block under
  /// LevelGemm::kFull).
  const cplx* row0(index_t /*depth*/, std::span<const std::uint8_t> /*path*/) {
    return nullptr;
  }

  /// The best surviving leaf child shrank the radius.
  void leaf() {}

  /// `survivors` interior children at `depth` were pushed on the open list.
  void pushed(index_t /*depth*/, usize /*survivors*/) {}

  /// Charges the search's level products and sorts once it ends.
  /// `expansions[d]` counts the expansions into depth d, `sorts` those that
  /// sorted a non-empty survivor set. The CPU charges p·⌈log2 p⌉
  /// comparisons per sort and, per expansion, the paper's full block
  /// product (charge_level_gemm) or the scalar form's row read.
  void charge_products(DecodeStats& stats, const SdOptions& opts, index_t p,
                       std::span<const std::uint64_t> expansions,
                       std::uint64_t sorts) const {
    if (p >= 2) {
      const auto logp =
          static_cast<std::uint64_t>(std::bit_width(static_cast<usize>(p - 1)));
      stats.sort_ops += sorts * static_cast<std::uint64_t>(p) * logp;
    }
    for (usize depth = 0; depth < expansions.size(); ++depth) {
      const std::uint64_t times = expansions[depth];
      if (times == 0) continue;
      const auto k = static_cast<index_t>(depth + 1);
      if (opts.gemm_eval) {
        charge_level_gemm(stats, p, k, LevelOperands::kComplexFloat, times);
      } else {
        stats.bytes_touched +=
            times * sizeof(cplx) * static_cast<std::uint64_t>(k);
      }
    }
  }
};

/// Runs Best-FS on the triangular system `pre` with the radius policy, node
/// budget and evaluation form of `opts`, calling `obs` between the steps.
/// Writes result.indices (antenna order) and result.metric and accumulates
/// result.stats; the timings and result.symbols are the caller's. The
/// search state lives in `scratch`, so a warm search allocates nothing.
template <typename Observer>
void best_fs_search(const Preprocessed& pre, const Constellation& c,
                    const SdOptions& opts, double sigma2,
                    DecodeScratch& scratch, Observer& obs,
                    DecodeResult& result) {
  const index_t m = pre.r.rows();
  SD_CHECK(static_cast<index_t>(pre.ybar.size()) == m, "ybar length mismatch");
  const index_t p = c.order();
  SD_CHECK(m <= 0xFFFF && p <= 0x100,
           "Best-FS stores depths in 16 bits and symbols in 8");
  result.stats.tree_levels = static_cast<std::uint64_t>(m);

  double radius_sq = initial_radius_sq(opts, sigma2, m);
  // With a finite (noise-scaled) radius the sphere can be empty; the standard
  // remedy — also used by the BFS/GPU variant [1] — is to enlarge and retry.
  bool found_leaf = false;
  std::vector<index_t>& best_path = scratch.best_path;
  best_path.assign(static_cast<usize>(m), 0);
  double best_pd = std::numeric_limits<double>::infinity();

  const bool row0 = opts.gemm_eval && opts.level_gemm == LevelGemm::kRow0;
  if (row0) {
    // Row 0 of every level's product depends only on R and the alphabet:
    // one table per level serves every expansion of the search.
    std::vector<Row0Table>& tables = scratch.tables;
    if (tables.size() < static_cast<usize>(m)) {
      tables.resize(static_cast<usize>(m));
    }
    for (index_t depth = 0; depth < m; ++depth) {
      const index_t a = m - 1 - depth;
      build_row0_table(pre.r.row(a).subspan(static_cast<usize>(a),
                                            static_cast<usize>(depth + 1)),
                       c.points(), tables[static_cast<usize>(depth)]);
    }
    scratch.z_row.resize(static_cast<usize>(p));
  }

  // The open list: LIFO, so the entries below the top are the unexpanded
  // siblings of the current path's nodes, at most p per interior depth.
  // The loop works on raw pointers into the scratch: its byte stores to
  // the path may alias anything, which would otherwise reload each
  // vector's data pointer after every one of them.
  scratch.open.resize(static_cast<usize>(m) * static_cast<usize>(p));
  BestFsNode* const open = scratch.open.data();
  usize top = 0;
  usize peak = 0;
  scratch.path.assign(static_cast<usize>(m), 0);
  std::uint8_t* const path = scratch.path.data();
  scratch.children.resize(static_cast<usize>(p));
  ScratchChild* const kept = scratch.children.data();
  // Tallies stay local; the level products are charged once at the end.
  scratch.expansions.assign(static_cast<usize>(m), 0);
  std::uint64_t* const expansions = scratch.expansions.data();
  std::uint64_t expanded = result.stats.nodes_expanded;
  std::uint64_t pruned = 0;
  std::uint64_t sorts = 0;

  // Expands the node whose path symbols for depths [0, depth) are in `path`
  // and whose PD is `parent_pd` (depth 0 = the virtual root). Children live
  // at depth `depth`, i.e. antenna a = m-1-depth.
  auto expand = [&](index_t depth, real parent_pd) {
    const index_t a = m - 1 - depth;
    const index_t k = depth + 1;  // trailing block size
    ++expanded;
    ++expansions[static_cast<usize>(depth)];
    obs.expand(depth);

    // Phase 2 produces the p child PDs; Phase 3's radius test keeps a child
    // only when its PD is inside the sphere, so a NaN PD is pruned.
    usize n = 0;
    auto keep = [&](index_t col, real pd) {
      kept[n] = ScratchChild{col, pd};
      n += static_cast<double>(pd) < radius_sq ? 1 : 0;
    };
    if (!opts.gemm_eval) {
      // Scalar (ablation) form: shared interference term once, then one
      // complex MAC per child — the memory-bound BLAS-2 profile.
      cplx interference{0, 0};
      for (index_t t = 1; t <= depth; ++t) {
        interference +=
            pre.r(a, a + t) * c.point(path[static_cast<usize>(depth - t)]);
      }
      const cplx b = pre.ybar[static_cast<usize>(a)] - interference;
      const cplx raa = pre.r(a, a);
      for (index_t col = 0; col < p; ++col) {
        keep(col, parent_pd + norm2(b - raa * c.point(col)));
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
      const std::span<const std::uint8_t> parent(path,
                                                 static_cast<usize>(depth));
      // The observer may form row 0 in its own arithmetic.
      const cplx* z_row = obs.row0(depth, parent);
      if (z_row == nullptr && row0) {
        level_row0_from_table(scratch.tables[static_cast<usize>(depth)],
                              parent, scratch.z_row);
        z_row = scratch.z_row.data();
      } else if (z_row == nullptr) {
        // kFull: the paper's whole block product, staged in scratch
        // (reshape keeps capacity; a_block rows are rewritten in full,
        // s_mat / z fully overwritten).
        CMat& a_block = scratch.a_block;
        a_block.reshape(k, k);
        for (index_t r2 = 0; r2 < k; ++r2) {
          for (index_t t = 0; t < r2; ++t) a_block(r2, t) = cplx{0, 0};
          for (index_t t = r2; t < k; ++t) {
            a_block(r2, t) = pre.r(a + r2, a + t);
          }
        }
        CMat& s_mat = scratch.s_mat;
        s_mat.reshape(k, p);
        for (index_t col = 0; col < p; ++col) s_mat(0, col) = c.point(col);
        for (index_t t = 1; t < k; ++t) {
          const cplx sym = c.point(path[static_cast<usize>(depth - t)]);
          for (index_t col = 0; col < p; ++col) s_mat(t, col) = sym;
        }
        CMat& z = scratch.z;
        z.reshape(k, p);
        gemm(Op::kNone, cplx{1, 0}, a_block, s_mat, cplx{0, 0}, z,
             scratch.gemm_ws);
        z_row = z.row(0).data();
      }
      const cplx target = pre.ybar[static_cast<usize>(a)];
      for (index_t col = 0; col < p; ++col) {
        keep(col, parent_pd + norm2(target - z_row[col]));
      }
    }
    pruned += static_cast<std::uint64_t>(p) - n;
    if (n == 0) return;
    ++sorts;

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
      obs.leaf();
      return;
    }

    // Interior level: push the survivors in reverse so the best pops next.
    const auto d16 = static_cast<std::uint16_t>(depth);
    for (usize i = n; i-- > 0;) {
      open[top++] = BestFsNode{kept[i].pd, d16,
                               static_cast<std::uint8_t>(kept[i].symbol)};
    }
    peak = std::max(peak, top);
    obs.pushed(depth, n);
  };

  // A non-finite R is not searched; the Babai fallback below answers.
  const bool searchable = finite_triangle(pre.r);
  for (int attempt = 0; searchable; ++attempt) {
    top = 0;
    obs.attempt();
    expand(0, real{0});

    while (top > 0) {
      if (expanded >= opts.max_nodes) {
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
  result.stats.peak_list_size =
      std::max<std::uint64_t>(result.stats.peak_list_size, peak);
  obs.charge_products(
      result.stats, opts, p,
      std::span<const std::uint64_t>(expansions, static_cast<usize>(m)),
      sorts);

  // No leaf before the budget ran out, an empty unbounded sphere, or a
  // non-finite R: the Babai point answers.
  if (!found_leaf) best_pd = babai_point(pre, c, best_path);

  path_to_antenna_order(pre, best_path, scratch.layered, result.indices);
  result.metric = best_pd;
}

}  // namespace sd
