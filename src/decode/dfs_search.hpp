// The Schnorr–Euchner depth-first tree search, written once.
//
// dfs_search() is the search of SdDfsDetector (the Geosphere [14] baseline
// of Fig. 12), of ListSphereDecoder, and of every ParallelSd sub-tree. From
// a start depth and the PD of the node there, it enters each depth by
// evaluating the p children of the current path with the scalar
// interference-cancellation arithmetic and sorting them by PD (the
// Schnorr–Euchner order), then walks them best first. A child is kept only
// when pd < radius, so a NaN PD is pruned; the siblings after the first
// child outside the sphere are no better, so that child ends its level. A
// kept child at the last depth is a leaf, handed to the caller.
//
// The callers differ only in where the radius lives and what a leaf does,
// so both are parameters:
//  - SdDfsDetector keeps a local radius that each leaf shrinks to its PD;
//  - ListSphereDecoder takes the L-th best candidate's metric once it holds
//    L candidates, and each leaf joins the list;
//  - ParallelSd reads a per-frame atomic radius that a better leaf shrinks
//    by a CAS-min, the one coupling between sub-trees that Nikitopoulos et
//    al. [4] keep.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "decode/decode_scratch.hpp"
#include "decode/detector.hpp"
#include "decode/sphere_common.hpp"
#include "mimo/constellation.hpp"

namespace sd {

/// One depth of the search: the children of the path's node there in SE
/// order, and the next one to visit.
struct DfsLevel {
  std::vector<ScratchChild> ordered;
  usize next = 0;
};

/// Reusable state of a depth-first search. Buffers keep their capacity
/// across searches.
struct DfsScratch {
  std::vector<index_t> path;              ///< symbol per depth
  std::vector<DfsLevel> levels;           ///< one per depth
  std::vector<std::uint64_t> expansions;  ///< expansions into each depth

  /// Sizes the scratch for an m-level tree and zeroes the path and tallies.
  void begin(index_t m) {
    path.assign(static_cast<usize>(m), 0);
    if (levels.size() < static_cast<usize>(m)) {
      levels.resize(static_cast<usize>(m));
    }
    expansions.assign(static_cast<usize>(m), 0);
  }
};

/// Searches the sub-tree below the node at depth `start` whose symbols for
/// depths [0, start) are s.path's prefix and whose PD is `start_pd`.
/// `radius()` returns the current squared radius; `leaf(pd, path)` receives
/// each leaf inside it. Counts expansions, generated and pruned children and
/// leaves into `stats`, and stops with stats.node_budget_hit once
/// stats.nodes_expanded reaches `max_nodes`. `s` must have begun an m-level
/// tree.
template <typename Radius, typename Leaf>
void dfs_search(const Preprocessed& pre, const Constellation& c, index_t start,
                real start_pd, std::uint64_t max_nodes, DfsScratch& s,
                DecodeStats& stats, Radius&& radius, Leaf&& leaf) {
  const index_t m = pre.r.rows();
  const index_t p = c.order();

  // Enters depth `d`: evaluates and SE-orders the children of the path's
  // node at depth d-1, whose PD is `parent_pd`.
  auto enter_depth = [&](index_t d, real parent_pd) {
    const index_t a = m - 1 - d;
    ++stats.nodes_expanded;
    stats.nodes_generated += static_cast<std::uint64_t>(p);
    ++s.expansions[static_cast<usize>(d)];

    cplx interference{0, 0};
    for (index_t t = 1; t <= d; ++t) {
      interference +=
          pre.r(a, a + t) * c.point(s.path[static_cast<usize>(d - t)]);
    }
    const cplx b = pre.ybar[static_cast<usize>(a)] - interference;
    const cplx raa = pre.r(a, a);

    DfsLevel& lvl = s.levels[static_cast<usize>(d)];
    lvl.ordered.clear();
    lvl.next = 0;
    for (index_t sym = 0; sym < p; ++sym) {
      lvl.ordered.push_back(
          ScratchChild{sym, parent_pd + norm2(b - raa * c.point(sym))});
    }
    std::sort(lvl.ordered.begin(), lvl.ordered.end(),
              [](const ScratchChild& x, const ScratchChild& y2) {
                return x.pd < y2.pd;
              });
  };

  index_t depth = start;
  enter_depth(depth, start_pd);
  while (depth >= start) {
    if (stats.nodes_expanded >= max_nodes) {
      stats.node_budget_hit = true;
      return;
    }
    DfsLevel& lvl = s.levels[static_cast<usize>(depth)];
    if (lvl.next >= lvl.ordered.size()) {
      --depth;  // exhausted: backtrack
      continue;
    }
    const ScratchChild child = lvl.ordered[lvl.next++];
    if (!(static_cast<double>(child.pd) < radius())) {
      // SE order: every remaining sibling is at least as bad.
      stats.nodes_pruned +=
          static_cast<std::uint64_t>(lvl.ordered.size() - lvl.next + 1);
      lvl.next = lvl.ordered.size();
      --depth;
      continue;
    }
    s.path[static_cast<usize>(depth)] = child.symbol;
    if (depth == m - 1) {
      ++stats.leaves_reached;
      // Stay at this depth; the cursor moves to the next-best sibling.
      leaf(static_cast<double>(child.pd), s.path);
      continue;
    }
    ++depth;
    enter_depth(depth, child.pd);
  }
}

/// Runs `attempt(radius_sq)`, a search of `pre` under that squared radius
/// that returns whether it reached a leaf, first at `radius_sq`, then at
/// each next_radius_sq() while the sphere comes up empty, the radius is
/// bounded and the node budget is not hit. A non-finite R (finite_triangle)
/// is not searched at all; the caller's Babai fallback answers.
template <typename Attempt>
void search_growing_radius(const Preprocessed& pre, double radius_sq,
                           DecodeStats& stats, Attempt&& attempt) {
  if (!finite_triangle(pre.r)) return;
  for (int n = 0;; ++n) {
    if (attempt(radius_sq) || stats.node_budget_hit || std::isinf(radius_sq)) {
      return;
    }
    radius_sq = next_radius_sq(radius_sq, n, stats);
  }
}

}  // namespace sd
