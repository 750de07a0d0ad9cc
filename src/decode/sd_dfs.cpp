#include "decode/sd_dfs.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/trace.hpp"

namespace sd {

namespace {

struct Child {
  index_t symbol;
  real pd;  ///< cumulative PD including this child's increment
};

std::uint64_t sort_cost(usize p) noexcept {
  if (p < 2) return 0;
  const auto logp = static_cast<std::uint64_t>(std::bit_width(p - 1));
  return static_cast<std::uint64_t>(p) * logp;
}

}  // namespace

SdDfsDetector::SdDfsDetector(const Constellation& constellation,
                             SdOptions options)
    : c_(&constellation), opts_(options) {}

DecodeResult SdDfsDetector::decode(const CMat& h, std::span<const cplx> y,
                                   double sigma2) {
  SD_TRACE_SPAN("decode");
  DecodeResult result;
  const Preprocessed pre = sd::preprocess(h, y, opts_.sorted_qr);
  result.stats.preprocess_seconds = pre.seconds;
  search(pre, sigma2, result);
  materialize_symbols(*c_, result);
  return result;
}

void SdDfsDetector::search(const Preprocessed& pre, double sigma2,
                           DecodeResult& result) {
  SD_TRACE_SPAN("decode.search");
  const index_t m = pre.r.rows();
  const index_t p = c_->order();
  result.stats.tree_levels = static_cast<std::uint64_t>(m);

  Timer timer;

  // Per-depth traversal state: the SE-ordered children and a cursor.
  struct Level {
    std::vector<Child> ordered;
    usize next = 0;
  };
  std::vector<Level> levels(static_cast<usize>(m));
  for (auto& lvl : levels) lvl.ordered.reserve(static_cast<usize>(p));

  std::vector<index_t> path(static_cast<usize>(m), 0);
  std::vector<index_t> best_path(static_cast<usize>(m), 0);
  double best_pd = std::numeric_limits<double>::infinity();
  bool found_leaf = false;

  double radius_sq = initial_radius_sq(opts_, sigma2, m);

  // Enters depth `d`: evaluates and SE-orders all children of the current
  // path prefix. Returns the parent's cumulative PD for this prefix.
  auto enter_depth = [&](index_t d, real parent_pd) {
    const index_t a = m - 1 - d;
    ++result.stats.nodes_expanded;
    result.stats.nodes_generated += static_cast<std::uint64_t>(p);

    cplx interference{0, 0};
    for (index_t t = 1; t <= d; ++t) {
      interference +=
          pre.r(a, a + t) * c_->point(path[static_cast<usize>(d - t)]);
    }
    const cplx b = pre.ybar[static_cast<usize>(a)] - interference;
    const cplx raa = pre.r(a, a);

    Level& lvl = levels[static_cast<usize>(d)];
    lvl.ordered.clear();
    lvl.next = 0;
    for (index_t sym = 0; sym < p; ++sym) {
      lvl.ordered.push_back(
          Child{sym, parent_pd + norm2(b - raa * c_->point(sym))});
    }
    std::sort(lvl.ordered.begin(), lvl.ordered.end(),
              [](const Child& x, const Child& y2) { return x.pd < y2.pd; });
    result.stats.sort_ops += sort_cost(static_cast<usize>(p));
    result.stats.bytes_touched +=
        sizeof(cplx) * static_cast<std::uint64_t>(m - a);
  };

  for (int attempt = 0;; ++attempt) {
    index_t depth = 0;
    std::vector<real> parent_pd(static_cast<usize>(m), real{0});
    enter_depth(0, real{0});

    while (depth >= 0) {
      if (result.stats.nodes_expanded >= opts_.max_nodes) {
        result.stats.node_budget_hit = true;
        break;
      }
      Level& lvl = levels[static_cast<usize>(depth)];
      if (lvl.next >= lvl.ordered.size()) {
        --depth;  // exhausted: backtrack
        continue;
      }
      const Child child = lvl.ordered[lvl.next++];
      // Keep only pd < radius, as BFS and Best-FS do, so a NaN PD is pruned.
      if (!(static_cast<double>(child.pd) < radius_sq)) {
        // SE ordering: every remaining sibling is at least as bad.
        result.stats.nodes_pruned +=
            static_cast<std::uint64_t>(lvl.ordered.size() - lvl.next + 1);
        lvl.next = lvl.ordered.size();
        --depth;
        continue;
      }
      path[static_cast<usize>(depth)] = child.symbol;
      if (depth == m - 1) {
        ++result.stats.leaves_reached;
        radius_sq = static_cast<double>(child.pd);
        best_pd = radius_sq;
        best_path = path;
        found_leaf = true;
        ++result.stats.radius_updates;
        // Stay at this depth; the cursor moves to the next-best sibling.
        continue;
      }
      parent_pd[static_cast<usize>(depth + 1)] = child.pd;
      ++depth;
      enter_depth(depth, child.pd);
    }

    if (found_leaf || result.stats.node_budget_hit || std::isinf(radius_sq)) {
      break;
    }
    radius_sq = next_radius_sq(radius_sq, attempt, result.stats);
  }

  if (!found_leaf) {
    // Babai fallback, as in the Best-FS decoder.
    double pd = 0.0;
    for (index_t d = 0; d < m; ++d) {
      const index_t a = m - 1 - d;
      cplx acc{0, 0};
      for (index_t t = 1; t <= d; ++t) {
        acc += pre.r(a, a + t) * c_->point(best_path[static_cast<usize>(d - t)]);
      }
      const cplx b = pre.ybar[static_cast<usize>(a)] - acc;
      const index_t sym = c_->slice(b / pre.r(a, a));
      best_path[static_cast<usize>(d)] = sym;
      pd += norm2(b - pre.r(a, a) * c_->point(sym));
    }
    best_pd = pd;
  }

  std::vector<index_t> layered(static_cast<usize>(m));
  for (index_t d = 0; d < m; ++d) {
    layered[static_cast<usize>(m - 1 - d)] = best_path[static_cast<usize>(d)];
  }
  result.indices = to_antenna_order(pre, layered);
  result.metric = best_pd;
  result.stats.search_seconds = timer.elapsed_seconds();
}

}  // namespace sd
