#include "decode/fsd.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/timer.hpp"

namespace sd {

FsdDetector::FsdDetector(const Constellation& constellation,
                         FsdOptions options)
    : c_(&constellation), opts_(options) {
  SD_CHECK(opts_.full_levels >= 1, "FSD needs at least one full level");
}

void FsdDetector::decode_frame(const CMat& h,
                               const PreprocessedChannel* prep,
                               std::span<const cplx> y, double /*sigma2*/,
                               DecodeResult& result) {
  preprocess_frame(h, prep, y, opts_.sorted_qr, prep_scratch_, pre_);
  const Preprocessed& pre = pre_;
  result.stats.preprocess_seconds = pre.seconds;

  const index_t m = pre.r.rows();
  const index_t p = c_->order();
  const index_t full = std::min(opts_.full_levels, m);
  result.stats.tree_levels = static_cast<std::uint64_t>(m);

  Timer timer;

  std::uint64_t num_paths = 1;
  for (index_t i = 0; i < full; ++i) num_paths *= static_cast<std::uint64_t>(p);
  SD_CHECK(num_paths <= (1ull << 24), "FSD full-expansion too large");

  std::vector<index_t>& path = path_;
  std::vector<index_t>& best_path = best_path_;
  path.assign(static_cast<usize>(m), 0);
  best_path.clear();
  double best_pd = std::numeric_limits<double>::infinity();

  for (std::uint64_t pi = 0; pi < num_paths; ++pi) {
    // Decode the path id into the fully-enumerated top levels.
    std::uint64_t rem = pi;
    for (index_t d = 0; d < full; ++d) {
      path[static_cast<usize>(d)] = static_cast<index_t>(rem % p);
      rem /= static_cast<std::uint64_t>(p);
    }
    double pd = 0.0;
    // Top levels: charged as generated nodes.
    for (index_t d = 0; d < m; ++d) {
      const index_t a = m - 1 - d;
      cplx acc{0, 0};
      for (index_t t = 1; t <= d; ++t) {
        acc += pre.r(a, a + t) * c_->point(path[static_cast<usize>(d - t)]);
      }
      const cplx b = pre.ybar[static_cast<usize>(a)] - acc;
      if (d >= full) {
        // SIC tail: single sliced child.
        path[static_cast<usize>(d)] = c_->slice(b / pre.r(a, a));
      }
      pd += norm2(b - pre.r(a, a) * c_->point(path[static_cast<usize>(d)]));
      ++result.stats.nodes_generated;
    }
    ++result.stats.leaves_reached;
    if (pd < best_pd) {
      best_pd = pd;
      best_path = path;
      ++result.stats.radius_updates;
    }
  }
  result.stats.nodes_expanded = num_paths;
  // No PD compared below +inf (non-finite input): answer like every tree
  // search that reaches no leaf.
  if (best_path.empty()) {
    best_path.resize(static_cast<usize>(m));
    best_pd = babai_point(pre, *c_, best_path);
  }

  path_to_antenna_order(pre, best_path, layered_, result.indices);
  result.metric = best_pd;
  result.stats.search_seconds = timer.elapsed_seconds();
  materialize_symbols(*c_, result);
}

}  // namespace sd
