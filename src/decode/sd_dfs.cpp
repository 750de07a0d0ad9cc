#include "decode/sd_dfs.hpp"

#include <bit>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/trace.hpp"

namespace sd {

namespace {

/// Comparisons charged for SE-ordering p children: p·⌈log2 p⌉.
std::uint64_t sort_cost(index_t p) noexcept {
  if (p < 2) return 0;
  const auto logp =
      static_cast<std::uint64_t>(std::bit_width(static_cast<usize>(p - 1)));
  return static_cast<std::uint64_t>(p) * logp;
}

}  // namespace

SdDfsDetector::SdDfsDetector(const Constellation& constellation,
                             SdOptions options)
    : c_(&constellation), opts_(options) {}

void SdDfsDetector::decode_frame(const CMat& h,
                                 const PreprocessedChannel* prep,
                                 std::span<const cplx> y, double sigma2,
                                 DecodeResult& out) {
  preprocess_frame(h, prep, y, opts_.sorted_qr, prep_scratch_, pre_);
  out.stats.preprocess_seconds = pre_.seconds;
  search(sigma2, out);
  materialize_symbols(*c_, out);
}

void SdDfsDetector::search(double sigma2, DecodeResult& result) {
  SD_TRACE_SPAN("decode.search");
  const Preprocessed& pre = pre_;
  const index_t m = pre.r.rows();
  const index_t p = c_->order();
  result.stats.tree_levels = static_cast<std::uint64_t>(m);

  Timer timer;
  DfsScratch& s = dfs_;
  s.begin(m);
  std::vector<index_t>& best_path = best_path_;
  best_path.assign(static_cast<usize>(m), 0);
  double best_pd = std::numeric_limits<double>::infinity();
  const std::uint64_t expanded = result.stats.nodes_expanded;

  bool found_leaf = false;
  double radius_sq = 0.0;
  search_growing_radius(
      pre, initial_radius_sq(opts_, sigma2, m), result.stats, [&](double r) {
        radius_sq = r;
        dfs_search(
            pre, *c_, 0, real{0}, opts_.max_nodes, s, result.stats,
            [&] { return radius_sq; },
            [&](double pd, const std::vector<index_t>& path) {
              radius_sq = pd;
              best_pd = pd;
              best_path = path;
              found_leaf = true;
              ++result.stats.radius_updates;
            });
        return found_leaf;
      });
  if (!found_leaf) best_pd = babai_point(pre, *c_, best_path);

  // The scalar form's accounting: each expansion sorts p children and reads
  // its R row from the diagonal on (depth + 1 entries).
  result.stats.sort_ops +=
      (result.stats.nodes_expanded - expanded) * sort_cost(p);
  for (usize depth = 0; depth < s.expansions.size(); ++depth) {
    result.stats.bytes_touched += s.expansions[depth] * sizeof(cplx) *
                                  static_cast<std::uint64_t>(depth + 1);
  }

  path_to_antenna_order(pre, best_path, layered_, result.indices);
  result.metric = best_pd;
  result.stats.search_seconds = timer.elapsed_seconds();
}

}  // namespace sd
