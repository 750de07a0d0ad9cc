#include "decode/ml.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/timer.hpp"

namespace sd {

void MlDetector::decode_frame(const CMat& h,
                              const PreprocessedChannel* /*prep*/,
                              std::span<const cplx> y, double /*sigma2*/,
                              DecodeResult& result) {
  const index_t m = h.cols();
  const index_t n = h.rows();
  SD_CHECK(n == static_cast<index_t>(y.size()), "y length mismatch");
  const index_t order = c_->order();

  const double log_candidates =
      static_cast<double>(m) * std::log2(static_cast<double>(order));
  SD_CHECK(log_candidates <= 26.0,
           "ML search space too large; use a sphere decoder");
  std::uint64_t total = 1;
  for (index_t j = 0; j < m; ++j) total *= static_cast<std::uint64_t>(order);

  result.indices.assign(static_cast<usize>(m), 0);
  Timer timer;

  std::vector<index_t>& current = current_;
  current.assign(static_cast<usize>(m), 0);
  // All accumulation runs in double precision: the mixed-radix walk updates
  // H*s incrementally up to |Omega|^M times, and single-precision drift over
  // millions of updates is enough to misrank near-tied candidates.
  std::vector<cplxd>& hs = hs_;
  hs.resize(static_cast<usize>(n));
  // Incremental candidate update: start from all-zero indices, then walk the
  // mixed-radix counter, adjusting H*s by the single column that changed.
  for (index_t i = 0; i < n; ++i) {
    cplxd acc{0, 0};
    for (index_t j = 0; j < m; ++j) {
      acc += static_cast<cplxd>(h(i, j)) * static_cast<cplxd>(c_->point(0));
    }
    hs[static_cast<usize>(i)] = acc;
  }

  double best = std::numeric_limits<double>::infinity();
  for (std::uint64_t iter = 0;; ++iter) {
    double metric = 0.0;
    for (index_t i = 0; i < n; ++i) {
      const cplxd diff =
          static_cast<cplxd>(y[static_cast<usize>(i)]) - hs[static_cast<usize>(i)];
      metric += diff.real() * diff.real() + diff.imag() * diff.imag();
    }
    ++result.stats.leaves_reached;
    if (metric < best) {
      best = metric;
      result.indices = current;
      ++result.stats.radius_updates;
    }
    if (iter + 1 == total) break;

    // Advance the mixed-radix counter; update hs by the changed columns.
    index_t digit = 0;
    while (true) {
      const index_t old_sym = current[static_cast<usize>(digit)];
      const index_t new_sym = (old_sym + 1 == order) ? 0 : old_sym + 1;
      current[static_cast<usize>(digit)] = new_sym;
      const cplxd delta = static_cast<cplxd>(c_->point(new_sym)) -
                          static_cast<cplxd>(c_->point(old_sym));
      for (index_t i = 0; i < n; ++i) {
        hs[static_cast<usize>(i)] += static_cast<cplxd>(h(i, digit)) * delta;
      }
      if (new_sym != 0) break;
      ++digit;  // carried
      SD_ASSERT(digit < m);
    }
  }

  result.stats.search_seconds = timer.elapsed_seconds();
  result.metric = best;
  materialize_symbols(*c_, result);
}

}  // namespace sd
