#include "decode/soft_output.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "decode/dfs_search.hpp"

namespace sd {

namespace {

struct Candidate {
  double metric;
  std::vector<index_t> path;  ///< depth-ordered symbols
};

struct CandidateWorse {
  bool operator()(const Candidate& a, const Candidate& b) const {
    return a.metric < b.metric;  // max-heap: worst candidate on top
  }
};

}  // namespace

ListSphereDecoder::ListSphereDecoder(const Constellation& constellation,
                                     ListSdOptions options)
    : c_(&constellation), opts_(options) {
  SD_CHECK(opts_.list_size >= 1, "list size must be at least 1");
  SD_CHECK(opts_.llr_clamp > 0.0, "LLR clamp must be positive");
}

SoftDecodeResult ListSphereDecoder::decode_soft(const CMat& h,
                                                std::span<const cplx> y,
                                                double sigma2) {
  SoftDecodeResult out;
  const Preprocessed pre = sd::preprocess(h, y, opts_.base.sorted_qr);
  out.hard.stats.preprocess_seconds = pre.seconds;

  const index_t m = pre.r.rows();
  out.hard.stats.tree_levels = static_cast<std::uint64_t>(m);
  Timer timer;

  // Bounded candidate list: a max-heap so the worst current member defines
  // the pruning radius once the list is full.
  std::priority_queue<Candidate, std::vector<Candidate>, CandidateWorse> list;
  DfsScratch s;
  s.begin(m);
  search_growing_radius(
      pre, initial_radius_sq(opts_.base, sigma2, m), out.hard.stats,
      [&](double r) {
        dfs_search(
            pre, *c_, 0, real{0}, opts_.base.max_nodes, s, out.hard.stats,
            [&] {
              return list.size() < opts_.list_size ? r : list.top().metric;
            },
            [&](double pd, const std::vector<index_t>& path) {
              list.push(Candidate{pd, path});
              if (list.size() > opts_.list_size) list.pop();
            });
        return !list.empty();
      });

  // Drain the heap into a vector (ascending metric at the end). A search
  // that reached no leaf answers with the Babai point alone.
  std::vector<Candidate> candidates;
  candidates.reserve(list.size());
  while (!list.empty()) {
    candidates.push_back(list.top());
    list.pop();
  }
  std::reverse(candidates.begin(), candidates.end());
  if (candidates.empty()) {
    std::vector<index_t> path(static_cast<usize>(m));
    const double metric = babai_point(pre, *c_, path);
    candidates.push_back(Candidate{metric, std::move(path)});
  }
  out.candidates = candidates.size();

  // Hard output = best candidate, converted to antenna order.
  const Candidate& best = candidates.front();
  std::vector<index_t> layered;
  path_to_antenna_order(pre, best.path, layered, out.hard.indices);
  out.hard.metric = best.metric;
  materialize_symbols(*c_, out.hard);

  // Persist the candidate list (antenna-order bit labels) and derive the
  // max-log LLRs from it; iterative receivers re-use last_ with priors.
  const int bits = c_->bits_per_symbol();
  last_.metrics.clear();
  last_.bits.clear();
  last_.bits_per_vector = static_cast<usize>(m) * static_cast<usize>(bits);
  std::vector<std::uint8_t> bit_buf(static_cast<usize>(bits));
  std::vector<index_t> cand_ant;
  for (const Candidate& cand : candidates) {
    path_to_antenna_order(pre, cand.path, layered, cand_ant);
    std::vector<std::uint8_t> labels(last_.bits_per_vector);
    for (index_t ant = 0; ant < m; ++ant) {
      c_->index_to_bits(cand_ant[static_cast<usize>(ant)], bit_buf);
      for (int b = 0; b < bits; ++b) {
        labels[static_cast<usize>(ant) * static_cast<usize>(bits) +
               static_cast<usize>(b)] = bit_buf[static_cast<usize>(b)];
      }
    }
    last_.metrics.push_back(cand.metric);
    last_.bits.push_back(std::move(labels));
  }
  out.llrs = llrs_from_list({}, sigma2);

  out.hard.stats.search_seconds = timer.elapsed_seconds();
  return out;
}

std::vector<double> ListSphereDecoder::llrs_from_list(
    std::span<const double> priors, double sigma2) const {
  SD_CHECK(!last_.metrics.empty(), "no candidate list: call decode_soft first");
  SD_CHECK(priors.empty() || priors.size() == last_.bits_per_vector,
           "prior length must match bits per vector");
  std::vector<double> llrs(last_.bits_per_vector, 0.0);

  // Candidate cost under priors: Euclidean term plus the a-priori bit costs
  // (half-scale convention: cost(b) = b ? +L/2 : -L/2).
  std::vector<double> cost(last_.metrics.size());
  for (usize ci = 0; ci < last_.metrics.size(); ++ci) {
    double acc = last_.metrics[ci] / sigma2;
    if (!priors.empty()) {
      for (usize b = 0; b < last_.bits_per_vector; ++b) {
        const double half = priors[b] * 0.5;
        acc += last_.bits[ci][b] ? half : -half;
      }
    }
    cost[ci] = acc;
  }

  for (usize b = 0; b < last_.bits_per_vector; ++b) {
    double best0 = std::numeric_limits<double>::infinity();
    double best1 = std::numeric_limits<double>::infinity();
    for (usize ci = 0; ci < cost.size(); ++ci) {
      if (last_.bits[ci][b] == 0) {
        best0 = std::min(best0, cost[ci]);
      } else {
        best1 = std::min(best1, cost[ci]);
      }
    }
    // Clamp the *extrinsic* part (what the list adds beyond the prior):
    // clamping the a-posteriori directly would let a strong prior flip the
    // sign of (LLR - prior) in iterative receivers.
    const double prior = priors.empty() ? 0.0 : priors[b];
    double extrinsic;
    if (!std::isfinite(best0)) {
      extrinsic = -opts_.llr_clamp;
    } else if (!std::isfinite(best1)) {
      extrinsic = opts_.llr_clamp;
    } else {
      extrinsic = std::clamp(best1 - best0 - prior, -opts_.llr_clamp,
                             opts_.llr_clamp);
    }
    llrs[b] = prior + extrinsic;
  }
  return llrs;
}

}  // namespace sd
