#include "decode/parallel_sd.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <numeric>
#include <thread>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/trace.hpp"

namespace sd {

ParallelSdDetector::ParallelSdDetector(const Constellation& constellation,
                                       ParallelSdOptions options)
    : c_(&constellation), opts_(options) {
  SD_CHECK(opts_.split_depth >= 1, "split depth must be at least 1");
  // A finite initial radius could leave every sub-tree empty, and a retry on
  // a grown radius is not worth the synchronization it would need; the
  // first dispatched sub-tree (best prefix) pins the radius fast.
  SD_CHECK(opts_.base.radius_policy == RadiusPolicy::kInfinite,
           "the multi-PE sphere decoder searches from an unbounded radius");
}

void ParallelSdDetector::load_slot(usize si, const CMat& h,
                                   const PreprocessedChannel* prep,
                                   std::span<const cplx> y, double sigma2,
                                   DecodeResult& out) {
  if (wide_slots_.size() <= si) wide_slots_.resize(si + 1);
  WideSlot& slot = wide_slots_[si];
  preprocess_frame(h, prep, y, opts_.base.sorted_qr, prep_, slot.pre);
  slot.sigma2 = sigma2;
  slot.out = &out;
}

void ParallelSdDetector::decode_frame(const CMat& h,
                                      const PreprocessedChannel* prep,
                                      std::span<const cplx> y, double sigma2,
                                      DecodeResult& out) {
  load_slot(0, h, prep, y, sigma2, out);
  search_slots(1);
}

void ParallelSdDetector::decode_wide(std::span<WideItem> items) {
  SD_TRACE_SPAN("decode.wide");
  // A frame whose prep is of another kind joins the fused search too; it is
  // factored from its channel, as decode_with() would.
  usize nslots = 0;
  for (WideItem& it : items) {
    if (it.prep == nullptr || it.out == nullptr) continue;
    it.out->reset();
    load_slot(nslots++, it.prep->channel.matrix(), matching_prep(*it.prep),
              it.y, it.sigma2, *it.out);
  }
  search_slots(nslots);
}

void ParallelSdDetector::search_slots(usize nslots) {
  if (nslots == 0) return;
  SD_TRACE_SPAN("decode.search");
  Timer timer;

  // --- Per-frame sub-tree partition (sequential, so the partition
  // ping-pong buffers are safe).
  usize max_count = 0;
  for (usize si = 0; si < nslots; ++si) {
    WideSlot& slot = wide_slots_[si];
    DecodeStats& stats = slot.out->stats;
    stats.preprocess_seconds = slot.pre.seconds;
    const index_t m = slot.pre.r.rows();
    stats.tree_levels = static_cast<std::uint64_t>(m);
    slot.split = std::min(opts_.split_depth, m - 1);
    // A non-finite R gets no sub-trees; its Babai point answers.
    slot.count = finite_triangle(slot.pre.r)
                     ? partition_prefixes(slot.pre, slot.split,
                                          slot.prefix_flat, slot.prefix_pd,
                                          slot.order, stats)
                     : 0;
    max_count = std::max(max_count, slot.count);
  }

  // --- Deterministic fused work-unit list: round-robin across frames in
  // each frame's best-first rank order, so every frame's most promising
  // sub-trees run first (front-loading radius shrinkage for ALL frames) and
  // the list itself is a pure function of the inputs.
  wide_units_.clear();
  for (usize rank = 0; rank < max_count; ++rank) {
    for (usize si = 0; si < nslots; ++si) {
      if (rank < wide_slots_[si].count) wide_units_.emplace_back(si, rank);
    }
  }

  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned num_threads =
      opts_.num_threads > 0 ? opts_.num_threads : std::max(1u, hw);
  if (workers_.size() < num_threads) workers_.resize(num_threads);

  // Per-(worker, frame) local bests, reduced after the join in worker order
  // — the deterministic reduction. Per-frame shared radii are publication
  // -only (monotone CAS-min), so cross-worker timing can only change how
  // much work is pruned, never which leaf wins: every worker's candidate
  // set is fixed by the static unit assignment, and the global argmin is
  // recovered exactly by the ordered reduction.
  struct SlotBest {
    double pd = std::numeric_limits<double>::infinity();
    std::vector<index_t> path;
    DecodeStats stats;
  };
  std::vector<SlotBest> bests(static_cast<usize>(num_threads) * nslots);
  std::vector<std::atomic<double>> radii(nslots);
  for (std::atomic<double>& radius : radii) {
    radius.store(std::numeric_limits<double>::infinity(),
                 std::memory_order_relaxed);
  }

  auto worker = [&](unsigned wi) {
    SD_TRACE_SPAN("psd.worker");
    DfsScratch& pe = workers_[wi];
    // STATIC assignment: unit j -> worker j mod num_threads, so each
    // worker's work list — and therefore its local best — is independent
    // of scheduling.
    for (usize j = wi; j < wide_units_.size();
         j += static_cast<usize>(num_threads)) {
      const usize si = wide_units_[j].first;
      const WideSlot& slot = wide_slots_[si];
      SlotBest& best = bests[static_cast<usize>(wi) * nslots + si];
      std::atomic<double>& radius_sq = radii[si];
      // The node budget holds per (worker, frame).
      if (best.stats.node_budget_hit) continue;

      const usize subtree = slot.order[wide_units_[j].second];
      const real subtree_pd = slot.prefix_pd[subtree];
      if (!(static_cast<double>(subtree_pd) <
            radius_sq.load(std::memory_order_relaxed))) {
        ++best.stats.nodes_pruned;
        continue;
      }
      pe.begin(slot.pre.r.rows());
      const index_t* prefix =
          slot.prefix_flat.data() + subtree * static_cast<usize>(slot.split);
      std::copy(prefix, prefix + slot.split, pe.path.begin());
      dfs_search(
          slot.pre, *c_, slot.split, subtree_pd, opts_.base.max_nodes, pe,
          best.stats,
          [&] { return radius_sq.load(std::memory_order_relaxed); },
          [&](double pd, const std::vector<index_t>& path) {
            if (!(pd < best.pd)) return;
            best.pd = pd;
            best.path = path;
            // The synchronization step of [4]: lock-free monotone-min
            // publication of this frame's radius. The answer lives in
            // per-worker locals, so the CAS-min loop is the whole
            // synchronization. The stored sequence is non-increasing per
            // worker and the CAS only ever replaces a value with a smaller
            // one, so a tighter radius is never overwritten by a looser one,
            // and a stale (larger) radius read admits extra work but never
            // wrong results. Regression coverage:
            // ParallelSd.RadiusPublicationUnderContention, under TSan in CI.
            double cur = radius_sq.load(std::memory_order_relaxed);
            while (pd < cur && !radius_sq.compare_exchange_weak(
                                   cur, pd, std::memory_order_relaxed)) {
            }
            ++best.stats.radius_updates;
          });
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(num_threads);
  for (unsigned t = 0; t < num_threads; ++t) pool.emplace_back(worker, t);
  for (auto& t : pool) t.join();

  // --- Deterministic reduction: per frame, fold worker-local bests in
  // worker order 0..W-1 with a strict '<'. The set of (pd, path) candidates
  // per worker is schedule-independent (static assignment + publication-only
  // radii), so the winner — and thus indices and metric — is the same for
  // any worker count, unless a worker spends its node budget on the frame:
  // where it stops depends on how fast the radius shrank. A frame with no
  // leaf (a NaN PD everywhere, or every worker out of budget first)
  // answers with its Babai point.
  const double wall = timer.elapsed_seconds();
  for (usize si = 0; si < nslots; ++si) {
    WideSlot& slot = wide_slots_[si];
    DecodeResult& out = *slot.out;
    SlotBest* winner = nullptr;
    for (unsigned wi = 0; wi < num_threads; ++wi) {
      SlotBest& b = bests[static_cast<usize>(wi) * nslots + si];
      out.stats.nodes_expanded += b.stats.nodes_expanded;
      out.stats.nodes_generated += b.stats.nodes_generated;
      out.stats.nodes_pruned += b.stats.nodes_pruned;
      out.stats.leaves_reached += b.stats.leaves_reached;
      out.stats.radius_updates += b.stats.radius_updates;
      out.stats.node_budget_hit |= b.stats.node_budget_hit;
      if (winner == nullptr || b.pd < winner->pd) winner = &b;
    }
    if (winner->path.empty()) {
      // No worker kept a leaf, so worker 0's entry is free for the Babai
      // point.
      winner->path.resize(static_cast<usize>(slot.pre.r.rows()));
      winner->pd = babai_point(slot.pre, *c_, winner->path);
    }
    path_to_antenna_order(slot.pre, winner->path, layered_, out.indices);
    out.metric = winner->pd;
    // Frames finish together at the join, so each is charged the fused wall
    // time; the dispatch layer amortizes the shared service across the run.
    out.stats.search_seconds = wall;
    materialize_symbols(*c_, out);
    slot.out = nullptr;
  }
}

usize ParallelSdDetector::partition_prefixes(const Preprocessed& pre,
                                             index_t split,
                                             std::vector<index_t>& flat,
                                             std::vector<real>& pd,
                                             std::vector<usize>& order,
                                             DecodeStats& stats) {
  const index_t m = pre.r.rows();
  const index_t p = c_->order();

  // Partitioning phase (the "offline" step in [4]): enumerate all prefixes
  // down to the split depth with their PDs. Prefixes are stored flat —
  // depth-d prefixes occupy rows of width d in `flat` — so the whole phase
  // recycles detector-owned buffers instead of allocating one vector per
  // sub-tree. The `_next_` members serve as ping-pong scratch; the swap
  // dance always leaves the final generation in the caller's buffers.
  std::vector<index_t>& cur = flat;
  std::vector<index_t>& nxt = prefix_flat_next_;
  std::vector<real>& cur_pd = pd;
  std::vector<real>& nxt_pd = prefix_pd_next_;
  cur.clear();
  cur_pd.assign(1, real{0});  // the root: one empty prefix, PD 0
  usize count = 1;
  for (index_t depth = 0; depth < split; ++depth) {
    const index_t a = m - 1 - depth;
    const usize width = static_cast<usize>(depth);  // current prefix length
    nxt.resize(count * static_cast<usize>(p) * (width + 1));
    nxt_pd.resize(count * static_cast<usize>(p));
    for (usize si = 0; si < count; ++si) {
      const index_t* prefix = cur.data() + si * width;
      cplx interference{0, 0};
      for (index_t t = 1; t <= depth; ++t) {
        interference +=
            pre.r(a, a + t) *
            c_->point(prefix[static_cast<usize>(depth - t)]);
      }
      const cplx b = pre.ybar[static_cast<usize>(a)] - interference;
      for (index_t sym = 0; sym < p; ++sym) {
        const usize ci = si * static_cast<usize>(p) + static_cast<usize>(sym);
        index_t* dst = nxt.data() + ci * (width + 1);
        std::copy(prefix, prefix + width, dst);
        dst[width] = sym;
        nxt_pd[ci] =
            cur_pd[si] + norm2(b - pre.r(a, a) * c_->point(sym));
      }
      stats.nodes_generated += static_cast<std::uint64_t>(p);
      ++stats.nodes_expanded;
    }
    cur.swap(nxt);
    cur_pd.swap(nxt_pd);
    count *= static_cast<usize>(p);
  }
  // Best-first dispatch order: promising sub-trees shrink the radius early.
  order.resize(count);
  std::iota(order.begin(), order.end(), usize{0});
  std::sort(order.begin(), order.end(),
            [&](usize x, usize y2) { return cur_pd[x] < cur_pd[y2]; });
  return count;
}

}  // namespace sd
