#include "decode/parallel_sd.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
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
  // A finite initial radius could leave every sub-tree empty, and the
  // retry-with-larger-radius dance is not worth the synchronization cost
  // here; the first dispatched sub-tree (best prefix) pins the radius fast.
  opts_.base.radius_policy = RadiusPolicy::kInfinite;
}

DecodeResult ParallelSdDetector::decode(const CMat& h, std::span<const cplx> y,
                                        double sigma2) {
  DecodeResult result;
  decode_into(h, y, sigma2, result);
  return result;
}

void ParallelSdDetector::decode_into(const CMat& h, std::span<const cplx> y,
                                     double sigma2, DecodeResult& out) {
  SD_TRACE_SPAN("decode");
  out.reset();
  preprocess_into(h, y, opts_.base.sorted_qr, scratch_.prep, scratch_.pre);
  out.stats.preprocess_seconds = scratch_.pre.seconds;
  search(scratch_.pre, sigma2, out);
  materialize_symbols(*c_, out);
}

void ParallelSdDetector::decode_with(const PreprocessedChannel& prep,
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

void ParallelSdDetector::decode_wide(std::span<WideItem> items) {
  // Items whose prep kind doesn't match ours can't join the fused partition;
  // they take the same per-frame fallback decode_with applies. With fewer
  // than two fusable frames there is nothing to fuse either.
  usize fusable = 0;
  for (const WideItem& it : items) {
    if (it.prep != nullptr && it.out != nullptr &&
        it.prep->kind == prep_kind()) {
      ++fusable;
    }
  }
  if (fusable <= 1) {
    for (WideItem& it : items) {
      if (it.prep != nullptr && it.out != nullptr) {
        decode_with(*it.prep, it.y, it.sigma2, *it.out);
      }
    }
    return;
  }

  SD_TRACE_SPAN("decode.wide");
  Timer timer;

  // --- Per-frame preprocessing + sub-tree partition (sequential, so the
  // shared PreprocessScratch and the partition ping-pong buffers are safe).
  if (wide_slots_.size() < fusable) wide_slots_.resize(fusable);
  usize nslots = 0;
  usize max_count = 0;
  for (WideItem& it : items) {
    if (it.prep == nullptr || it.out == nullptr) continue;
    if (it.prep->kind != prep_kind()) {
      decode_with(*it.prep, it.y, it.sigma2, *it.out);
      continue;
    }
    WideSlot& slot = wide_slots_[nslots++];
    slot.sigma2 = it.sigma2;
    slot.out = it.out;
    it.out->reset();
    preprocess_with_channel(*it.prep, it.y, scratch_.prep, slot.pre);
    it.out->stats.preprocess_seconds = slot.pre.seconds;
    const index_t m = slot.pre.r.rows();
    it.out->stats.tree_levels = static_cast<std::uint64_t>(m);
    slot.split = std::min(opts_.split_depth, m - 1);
    slot.count = partition_prefixes(slot.pre, slot.split, slot.prefix_flat,
                                    slot.prefix_pd, slot.order,
                                    it.out->stats);
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
  for (usize si = 0; si < nslots; ++si) {
    radii[si].store(initial_radius_sq(opts_.base, wide_slots_[si].sigma2,
                                      wide_slots_[si].pre.r.rows()),
                    std::memory_order_relaxed);
  }

  auto worker = [&](unsigned wi) {
    SD_TRACE_SPAN("psd.wide_worker");
    PeScratch& pe = workers_[wi];
    // STATIC assignment: unit j -> worker j mod num_threads. Unlike the
    // fetch_add dispatch in search(), this makes each worker's work list —
    // and therefore its local best — independent of scheduling.
    for (usize j = wi; j < wide_units_.size();
         j += static_cast<usize>(num_threads)) {
      const usize si = wide_units_[j].first;
      const usize rank = wide_units_[j].second;
      WideSlot& slot = wide_slots_[si];
      SlotBest& best = bests[static_cast<usize>(wi) * nslots + si];
      std::atomic<double>& radius_sq = radii[si];
      const Preprocessed& pre = slot.pre;
      const index_t m = pre.r.rows();
      const index_t p = c_->order();
      const index_t split = slot.split;
      const usize stride = static_cast<usize>(split);
      DecodeStats& local = best.stats;

      std::vector<index_t>& path = pe.path;
      path.assign(static_cast<usize>(m), 0);
      if (pe.levels.size() < static_cast<usize>(m)) {
        pe.levels.resize(static_cast<usize>(m));
      }

      auto enter_depth = [&](index_t d, real parent_pd) {
        const index_t a = m - 1 - d;
        ++local.nodes_expanded;
        local.nodes_generated += static_cast<std::uint64_t>(p);
        cplx interference{0, 0};
        for (index_t t = 1; t <= d; ++t) {
          interference +=
              pre.r(a, a + t) * c_->point(path[static_cast<usize>(d - t)]);
        }
        const cplx b = pre.ybar[static_cast<usize>(a)] - interference;
        PeScratch::Level& lvl = pe.levels[static_cast<usize>(d)];
        lvl.ordered.clear();
        lvl.next = 0;
        for (index_t sym = 0; sym < p; ++sym) {
          lvl.ordered.push_back(ScratchChild{
              sym, parent_pd + norm2(b - pre.r(a, a) * c_->point(sym))});
        }
        std::sort(lvl.ordered.begin(), lvl.ordered.end(),
                  [](const ScratchChild& x, const ScratchChild& y2) {
                    return x.pd < y2.pd;
                  });
      };

      const usize subtree = slot.order[rank];
      const real subtree_pd = slot.prefix_pd[subtree];
      if (static_cast<double>(subtree_pd) >=
          radius_sq.load(std::memory_order_relaxed)) {
        ++local.nodes_pruned;
        continue;
      }
      const index_t* prefix = slot.prefix_flat.data() + subtree * stride;
      std::copy(prefix, prefix + stride, path.begin());

      index_t depth = split;
      enter_depth(depth, subtree_pd);
      while (depth >= split) {
        PeScratch::Level& lvl = pe.levels[static_cast<usize>(depth)];
        if (lvl.next >= lvl.ordered.size()) {
          --depth;
          continue;
        }
        const ScratchChild child = lvl.ordered[lvl.next++];
        if (static_cast<double>(child.pd) >=
            radius_sq.load(std::memory_order_relaxed)) {
          local.nodes_pruned +=
              static_cast<std::uint64_t>(lvl.ordered.size() - lvl.next + 1);
          lvl.next = lvl.ordered.size();
          --depth;
          continue;
        }
        path[static_cast<usize>(depth)] = child.symbol;
        if (depth == m - 1) {
          ++local.leaves_reached;
          if (static_cast<double>(child.pd) < best.pd) {
            best.pd = static_cast<double>(child.pd);
            best.path = path;
            // Lock-free monotone-min publication of this frame's radius.
            // Unlike search() there is no shared best_path to protect — the
            // answer lives in per-worker locals — so a CAS-min loop is the
            // whole synchronization. The same shrink-safety argument as in
            // search() applies: the stored sequence is non-increasing per
            // worker and the CAS only ever replaces a value with a smaller
            // one, so a tighter radius is never overwritten by a looser one,
            // and a stale (larger) radius read admits extra work but never
            // wrong results.
            double cur = radius_sq.load(std::memory_order_relaxed);
            while (best.pd < cur &&
                   !radius_sq.compare_exchange_weak(
                       cur, best.pd, std::memory_order_relaxed)) {
            }
            ++local.radius_updates;
          }
          continue;
        }
        ++depth;
        enter_depth(depth, child.pd);
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(num_threads);
  for (unsigned t = 0; t < num_threads; ++t) pool.emplace_back(worker, t);
  for (auto& t : pool) t.join();

  // --- Deterministic reduction: per frame, fold worker-local bests in
  // worker order 0..W-1 with a strict '<'. The set of (pd, path) candidates
  // per worker is schedule-independent (static assignment + publication-only
  // radii), so the winner — and thus indices and metric — is bit-identical
  // to sequential decode_with for any worker count.
  const double wall = timer.elapsed_seconds();
  for (usize si = 0; si < nslots; ++si) {
    WideSlot& slot = wide_slots_[si];
    DecodeResult& out = *slot.out;
    double best_pd = std::numeric_limits<double>::infinity();
    const std::vector<index_t>* best_path = nullptr;
    for (unsigned wi = 0; wi < num_threads; ++wi) {
      const SlotBest& b = bests[static_cast<usize>(wi) * nslots + si];
      out.stats.nodes_expanded += b.stats.nodes_expanded;
      out.stats.nodes_generated += b.stats.nodes_generated;
      out.stats.nodes_pruned += b.stats.nodes_pruned;
      out.stats.leaves_reached += b.stats.leaves_reached;
      out.stats.radius_updates += b.stats.radius_updates;
      if (b.pd < best_pd) {
        best_pd = b.pd;
        best_path = &b.path;
      }
    }
    SD_ASSERT(best_path != nullptr);  // infinite radius guarantees a leaf

    const index_t m = slot.pre.r.rows();
    std::vector<index_t>& layered = scratch_.layered;
    layered.resize(static_cast<usize>(m));
    for (index_t d = 0; d < m; ++d) {
      layered[static_cast<usize>(m - 1 - d)] =
          (*best_path)[static_cast<usize>(d)];
    }
    to_antenna_order_into(slot.pre, layered, out.indices);
    out.metric = best_pd;
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

void ParallelSdDetector::search(const Preprocessed& pre, double sigma2,
                                DecodeResult& result) {
  SD_TRACE_SPAN("decode.search");
  const index_t m = pre.r.rows();
  const index_t p = c_->order();
  const index_t split = std::min(opts_.split_depth, m - 1);
  result.stats.tree_levels = static_cast<std::uint64_t>(m);

  Timer timer;

  partition_prefixes(pre, split, prefix_flat_, prefix_pd_, subtree_order_,
                     result.stats);
  std::vector<index_t>& cur = prefix_flat_;
  std::vector<real>& cur_pd = prefix_pd_;
  const usize stride = static_cast<usize>(split);

  // --- Shared state across PEs.
  std::atomic<double> radius_sq{initial_radius_sq(opts_.base, sigma2, m)};
  std::mutex best_mutex;
  std::vector<index_t>& best_path = scratch_.best_path;
  best_path.assign(static_cast<usize>(m), 0);
  double best_pd = std::numeric_limits<double>::infinity();
  bool found_leaf = false;
  std::atomic<usize> next_subtree{0};
  DecodeStats shared_stats;  // merged under best_mutex

  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned num_threads =
      opts_.num_threads > 0 ? opts_.num_threads : std::max(1u, hw);
  if (workers_.size() < num_threads) workers_.resize(num_threads);

  auto worker = [&](unsigned wi) {
    SD_TRACE_SPAN("psd.worker");
    DecodeStats local;
    PeScratch& pe = workers_[wi];
    std::vector<index_t>& path = pe.path;
    path.assign(static_cast<usize>(m), 0);
    if (pe.levels.size() < static_cast<usize>(m)) {
      pe.levels.resize(static_cast<usize>(m));
    }

    auto enter_depth = [&](index_t d, real parent_pd) {
      const index_t a = m - 1 - d;
      ++local.nodes_expanded;
      local.nodes_generated += static_cast<std::uint64_t>(p);
      cplx interference{0, 0};
      for (index_t t = 1; t <= d; ++t) {
        interference +=
            pre.r(a, a + t) * c_->point(path[static_cast<usize>(d - t)]);
      }
      const cplx b = pre.ybar[static_cast<usize>(a)] - interference;
      PeScratch::Level& lvl = pe.levels[static_cast<usize>(d)];
      lvl.ordered.clear();
      lvl.next = 0;
      for (index_t sym = 0; sym < p; ++sym) {
        lvl.ordered.push_back(ScratchChild{
            sym, parent_pd + norm2(b - pre.r(a, a) * c_->point(sym))});
      }
      std::sort(lvl.ordered.begin(), lvl.ordered.end(),
                [](const ScratchChild& x, const ScratchChild& y2) {
                  return x.pd < y2.pd;
                });
    };

    while (true) {
      const usize si = next_subtree.fetch_add(1);
      if (si >= subtree_order_.size()) break;
      const usize slot = subtree_order_[si];
      const real subtree_pd = cur_pd[slot];
      if (static_cast<double>(subtree_pd) >=
          radius_sq.load(std::memory_order_relaxed)) {
        ++local.nodes_pruned;
        continue;
      }
      const index_t* prefix = cur.data() + slot * stride;
      std::copy(prefix, prefix + stride, path.begin());

      index_t depth = split;
      enter_depth(depth, subtree_pd);
      while (depth >= split) {
        PeScratch::Level& lvl = pe.levels[static_cast<usize>(depth)];
        if (lvl.next >= lvl.ordered.size()) {
          --depth;
          continue;
        }
        const ScratchChild child = lvl.ordered[lvl.next++];
        if (static_cast<double>(child.pd) >=
            radius_sq.load(std::memory_order_relaxed)) {
          local.nodes_pruned +=
              static_cast<std::uint64_t>(lvl.ordered.size() - lvl.next + 1);
          lvl.next = lvl.ordered.size();
          --depth;
          continue;
        }
        path[static_cast<usize>(depth)] = child.symbol;
        if (depth == m - 1) {
          ++local.leaves_reached;
          // The synchronization step of [4]: publish the improved radius.
          //
          // Shrink-safety audit (this is the spot where a naive
          // `radius_sq.store(child.pd)` outside the lock WOULD lose a
          // concurrent tighter radius and re-admit already-pruned leaves):
          //   1. Every write to radius_sq in this translation unit happens
          //      here, under best_mutex — there is no unlocked store.
          //   2. The store is guarded by `child.pd < best_pd`, and best_pd
          //      is itself only written here under the same mutex, so the
          //      sequence of values stored into radius_sq is strictly
          //      decreasing — a later (mutex-ordered) store can never
          //      overwrite a tighter radius with a looser one. This is the
          //      same monotone-min contract a lock-free CAS-min loop would
          //      provide; the mutex is already required for best_path, so the
          //      CAS loop would be redundant synchronization.
          //   3. The relaxed loads in the pruning tests may observe a stale
          //      (larger) radius. That admits extra work, never wrong
          //      results: best_pd/best_path — the answer — are maintained
          //      exclusively under the mutex, and pruning with any radius
          //      >= the true minimum keeps the optimum reachable.
          // Regression coverage: ParallelSd.RadiusPublicationUnderContention
          // (tests/test_parallel_sd.cpp), which runs under the TSan CI job.
          std::lock_guard<std::mutex> lock(best_mutex);
          if (static_cast<double>(child.pd) < best_pd) {
            best_pd = static_cast<double>(child.pd);
            best_path = path;
            found_leaf = true;
            radius_sq.store(best_pd, std::memory_order_relaxed);
            ++local.radius_updates;
          }
          continue;
        }
        ++depth;
        enter_depth(depth, child.pd);
      }
    }

    std::lock_guard<std::mutex> lock(best_mutex);
    shared_stats.nodes_expanded += local.nodes_expanded;
    shared_stats.nodes_generated += local.nodes_generated;
    shared_stats.nodes_pruned += local.nodes_pruned;
    shared_stats.leaves_reached += local.leaves_reached;
    shared_stats.radius_updates += local.radius_updates;
  };

  std::vector<std::thread> pool;
  pool.reserve(num_threads);
  for (unsigned t = 0; t < num_threads; ++t) pool.emplace_back(worker, t);
  for (auto& t : pool) t.join();

  result.stats.nodes_expanded += shared_stats.nodes_expanded;
  result.stats.nodes_generated += shared_stats.nodes_generated;
  result.stats.nodes_pruned += shared_stats.nodes_pruned;
  result.stats.leaves_reached += shared_stats.leaves_reached;
  result.stats.radius_updates += shared_stats.radius_updates;

  SD_ASSERT(found_leaf);  // infinite initial radius guarantees a leaf

  std::vector<index_t>& layered = scratch_.layered;
  layered.resize(static_cast<usize>(m));
  for (index_t d = 0; d < m; ++d) {
    layered[static_cast<usize>(m - 1 - d)] = best_path[static_cast<usize>(d)];
  }
  to_antenna_order_into(pre, layered, result.indices);
  result.metric = best_pd;
  result.stats.search_seconds = timer.elapsed_seconds();
}

}  // namespace sd
