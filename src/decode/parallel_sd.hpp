// Multi-PE sphere decoding (the paper's §V future-work extension).
//
// The search tree is partitioned at a configurable split depth into
// |Omega|^split_depth nearly independent sub-trees, processed by a pool of
// worker threads ("Processing Entities"). Workers share the sphere radius
// through an atomic so an improvement found in one sub-tree immediately
// prunes the others — the synchronization pattern Nikitopoulos et al. [4]
// identify as the one unavoidable coupling point. Sub-trees are dispatched
// best-first (sorted by their root PD), which front-loads radius shrinkage.
// Each sub-tree runs the shared depth-first search (decode/dfs_search.hpp);
// SdOptions::max_nodes bounds each worker's expansions on each frame.
#pragma once

#include <utility>

#include "decode/detector.hpp"
#include "decode/dfs_search.hpp"
#include "decode/sphere_common.hpp"

namespace sd {

struct ParallelSdOptions {
  SdOptions base = {};
  unsigned num_threads = 0;   ///< 0 = std::thread::hardware_concurrency()
  index_t split_depth = 1;    ///< tree depth at which sub-trees are cut
};

class ParallelSdDetector final : public Detector {
 public:
  /// Refuses a split depth below 1 and any radius policy but the unbounded
  /// one: the sub-trees start on an infinite radius, which the first leaf
  /// of the best-first sub-tree pins.
  explicit ParallelSdDetector(const Constellation& constellation,
                              ParallelSdOptions options = {});

  [[nodiscard]] std::string_view name() const override { return "SD-MultiPE"; }

  /// Channel-split phase: the QR (plain or SQRD per options) is cacheable.
  /// Workers read the shared prep strictly read-only (exercised under TSan
  /// by tests/test_channel_prep.cpp).
  [[nodiscard]] PrepKind prep_kind() const noexcept override {
    return opts_.base.sorted_qr ? PrepKind::kQrSorted : PrepKind::kQrPlain;
  }

  /// Cross-channel wide decode (DESIGN.md §16): every frame's sub-tree
  /// partition is flattened into ONE work-unit list, interleaved round-robin
  /// across frames in each frame's best-first rank order, and assigned
  /// STATICALLY to workers (unit j -> worker j mod W). Each frame keeps its
  /// own shared radius (lock-free monotone CAS-min, publication-only), and
  /// per-(worker, frame) local bests are reduced after the join in worker
  /// order — a deterministic reduction, so the detected indices and metric
  /// are bit-identical to sequential decode_with() for any worker count.
  /// decode(), decode_into() and decode_with() are this search over one
  /// frame.
  void decode_wide(std::span<WideItem> items) override;

 private:
  /// Preprocessing and partition scratch are reused across calls (the
  /// per-decode thread pool itself still allocates).
  void decode_frame(const CMat& h, const PreprocessedChannel* prep,
                    std::span<const cplx> y, double sigma2,
                    DecodeResult& out) override;

  /// Per-frame state of a search: the preprocessed system plus this frame's
  /// flat sub-tree partition. Slots persist across calls so the partition
  /// buffers are recycled.
  struct WideSlot {
    Preprocessed pre;
    std::vector<index_t> prefix_flat;
    std::vector<real> prefix_pd;
    std::vector<usize> order;
    usize count = 0;
    index_t split = 0;
    double sigma2 = 0.0;
    DecodeResult* out = nullptr;
  };

  /// Preprocesses one frame into slot `si` (grown on first use) and binds
  /// its output, which the caller has reset().
  void load_slot(usize si, const CMat& h, const PreprocessedChannel* prep,
                 std::span<const cplx> y, double sigma2, DecodeResult& out);

  /// Partitions, searches and answers the first `nslots` slots, which
  /// load_slot() has filled.
  void search_slots(usize nslots);

  /// Shared partition phase: enumerates the |Omega|^split prefixes of `pre`
  /// into `flat` (count x split, row-major) with PDs in `pd` and the
  /// best-first sort permutation in `order`. Returns the sub-tree count and
  /// accumulates partition-phase node counters into `stats`.
  usize partition_prefixes(const Preprocessed& pre, index_t split,
                           std::vector<index_t>& flat, std::vector<real>& pd,
                           std::vector<usize>& order, DecodeStats& stats);

  const Constellation* c_;
  ParallelSdOptions opts_;
  PreprocessScratch prep_;       ///< recycled QR factorization
  std::vector<index_t> layered_;  ///< answer conversion buffer

  // Partition-phase ping-pong scratch: the final generation always lands in
  // the slot's own buffers.
  std::vector<index_t> prefix_flat_next_;
  std::vector<real> prefix_pd_next_;

  /// Per-worker ("Processing Entity") traversal state. Workers index their
  /// own entry, so each is touched by one thread at a time.
  std::vector<DfsScratch> workers_;

  // Per-frame slots and the interleaved (frame, rank) work units.
  std::vector<WideSlot> wide_slots_;
  std::vector<std::pair<usize, usize>> wide_units_;
};

}  // namespace sd
