// Per-detector reusable search scratch.
//
// The tree-search decoders used to heap-construct their working state — the
// level GEMM operands (a_block / s_mat / z), the frontier and open-list
// vectors, the Meta State Table, and the preprocessing factorization — fresh
// on every decode() and, for the matrices, on every tree level. At serving
// rates (src/serve, src/dispatch) that allocator traffic dominated the short
// decodes. DecodeScratch gathers all of it into one object owned by the
// detector instance: each buffer grows to its high-water mark once and is
// then recycled across levels and across decode_into() calls, making
// steady-state decodes heap-allocation-free (pinned by
// tests/test_alloc_free.cpp).
//
// Reuse changes NO result bits: matrices reshaped via Mat::reshape are fully
// overwritten before being read (the beta == 0 GEMM overwrite contract plus
// explicit zero fills for a_block's lower triangle), and vectors are
// clear()/assign()ed exactly where the old code constructed them.
//
// Ownership/threading: a DecodeScratch — and therefore a detector holding
// one — is single-threaded state. The serve/dispatch runtimes already clone
// one detector per lane; tests/test_decode_scratch.cpp exercises concurrent
// clones under TSan.
#pragma once

#include <optional>
#include <vector>

#include "decode/mst.hpp"
#include "decode/sphere_common.hpp"
#include "linalg/gemm.hpp"
#include "linalg/matrix.hpp"

namespace sd {

/// Best-FS open-list entry: MST node id plus its cached PD (so lazy pruning
/// needs no MST lookup).
struct ScratchNode {
  NodeId id;
  real pd;
};

/// A freshly generated child before it is committed to the MST.
struct ScratchChild {
  index_t symbol;
  real pd;
};

struct DecodeScratch {
  // Preprocessing: recycled QR factorization + the Preprocessed it fills.
  PreprocessScratch prep;
  Preprocessed pre;

  // Level product: the parent's path symbols and row 0 of the product
  // (level_row0), or the paper's full-block GEMM operands and the kernel
  // pack workspace (LevelGemm::kFull).
  CVec above;
  CMat a_block;
  CMat s_mat;
  CMat z;
  GemmWorkspace gemm_ws;

  // Tree traversal state.
  TreeList<ScratchNode> open;         ///< Best-FS open list
  std::vector<ScratchChild> children;
  std::vector<ScratchChild> survivors;
  std::vector<ScratchNode> batch;
  std::vector<index_t> path;
  std::vector<index_t> best_path;
  std::vector<index_t> layered;

  /// The Meta State Table, rebuilt only when the tree shape (level count or
  /// per-level capacity) changes; otherwise the existing table — whose
  /// partitions retain their capacity across reset() — is returned. The
  /// caller still calls reset() per search attempt, exactly as before.
  MetaStateTable& mst(index_t levels, usize capacity_per_level) {
    if (!mst_ || mst_->levels() != levels ||
        mst_->capacity_per_level() != capacity_per_level) {
      mst_.emplace(levels, capacity_per_level);
    }
    return *mst_;
  }

 private:
  std::optional<MetaStateTable> mst_;
};

}  // namespace sd
