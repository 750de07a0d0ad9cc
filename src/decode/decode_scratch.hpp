// Per-detector reusable search scratch.
//
// The tree-search decoders used to heap-construct their working state — the
// level GEMM operands (a_block / s_mat / z), the frontier and open-list
// vectors, the search tree, and the preprocessing factorization — fresh on
// every decode() and, for the matrices, on every tree level. At serving
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
// Best-FS keeps no search tree: its open list is a flat LIFO array of
// {pd, depth, symbol} entries, and a popped entry writes its symbol into
// the one shared path (DESIGN.md §3). The Meta State Table serves only the
// FPGA pipeline model.
//
// Ownership/threading: a DecodeScratch — and therefore a detector holding
// one — is single-threaded state. The serve/dispatch runtimes already clone
// one detector per lane; tests/test_decode_scratch.cpp exercises concurrent
// clones under TSan.
#pragma once

#include <cstdint>
#include <vector>

#include "decode/sphere_common.hpp"
#include "linalg/gemm.hpp"
#include "linalg/matrix.hpp"

namespace sd {

/// Best-FS open-list entry: a child's PD, its depth and its symbol. The
/// rest of its path is the shared path's prefix, which LIFO order keeps
/// intact until the entry is popped.
struct BestFsNode {
  real pd;
  std::uint16_t depth;
  std::uint8_t symbol;
};

/// A freshly generated child that survived the radius test.
struct ScratchChild {
  index_t symbol;
  real pd;
};

struct DecodeScratch {
  // Preprocessing: recycled QR factorization + the Preprocessed it fills.
  PreprocessScratch prep;
  Preprocessed pre;

  // Level product: one row-0 table per tree level and one parent's row 0
  // of the product, or the paper's full-block GEMM operands and the kernel
  // pack workspace (LevelGemm::kFull).
  std::vector<Row0Table> tables;
  CVec z_row;
  CMat a_block;
  CMat s_mat;
  CMat z;
  GemmWorkspace gemm_ws;

  // Tree traversal state.
  std::vector<BestFsNode> open;          ///< Best-FS LIFO open list
  std::vector<ScratchChild> children;    ///< one expansion's survivors
  std::vector<std::uint64_t> expansions; ///< Best-FS expansions per depth
  std::vector<std::uint8_t> path;        ///< Best-FS symbol per depth
  std::vector<index_t> best_path;
  std::vector<index_t> layered;
};

}  // namespace sd
