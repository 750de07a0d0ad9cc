// Meta State Table (paper §III-C3, Fig. 5).
//
// The search tree is built dynamically, but dynamic data structures and
// pointer-to-pointer addressing do not map to FPGA fabric. The MST replaces
// them: a level-partitioned node database where every node is an index-linked
// record {parent id, chosen symbol, partial distance}. A node's full symbol
// path — its block of the "tree state matrix" — is recovered by walking
// parent links, which on the FPGA is a partitioned single-cycle BRAM lookup.
//
// It now serves only the FPGA pipeline model, which charges the hardware's
// MST traffic. The CPU searches keep no MST and visit the same nodes in the
// same order: Best-FS (SdGemmDetector) keeps a flat LIFO open list over one
// shared path array (DESIGN.md §3), and the BFS level engine's frontier
// nodes carry their paths as byte rows (DESIGN.md §14).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace sd {

/// Node handle: level in the top 8 bits, slot within the level in the low 24.
using NodeId = std::uint32_t;

/// Sentinel id of the (implicit) root node, which has no symbols decided.
inline constexpr NodeId kRootId = 0xFFFFFFFFu;

/// One tree node record.
struct MstNode {
  NodeId parent = kRootId;  ///< id of the parent (kRootId for depth-0 nodes)
  index_t symbol = 0;       ///< constellation index decided at this level
  real pd = 0;              ///< cumulative partial distance (paper's node value)
};

/// Level-partitioned node store.
class MetaStateTable {
 public:
  /// `levels` = tree depth (M). `capacity_per_level` sizes each partition.
  /// With `fixed_capacity` the table refuses to grow (hardware behaviour,
  /// throwing sd::capacity_error on overflow — a sizing bug on a real board);
  /// otherwise partitions grow and the high-water mark feeds the URAM model.
  MetaStateTable(index_t levels, usize capacity_per_level,
                 bool fixed_capacity = false);

  [[nodiscard]] index_t levels() const noexcept { return levels_; }
  [[nodiscard]] usize capacity_per_level() const noexcept { return capacity_; }

  /// Appends a node at `level` (0 = first detected layer, i.e. antenna M-1).
  /// Returns its id.
  NodeId insert(index_t level, const MstNode& node);

  [[nodiscard]] const MstNode& get(NodeId id) const;

  [[nodiscard]] static index_t level_of(NodeId id) noexcept {
    return static_cast<index_t>(id >> 24);
  }

  /// Nodes currently stored at a level.
  [[nodiscard]] usize level_count(index_t level) const;

  [[nodiscard]] usize total_nodes() const noexcept { return total_; }
  [[nodiscard]] usize peak_level_count() const noexcept { return peak_level_; }

  /// Recovers the symbol path of a node: out[d] = symbol decided at depth d,
  /// for d = 0 .. level_of(id). out must have at least level_of(id)+1 slots.
  void path_symbols(NodeId id, std::span<index_t> out) const;

  /// Clears all partitions (capacity is retained).
  void reset() noexcept;

 private:
  index_t levels_;
  usize capacity_;
  bool fixed_;
  std::vector<std::vector<MstNode>> partitions_;
  usize total_ = 0;
  usize peak_level_ = 0;
};

}  // namespace sd
