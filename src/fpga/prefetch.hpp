// Pre-fetching / double-buffering unit model (paper §III-C2).
//
// The SD tree traversal makes irregular accesses into the channel matrix and
// tree-state storage: which block is needed depends on the node being
// processed. The paper's unit pre-computes addresses from (level, node)
// information and stages operands into ping-pong buffers so the GEMM engine
// always reads single-cycle BRAM. In the cycle model this means a staging
// fetch can hide behind the previous expansion's compute: only the part that
// exceeds the available overlap budget lands on the critical path.
#pragma once

#include <cstdint>

#include "fpga/memory_bank.hpp"

namespace sd {

class PrefetchUnit {
 public:
  /// `enabled` = optimized design (double buffering); the baseline design
  /// fetches on demand and always exposes the full source latency.
  explicit PrefetchUnit(bool enabled) noexcept : enabled_(enabled) {}

  /// Stages `bytes` of operands from `source` for the next expansion.
  /// `overlap_budget` is the compute time (cycles) of the expansion this
  /// fetch can hide behind. Returns the cycles exposed on the critical path.
  /// The bank is an argument, not a member, so a copied pipeline reads its
  /// own bank.
  std::uint64_t stage(MemoryBank& source, usize bytes,
                      std::uint64_t overlap_budget) noexcept {
    const std::uint64_t fetch = source.read(bytes);
    ++fetches_;
    if (!enabled_) {
      exposed_ += fetch;
      return fetch;
    }
    const std::uint64_t hidden = std::min(fetch, overlap_budget);
    hidden_ += hidden;
    const std::uint64_t exposed = fetch - hidden;
    exposed_ += exposed;
    return exposed;
  }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] std::uint64_t fetches() const noexcept { return fetches_; }
  [[nodiscard]] std::uint64_t hidden_cycles() const noexcept { return hidden_; }
  [[nodiscard]] std::uint64_t exposed_cycles() const noexcept { return exposed_; }

  void reset_counters() noexcept {
    fetches_ = 0;
    hidden_ = 0;
    exposed_ = 0;
  }

 private:
  bool enabled_;
  std::uint64_t fetches_ = 0;
  std::uint64_t hidden_ = 0;
  std::uint64_t exposed_ = 0;
};

}  // namespace sd
