// GemmWorkspace: reusable packing/accumulation scratch for the GEMM kernels.
//
// The packed kernels stream both operands through small panel buffers.
// Allocating those buffers inside every gemm_packed call — as the original
// implementation did — puts two heap round-trips on the decoder's innermost
// hot path, which the serve/dispatch layers traverse millions of times per
// soak. A GemmWorkspace owns those buffers and recycles them: every request
// is served from the high-water-mark capacity, so a warmed workspace makes
// the kernels allocation-free.
//
// Threading model: a workspace is NOT thread-safe; each thread uses its own.
// Call sites that do not thread one through explicitly (the overloads without
// a workspace parameter) fall back to a thread-local default instance, so
// concurrent decoders on different threads never contend or share buffers.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace sd::obs {
class CounterRegistry;
}

namespace sd {

/// Allocation/usage accounting of one workspace. `grow_events` counts the
/// requests that had to enlarge a buffer (zero in steady state), and
/// `bytes_reserved` the current high-water capacity across all buffers.
struct GemmWorkspaceStats {
  std::uint64_t acquires = 0;     ///< buffer requests served
  std::uint64_t grow_events = 0;  ///< requests that enlarged a buffer
  std::uint64_t bytes_reserved = 0;  ///< current capacity across buffers
};

class GemmWorkspace {
 public:
  /// Packed-A / packed-B panel buffers of the scalar (interleaved) kernel.
  [[nodiscard]] std::span<cplx> a_pack(usize n) { return ensure(a_pack_, n); }
  [[nodiscard]] std::span<cplx> b_pack(usize n) { return ensure(b_pack_, n); }

  /// Split-complex panel planes of the SoA kernel. A request of n elements
  /// returns 2*n floats: the real plane in [0, n), the imag plane in [n, 2n).
  [[nodiscard]] std::span<real> a_planes(usize n) {
    return ensure(a_planes_, 2 * n);
  }
  [[nodiscard]] std::span<real> b_planes(usize n) {
    return ensure(b_planes_, 2 * n);
  }

  /// Column accumulator of the conjugate-transpose gemv path.
  [[nodiscard]] std::span<cplx> gemv_acc(usize n) { return ensure(acc_, n); }

  /// Split-complex accumulators of the real-arithmetic gemv / Gram
  /// kernels: 2*n floats, the real plane in [0, n), the imag plane in
  /// [n, 2n).
  [[nodiscard]] std::span<real> acc_planes(usize n) {
    return ensure(acc_planes_, 2 * n);
  }

  [[nodiscard]] const GemmWorkspaceStats& stats() const noexcept {
    return stats_;
  }
  void reset_stats() noexcept {
    stats_.acquires = 0;
    stats_.grow_events = 0;
  }

  /// Pours a stats snapshot into the unified counter registry under
  /// "<prefix>.<counter>" names (e.g. "gemm.workspace.grow_events").
  void export_counters(obs::CounterRegistry& registry,
                       std::string_view prefix = "gemm.workspace") const;

  /// The calling thread's default workspace — what the workspace-less GEMM
  /// overloads use. One instance per thread, created on first use.
  [[nodiscard]] static GemmWorkspace& thread_local_instance();

 private:
  template <typename T>
  [[nodiscard]] std::span<T> ensure(std::vector<T>& v, usize n) {
    ++stats_.acquires;
    if (v.size() < n) {
      const usize old_cap = v.capacity();
      v.resize(n);
      if (v.capacity() != old_cap) {
        ++stats_.grow_events;
        stats_.bytes_reserved += (v.capacity() - old_cap) * sizeof(T);
      }
    }
    return {v.data(), n};
  }

  std::vector<cplx> a_pack_;
  std::vector<cplx> b_pack_;
  std::vector<cplx> acc_;
  std::vector<real> a_planes_;
  std::vector<real> b_planes_;
  std::vector<real> acc_planes_;
  GemmWorkspaceStats stats_;
};

}  // namespace sd
