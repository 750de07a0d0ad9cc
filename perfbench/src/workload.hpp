// Workload table and seeded frame generation for the served-path benchmark.
//
// A workload is a detector spec, a system geometry, a cell/coherence traffic
// shape and a serving shape (lanes, closed-loop window). Its frames are a
// fixed pool generated from the command-line seed alone: every cell draws
// its own Scenario stream, cells interleave frame by frame, and the first
// frame of each cell's coherence block carries H inline while the rest of
// the block references it by fingerprint. The pool is what reaches the
// server; the transmitted ground truth and the in-process reference decode
// never leave the benchmark process.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/sphere_decoder.hpp"
#include "decode/channel_prep.hpp"
#include "net/wire.hpp"

namespace perfbench {

struct WorkloadConfig {
  std::string_view name;
  std::string_view spec;        ///< detector spec served by every lane
  sd::SystemConfig system;
  double snr_db = 8.0;
  unsigned cells = 1;           ///< interleaved cells, one channel stream each
  sd::usize coherence = 1;      ///< frames per channel realization, per cell
  unsigned lanes = 1;           ///< server lanes (one shard)
  sd::usize window = 4;         ///< frames kept in flight by the client
  sd::usize pool_frames = 0;    ///< fixed frame sequence (cells*coherence | it)
  /// How much more than the host-speed probe this workload slows when other
  /// tenants load the host: timed metrics are scaled by the probe's speed
  /// factor raised to this power. Measured, see perfbench/README.md.
  double host_elasticity = 1.5;
};

/// Every workload the benchmark knows, in BENCHMARK.json order.
[[nodiscard]] std::span<const WorkloadConfig> workloads() noexcept;

/// nullptr when `name` is not a workload.
[[nodiscard]] const WorkloadConfig* find_workload(std::string_view name) noexcept;

struct PoolFrame {
  sd::net::WireFrame wire;            ///< frame_id is assigned at send time
  std::vector<sd::index_t> truth;     ///< transmitted symbol indices
  std::uint32_t channel = 0;          ///< index into FramePool::channels
};

struct FramePool {
  std::vector<sd::ChannelHandle> channels;  ///< one per coherence block
  std::vector<PoolFrame> frames;
};

/// Deterministic in (w, seed): the same seed gives a byte-identical stream.
[[nodiscard]] FramePool generate_pool(const WorkloadConfig& w,
                                      std::uint64_t seed);

/// The wire bytes of the first `n` frames as sent (frame_id = position).
[[nodiscard]] std::vector<std::uint8_t> encode_stream(const FramePool& pool,
                                                      sd::usize n);

/// The in-process answer the served path must reproduce bit for bit:
/// Detector::preprocess once per channel, then decode_with per frame.
struct Reference {
  std::vector<std::vector<sd::index_t>> indices;  ///< per pool frame
  sd::DecodeStats totals;       ///< counters summed over the pool
  std::uint64_t symbol_errors = 0;
  std::uint64_t symbols = 0;
};

[[nodiscard]] Reference reference_decode(const WorkloadConfig& w,
                                         const FramePool& pool);

}  // namespace perfbench
