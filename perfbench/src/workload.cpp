#include "workload.hpp"

#include <array>

#include "core/spec_parse.hpp"
#include "mimo/scenario.hpp"

namespace perfbench {

namespace {

using sd::Modulation;

// Pool sizes: long enough that `ser` over the fixed sequence varies little
// from seed to seed, and a multiple of cells * coherence so the pool wraps
// on a block boundary. See perfbench/README.md for why each workload exists.
constexpr std::array<WorkloadConfig, 4> kWorkloads{{
    {"sd-10x10-iid", "sphere", {10, 10, Modulation::kQam4}, 8.0,
     1, 1, 1, 4, 16384, 2.0},
    {"bfs-10x10-coh16-4cell", "bfs", {10, 10, Modulation::kQam4}, 8.0,
     4, 16, 2, 32, 16384, 1.5},
    {"mmse-128x8-coh8-32cell", "mmse-neumann:k=3", {8, 128, Modulation::kQam4},
     -8.0, 32, 8, 1, 32, 16384, 1.5},
    {"bfs-int16-10x10-iid", "bfs:precision=int16",
     {10, 10, Modulation::kQam4}, 8.0, 1, 1, 1, 4, 16384, 1.5},
}};

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

std::span<const WorkloadConfig> workloads() noexcept { return kWorkloads; }

const WorkloadConfig* find_workload(std::string_view name) noexcept {
  for (const WorkloadConfig& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

FramePool generate_pool(const WorkloadConfig& w, std::uint64_t seed) {
  std::vector<sd::Scenario> cells;
  cells.reserve(w.cells);
  for (unsigned c = 0; c < w.cells; ++c) {
    sd::ScenarioConfig sc;
    sc.num_tx = w.system.num_tx;
    sc.num_rx = w.system.num_rx;
    sc.modulation = w.system.modulation;
    sc.snr_db = w.snr_db;
    sc.seed = splitmix64(seed ^ splitmix64(c + 1));
    sc.coherence_block = w.coherence;
    cells.emplace_back(sc);
  }

  FramePool pool;
  pool.frames.reserve(w.pool_frames);
  std::vector<std::uint32_t> cell_channel(w.cells, 0);
  for (sd::usize i = 0; i < w.pool_frames; ++i) {
    const auto cell = static_cast<std::uint32_t>(i % w.cells);
    const bool block_start = (i / w.cells) % w.coherence == 0;
    sd::Trial t = cells[cell].next();
    PoolFrame f;
    f.wire.cell_id = cell;
    f.wire.qos = sd::net::QosClass::kBestEffort;
    f.wire.sigma2 = t.sigma2;
    f.wire.y = std::move(t.y);
    if (block_start) {
      cell_channel[cell] = static_cast<std::uint32_t>(pool.channels.size());
      pool.channels.emplace_back(t.h);
      f.wire.has_channel = true;
      f.wire.h = std::move(t.h);
    }
    f.channel = cell_channel[cell];
    f.wire.channel_fp = pool.channels[f.channel].fingerprint();
    f.truth = std::move(t.tx.indices);
    pool.frames.push_back(std::move(f));
  }
  return pool;
}

std::vector<std::uint8_t> encode_stream(const FramePool& pool, sd::usize n) {
  std::vector<std::uint8_t> out;
  for (sd::usize i = 0; i < n && i < pool.frames.size(); ++i) {
    sd::net::WireFrame f = pool.frames[i].wire;
    f.frame_id = i;
    sd::net::encode_frame(f, out);
  }
  return out;
}

Reference reference_decode(const WorkloadConfig& w, const FramePool& pool) {
  const std::unique_ptr<sd::Detector> det =
      sd::make_detector(w.system, sd::parse_decoder_spec(w.spec));
  Reference ref;
  ref.indices.reserve(pool.frames.size());
  std::vector<std::shared_ptr<const sd::PreprocessedChannel>> preps(
      pool.channels.size());
  sd::DecodeResult r;
  for (const PoolFrame& f : pool.frames) {
    auto& prep = preps[f.channel];
    if (!prep) prep = det->preprocess(pool.channels[f.channel]);
    det->decode_with(*prep, f.wire.y, f.wire.sigma2, r);
    const sd::DecodeStats& s = r.stats;
    sd::DecodeStats& t = ref.totals;
    t.nodes_expanded += s.nodes_expanded;
    t.gemm_calls += s.gemm_calls;
    t.flops += s.flops;
    t.quant_saturations += s.quant_saturations;
    t.quant_fallbacks += s.quant_fallbacks;
    t.neumann_fallbacks += s.neumann_fallbacks;
    for (sd::usize k = 0; k < f.truth.size(); ++k) {
      ref.symbol_errors += r.indices[k] != f.truth[k] ? 1 : 0;
    }
    ref.symbols += f.truth.size();
    ref.indices.push_back(r.indices);
  }
  return ref;
}

}  // namespace perfbench
