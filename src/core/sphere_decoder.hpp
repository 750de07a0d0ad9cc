// Public facade: one entry point that builds any detector the paper
// evaluates — the linear baselines, the ML oracle, the sphere-decoder
// family, and the simulated FPGA design points — from a declarative spec.
//
// Quickstart:
//   sd::SystemConfig sys{10, 10, sd::Modulation::kQam4};
//   auto det = sd::make_detector(sys, {sd::Strategy::kBestFsGemm});
//   sd::DecodeResult r = det->decode(h, y, sigma2);
#pragma once

#include <memory>

#include "decode/detector.hpp"
#include "decode/fsd.hpp"
#include "decode/mmse_neumann.hpp"
#include "decode/parallel_sd.hpp"
#include "decode/sd_gemm_bfs.hpp"
#include "decode/sphere_common.hpp"
#include "fpga/hw_config.hpp"

namespace sd {

/// Antenna/modulation description of the MIMO system being decoded.
struct SystemConfig {
  index_t num_tx = 10;
  index_t num_rx = 10;
  Modulation modulation = Modulation::kQam4;
};

/// Which detection algorithm to build.
enum class Strategy : std::uint8_t {
  kMrc,           ///< maximum ratio combining (linear)
  kZf,            ///< zero forcing (linear)
  kMmse,          ///< minimum mean square error (linear)
  kMl,            ///< exhaustive maximum likelihood (oracle, small systems)
  kBestFsGemm,    ///< the paper: GEMM evaluation + Best-FS traversal
  kBestFsScalar,  ///< ablation: same traversal, scalar evaluation
  kDfs,           ///< classic SE depth-first SD (Geosphere traversal)
  kGemmBfs,       ///< GEMM + breadth-first (the GPU baseline of [1])
  kFsd,           ///< fixed-complexity SD (related work)
  kKBest,         ///< K-Best (related work): the BFS with no radius
  kMultiPe,       ///< multi-threaded sub-tree SD (paper §V future work)
  kMmseNeumann,   ///< Gram-domain MMSE, Neumann-series inverse (massive MIMO)
};

[[nodiscard]] std::string_view strategy_name(Strategy s) noexcept;

/// Where the detector "runs": on the host for real, or on a simulated U280
/// design point (only meaningful for the Best-FS strategy, which is what the
/// paper maps to hardware).
enum class TargetDevice : std::uint8_t {
  kCpu,
  kFpgaBaseline,
  kFpgaOptimized,
};

[[nodiscard]] std::string_view device_name(TargetDevice d) noexcept;

/// Full detector specification. Only the sub-options matching `strategy`
/// are consulted. K-Best reads `bfs.max_frontier` as its K and builds
/// kbest_options(K).
struct DecoderSpec {
  Strategy strategy = Strategy::kBestFsGemm;
  TargetDevice device = TargetDevice::kCpu;
  SdOptions sd = {};
  BfsOptions bfs = {};
  FsdOptions fsd = {};
  ParallelSdOptions multi_pe = {};
  MmseNeumannOptions mmse_neumann = {};
  Precision fpga_precision = Precision::kFp32;
};

/// Builds a detector. Throws sd::invalid_argument_error on inconsistent
/// specs (e.g. an FPGA device with a non-Best-FS strategy, or BFS and
/// K-Best for more than kGemmKc transmit antennas).
[[nodiscard]] std::unique_ptr<Detector> make_detector(const SystemConfig& sys,
                                                      const DecoderSpec& spec);

}  // namespace sd
