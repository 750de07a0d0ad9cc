#include "core/sphere_decoder.hpp"

#include "common/error.hpp"
#include "decode/linear.hpp"
#include "decode/ml.hpp"
#include "decode/sd_dfs.hpp"
#include "decode/sd_gemm.hpp"
#include "fpga/fpga_detector.hpp"

namespace sd {

std::string_view strategy_name(Strategy s) noexcept {
  switch (s) {
    case Strategy::kMrc: return "MRC";
    case Strategy::kZf: return "ZF";
    case Strategy::kMmse: return "MMSE";
    case Strategy::kMl: return "ML";
    case Strategy::kBestFsGemm: return "SD-GEMM-BestFS";
    case Strategy::kBestFsScalar: return "SD-Scalar-BestFS";
    case Strategy::kDfs: return "SD-DFS";
    case Strategy::kGemmBfs: return "SD-GEMM-BFS";
    case Strategy::kFsd: return "FSD";
    case Strategy::kKBest: return "K-Best";
    case Strategy::kMultiPe: return "SD-MultiPE";
    case Strategy::kMmseNeumann: return "MMSE-Neumann";
  }
  return "?";
}

std::string_view device_name(TargetDevice d) noexcept {
  switch (d) {
    case TargetDevice::kCpu: return "CPU";
    case TargetDevice::kFpgaBaseline: return "FPGA-baseline";
    case TargetDevice::kFpgaOptimized: return "FPGA-optimized";
  }
  return "?";
}

std::unique_ptr<Detector> make_detector(const SystemConfig& sys,
                                        const DecoderSpec& spec) {
  SD_CHECK(sys.num_tx > 0 && sys.num_rx >= sys.num_tx,
           "system requires N >= M > 0");
  const Constellation& c = Constellation::get(sys.modulation);

  if (spec.device != TargetDevice::kCpu) {
    SD_CHECK(spec.strategy == Strategy::kBestFsGemm,
             "the FPGA design implements the GEMM/Best-FS strategy; other "
             "strategies run on the CPU target");
    FpgaConfig cfg =
        spec.device == TargetDevice::kFpgaOptimized
            ? FpgaConfig::optimized_design(sys.num_tx, sys.num_rx,
                                           sys.modulation)
            : FpgaConfig::baseline(sys.num_tx, sys.num_rx, sys.modulation);
    cfg.precision = spec.fpga_precision;
    return std::make_unique<FpgaDetector>(c, cfg, spec.sd);
  }

  switch (spec.strategy) {
    case Strategy::kMrc:
      return std::make_unique<LinearDetector>(LinearKind::kMrc, c);
    case Strategy::kZf:
      return std::make_unique<LinearDetector>(LinearKind::kZf, c);
    case Strategy::kMmse:
      return std::make_unique<LinearDetector>(LinearKind::kMmse, c);
    case Strategy::kMl:
      return std::make_unique<MlDetector>(c);
    case Strategy::kBestFsGemm: {
      SdOptions opts = spec.sd;
      opts.gemm_eval = true;
      return std::make_unique<SdGemmDetector>(c, opts);
    }
    case Strategy::kBestFsScalar: {
      SdOptions opts = spec.sd;
      opts.gemm_eval = false;
      return std::make_unique<SdGemmDetector>(c, opts);
    }
    case Strategy::kDfs:
      return std::make_unique<SdDfsDetector>(c, spec.sd);
    case Strategy::kGemmBfs:
    case Strategy::kKBest:
      SD_CHECK(sys.num_tx <= kGemmKc,
               "BFS and K-Best support at most kGemmKc (128) transmit "
               "antennas");
      return std::make_unique<SdGemmBfsDetector>(
          c, spec.strategy == Strategy::kKBest
                 ? kbest_options(spec.bfs.max_frontier)
                 : spec.bfs);
    case Strategy::kFsd:
      return std::make_unique<FsdDetector>(c, spec.fsd);
    case Strategy::kMultiPe:
      return std::make_unique<ParallelSdDetector>(c, spec.multi_pe);
    case Strategy::kMmseNeumann:
      return std::make_unique<MmseNeumannDetector>(spec.mmse_neumann, c);
  }
  throw invalid_argument_error("unknown strategy");
}

}  // namespace sd
