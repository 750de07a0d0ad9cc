#include "core/spec_parse.hpp"

#include <charconv>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace sd {

namespace {

[[noreturn]] void unknown_option(std::string_view name, const SpecOption& opt) {
  throw invalid_argument_error("detector '" + std::string(name) +
                               "' does not accept option '" + opt.key + "'");
}

}  // namespace

std::vector<SpecOption> parse_spec_options(std::string_view text) {
  std::vector<SpecOption> out;
  while (!text.empty()) {
    const auto comma = text.find(',');
    std::string_view item =
        comma == std::string_view::npos ? text : text.substr(0, comma);
    text = comma == std::string_view::npos ? std::string_view{}
                                           : text.substr(comma + 1);
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string_view::npos) {
      out.push_back({std::string(item), ""});
    } else {
      out.push_back({std::string(item.substr(0, eq)),
                     std::string(item.substr(eq + 1))});
    }
  }
  return out;
}

long spec_option_int(const SpecOption& opt) {
  long value = 0;
  const auto [ptr, ec] =
      std::from_chars(opt.value.data(), opt.value.data() + opt.value.size(),
                      value);
  SD_CHECK(ec == std::errc{} && ptr == opt.value.data() + opt.value.size(),
           "option '" + opt.key + "' needs an integer value");
  return value;
}

double spec_option_double(const SpecOption& opt) {
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(opt.value.data(), opt.value.data() + opt.value.size(),
                      value);
  SD_CHECK(ec == std::errc{} && ptr == opt.value.data() + opt.value.size(),
           "option '" + opt.key + "' needs a numeric value");
  return value;
}

DecoderSpec parse_decoder_spec(std::string_view text) {
  SD_CHECK(!text.empty(), "empty detector spec");

  // Split name[@device][:options].
  std::string_view rest = text;
  const auto colon = rest.find(':');
  std::string_view options_text;
  if (colon != std::string_view::npos) {
    options_text = rest.substr(colon + 1);
    rest = rest.substr(0, colon);
  }
  std::string_view device_text;
  const auto at = rest.find('@');
  if (at != std::string_view::npos) {
    device_text = rest.substr(at + 1);
    rest = rest.substr(0, at);
  }
  const std::string_view name = rest;

  DecoderSpec spec;
  if (name == "sphere" || name == "bestfs") {
    spec.strategy = Strategy::kBestFsGemm;
  } else if (name == "sphere-scalar") {
    spec.strategy = Strategy::kBestFsScalar;
  } else if (name == "dfs" || name == "geosphere") {
    spec.strategy = Strategy::kDfs;
  } else if (name == "bfs") {
    spec.strategy = Strategy::kGemmBfs;
  } else if (name == "ml") {
    spec.strategy = Strategy::kMl;
  } else if (name == "zf") {
    spec.strategy = Strategy::kZf;
  } else if (name == "mmse") {
    spec.strategy = Strategy::kMmse;
  } else if (name == "mrc") {
    spec.strategy = Strategy::kMrc;
  } else if (name == "kbest") {
    spec.strategy = Strategy::kKBest;
    spec.bfs = kbest_options();
  } else if (name == "fsd") {
    spec.strategy = Strategy::kFsd;
  } else if (name == "multipe") {
    spec.strategy = Strategy::kMultiPe;
  } else if (name == "mmse-neumann") {
    spec.strategy = Strategy::kMmseNeumann;
  } else {
    throw invalid_argument_error("unknown detector '" + std::string(name) +
                                 "'; " + std::string(decoder_spec_help()));
  }

  if (!device_text.empty()) {
    if (device_text == "cpu") {
      spec.device = TargetDevice::kCpu;
    } else if (device_text == "fpga" || device_text == "fpga-opt") {
      spec.device = TargetDevice::kFpgaOptimized;
    } else if (device_text == "fpga-base") {
      spec.device = TargetDevice::kFpgaBaseline;
    } else {
      throw invalid_argument_error("unknown device '" +
                                   std::string(device_text) +
                                   "' (cpu, fpga, fpga-base)");
    }
  }

  // The tree-search options live in the SdOptions the chosen detector
  // reads; detectors that read none reject them. Only Best-FS, DFS and the
  // FPGA model take a node budget, the parallel sub-tree SD searches from
  // an unbounded radius only, and only the FPGA model has a datapath
  // precision other than the BFS's own `precision=`.
  SdOptions* sd = nullptr;
  if (spec.device != TargetDevice::kCpu ||
      spec.strategy == Strategy::kBestFsGemm ||
      spec.strategy == Strategy::kBestFsScalar ||
      spec.strategy == Strategy::kDfs) {
    sd = &spec.sd;
  } else if (spec.strategy == Strategy::kGemmBfs) {
    sd = &spec.bfs.base;
  } else if (spec.strategy == Strategy::kMultiPe) {
    sd = &spec.multi_pe.base;
  }

  const bool budgeted = sd == &spec.sd;
  const bool takes_radius = sd != nullptr && sd != &spec.multi_pe.base;
  const bool fpga = spec.device != TargetDevice::kCpu;

  if (spec.strategy == Strategy::kBestFsGemm && !fpga) {
    spec.sd = kServedBestFs;
  } else if (spec.strategy == Strategy::kGemmBfs && !fpga) {
    spec.bfs.base = kServedBfs;
  }

  for (const SpecOption& opt : parse_spec_options(options_text)) {
    if (opt.key == "sorted" && sd != nullptr) {
      SD_CHECK(opt.value.empty() || opt.value == "0" || opt.value == "1",
               "option 'sorted' takes no value, 0 or 1 (got '" + opt.value +
                   "')");
      sd->sorted_qr = opt.value != "0";
    } else if (opt.key == "scalar" &&
               spec.strategy == Strategy::kBestFsGemm) {
      spec.strategy = Strategy::kBestFsScalar;
    } else if (opt.key == "max-nodes" && budgeted) {
      sd->max_nodes = static_cast<std::uint64_t>(spec_option_int(opt));
    } else if (opt.key == "fp16" && fpga) {
      spec.fpga_precision = Precision::kFp16;
    } else if (opt.key == "int16" && opt.value.empty() && fpga) {
      spec.fpga_precision = Precision::kInt16;
    } else if (opt.key == "k" && spec.strategy == Strategy::kKBest) {
      spec.bfs.max_frontier = static_cast<usize>(spec_option_int(opt));
    } else if (opt.key == "k" && spec.strategy == Strategy::kMmseNeumann) {
      spec.mmse_neumann.k = static_cast<usize>(spec_option_int(opt));
    } else if (opt.key == "tol" && spec.strategy == Strategy::kMmseNeumann) {
      spec.mmse_neumann.residual_tol = spec_option_double(opt);
    } else if (opt.key == "levels" && spec.strategy == Strategy::kFsd) {
      spec.fsd.full_levels = static_cast<index_t>(spec_option_int(opt));
    } else if (opt.key == "threads" && spec.strategy == Strategy::kMultiPe) {
      spec.multi_pe.num_threads = static_cast<unsigned>(spec_option_int(opt));
    } else if (opt.key == "split" && spec.strategy == Strategy::kMultiPe) {
      spec.multi_pe.split_depth = static_cast<index_t>(spec_option_int(opt));
    } else if (opt.key == "frontier" && spec.strategy == Strategy::kGemmBfs) {
      spec.bfs.max_frontier = static_cast<usize>(spec_option_int(opt));
    } else if (opt.key == "precision" &&
               spec.strategy == Strategy::kGemmBfs) {
      apply_precision(spec, opt.value);
    } else if (opt.key == "alpha" && takes_radius) {
      const double alpha = spec_option_double(opt);
      if (alpha == std::numeric_limits<double>::infinity()) {
        sd->radius_policy = RadiusPolicy::kInfinite;
        sd->radius_alpha = SdOptions{}.radius_alpha;
      } else {
        SD_CHECK(alpha > 0.0, "option 'alpha' needs a positive value or inf "
                              "(got '" + opt.value + "')");
        sd->radius_policy = RadiusPolicy::kNoiseScaled;
        sd->radius_alpha = alpha;
      }
    } else {
      unknown_option(name, opt);
    }
  }
  return spec;
}

void apply_precision(DecoderSpec& spec, std::string_view precision) {
  if (precision == "fp32" || precision == "float") {
    spec.bfs.quantized = false;
    return;
  }
  if (precision == "int16") {
    SD_CHECK(spec.strategy == Strategy::kGemmBfs,
             "precision 'int16' selects the fixed-point BFS datapath and "
             "requires the bfs detector");
    spec.bfs.quantized = true;
    return;
  }
  throw invalid_argument_error("unknown precision '" + std::string(precision) +
                               "' (int16, fp32)");
}

std::string_view decoder_precision_name(const DecoderSpec& spec) noexcept {
  return spec.strategy == Strategy::kGemmBfs && spec.bfs.quantized ? "int16"
                                                                   : "fp32";
}

std::string_view decoder_spec_help() noexcept {
  return "known detectors: sphere sphere-scalar dfs bfs ml zf mmse mrc "
         "kbest:k=N fsd:levels=N multipe:threads=N,split=N "
         "mmse-neumann:k=N,tol=X; devices: "
         "@cpu @fpga @fpga-base; tree-search options: sorted[=0|1]; "
         "alpha=X|inf on all but multipe; max-nodes=N on sphere, "
         "sphere-scalar, dfs and @fpga; "
         "fp16, int16 on @fpga; bfs:precision=int16|fp32; sphere on the "
         "cpu serves sorted,alpha=2, and sphere:sorted=0,alpha=inf is the "
         "paper's Best-FS; bfs on the cpu serves sorted with a Babai-capped "
         "radius, and bfs:sorted=0,alpha=2 is the paper's BFS";
}

}  // namespace sd
