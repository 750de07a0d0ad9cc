// Textual detector specifications, so tools, examples and scripts can pick
// detectors without recompiling:
//
//   "sphere"                  -> GEMM/Best-FS on CPU, served settings:
//                                SQRD order, noise-scaled radius (alpha=2)
//   "sphere:sorted=0,alpha=inf" -> the paper's Best-FS: plain QR, infinite
//                                initial radius (= DecoderSpec{})
//   "sphere@fpga"             -> the paper's Best-FS on the simulated
//                                optimized U280 design
//   "sphere@fpga-base"        -> ... on the baseline design point
//   "bfs"                     -> GEMM BFS on CPU, served settings: SQRD
//                                order, Babai-capped noise radius (alpha=2)
//   "bfs:sorted=0,alpha=2"    -> the paper's BFS: plain QR, noise-scaled
//                                radius (= BfsOptions{})
//   "dfs" "ml"                -> other tree searches
//   "zf" "mmse" "mrc"         -> linear detectors
//   "kbest:k=32"              -> K-Best: BFS, no radius, 32 survivors
//   "fsd:levels=2"            -> FSD with two full levels
//   "multipe:threads=4,split=2"
//   "bfs:sorted=0"            -> plain QR order (sorted turns SQRD on)
//
// Grammar: name[@device][:opt[=value][,opt[=value]]*]
//
// Every name starts from the defaults of its options struct, which are the
// paper's settings, except on the CPU: `sphere` and `bestfs` start from
// kServedBestFs, and `bfs` (at either precision) from kServedBfs. Explicit
// keys override any of them; an explicit `alpha=` selects the plain noise
// (or infinite) radius.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/sphere_decoder.hpp"

namespace sd {

/// One "key" or "key=value" element of a comma-separated option list. The
/// detector grammar above and the server-option grammar (src/serve) share
/// this building block.
struct SpecOption {
  std::string key;
  std::string value;  ///< empty for bare flags
};

/// Search options the spec names `sphere` and `bestfs` start from on the CPU
/// (no device, or @cpu): SQRD layer order and a noise-scaled initial radius
/// r^2 = 2 sigma^2 N. The restart that doubles an empty sphere (and finally
/// lifts the radius) keeps the search exact ML; the pair expands far fewer
/// nodes than the paper's settings and finishes the 20x20 64-QAM frames that
/// the infinite radius does not (DESIGN.md §3). SdOptions{} itself stays on
/// the paper's settings, so DecoderSpec{}, the FPGA models and every other
/// tree search keep them.
inline constexpr SdOptions kServedBestFs{
    .radius_policy = RadiusPolicy::kNoiseScaled,
    .radius_alpha = 2.0,
    .sorted_qr = true,
};

/// Search options the spec name `bfs` starts from on the CPU, at either
/// precision: SQRD layer order and the noise sphere r^2 = 2 sigma^2 N capped
/// just above the Babai leaf's PD (RadiusPolicy::kBabaiCapped).
/// A BFS cannot shrink its radius before its last level, so the initial
/// sphere sets its whole cost. The cap does not change the answer: PDs never
/// decrease along a path, the keep test is PD < r, and the frontier cut is a
/// total order on (PD, parent, symbol) that pruning does not disturb, so any
/// radius above the answer's PD reaches the same leaf, and an empty sphere
/// doubles until it does. The served answers are therefore those of
/// `bfs:sorted,alpha=2`, bit for bit, on truncated and int16 frames too;
/// only the work counters differ (DESIGN.md §3). BfsOptions{}.base stays on
/// the paper's settings, so K-Best, `bfs@fpga` and the figure benches keep
/// them.
inline constexpr SdOptions kServedBfs{
    .radius_policy = RadiusPolicy::kBabaiCapped,
    .radius_alpha = 2.0,
    .sorted_qr = true,
};

/// Splits "a=1,b,c=x" into SpecOptions. Empty elements are skipped.
[[nodiscard]] std::vector<SpecOption> parse_spec_options(std::string_view text);

/// Integer/float value of an option; throws sd::invalid_argument_error with
/// the option's key in the message when the value does not parse fully.
[[nodiscard]] long spec_option_int(const SpecOption& opt);
[[nodiscard]] double spec_option_double(const SpecOption& opt);

/// Parses a detector spec string. Throws sd::invalid_argument_error with a
/// pointed message on unknown names/devices/options.
[[nodiscard]] DecoderSpec parse_decoder_spec(std::string_view text);

/// Applies a datapath precision ("int16", "fp32"/"float") to an already
/// parsed spec — the command-line `--precision` knob of the serve tools.
/// "int16" selects the fixed-point BFS datapath and therefore requires the
/// bfs strategy; other strategies throw sd::invalid_argument_error.
/// "fp32"/"float" resets any quantized selection and is valid everywhere.
void apply_precision(DecoderSpec& spec, std::string_view precision);

/// Datapath precision of a spec ("int16" or "fp32"), used to key cost-model
/// buckets and to label per-lane backends.
[[nodiscard]] std::string_view decoder_precision_name(
    const DecoderSpec& spec) noexcept;

/// Human-readable list of accepted spec names (for --help output).
[[nodiscard]] std::string_view decoder_spec_help() noexcept;

}  // namespace sd
