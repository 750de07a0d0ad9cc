// Per-frame decode-cost prediction for placement decisions.
//
// Sphere-decoding work is wildly variable — nodes expanded swing by orders
// of magnitude with SNR and channel conditioning — so a placement layer that
// treats every frame as equal wastes the heterogeneous pool. The CostModel
// predicts, *before* placement, how much a frame will cost on each backend
// from features observable at submit time:
//
//   - antenna count M and modulation order (geometry),
//   - sigma2 / SNR (noise regime — the dominant complexity driver),
//   - a conditioning proxy for the R diagonal after QR: the spread of the
//     channel's column norms, which tracks how unbalanced the triangular
//     diagonal will be without paying for the QR at placement time.
//
// Predictions start from an analytic prior (exponential-in-M node count with
// an SNR-dependent exponent, matching the paper's complexity curves) and are
// calibrated online per (backend, tier, scenario bucket) via EWMA over the
// actual DecodeStats.nodes_expanded and charged seconds of completed frames.
// The model is deterministic given the observation stream, and exports /
// imports its state as JSON so soaks can start warm.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "decode/channel_prep.hpp"
#include "linalg/matrix.hpp"
#include "serve/frame.hpp"

namespace sd::dispatch {

using serve::DecodeTier;

/// Features extracted from one frame at submit time. Extraction is a pure
/// function of (h, sigma2, geometry) — deterministic across runs.
/// Everything read from H is its ChannelSummary, which a ChannelHandle
/// carries from construction.
struct FrameFeatures {
  index_t num_tx = 0;
  index_t num_rx = 0;  ///< receive antennas; drives the tall-channel prior
  index_t mod_order = 0;
  double sigma2 = 0.0;
  double snr_db = 0.0;      ///< derived from sigma2 and num_tx
  double cond_proxy = 1.0;  ///< max/min channel column norm, >= 1
  /// Every H entry is finite. The column norms are summed in double from
  /// exact squares of the float entries, so a norm is finite exactly when
  /// its whole column is.
  bool finite_h = true;

  /// O(1): reads the handle's ChannelSummary, computed when the handle
  /// was built; no pass over H and no QR.
  [[nodiscard]] static FrameFeatures extract(const ChannelHandle& channel,
                                             double sigma2, index_t mod_order);
};

struct CostModelOptions {
  double ewma_alpha = 0.25;   ///< weight of the newest observation
  /// When false, predicted seconds always come from the analytic rate priors
  /// (seconds-per-node x predicted nodes + overhead); only the node-count
  /// EWMA — which is deterministic, nodes_expanded being an exact algorithmic
  /// count — adapts. Placement then depends solely on the submitted frame
  /// stream, never on measured wall time: the deterministic mode the
  /// dispatcher's reproducibility tests pin.
  bool adapt_rates = true;
  double snr_bucket_db = 2.0; ///< SNR bucket width
};

/// One prediction: expected work and expected charged seconds on a backend.
struct CostPrediction {
  double nodes = 0.0;
  double seconds = 0.0;
  bool warm = false;  ///< at least one observation backs this bucket
};

class CostModel {
 public:
  explicit CostModel(CostModelOptions opts = {});

  /// Registers a backend's rate priors; returns its id. `seconds_per_node`
  /// converts predicted node counts into charged time on that substrate;
  /// `overhead_s` is the fixed per-frame cost (preprocessing, and for
  /// offloaded backends the host<->device round trip). `precision` names the
  /// backend's datapath ("int16" for the fixed-point BFS lanes); non-fp32
  /// precisions get their own calibration buckets, since the quantized
  /// kernels have different per-node rates. Empty/"fp32" keeps the
  /// historical bucket keys, so existing exports warm-start unchanged.
  int register_backend(std::string label, double seconds_per_node,
                       double overhead_s, std::string precision = "");

  /// Longest precision name a backend may carry (it is part of every bucket
  /// key of that backend).
  static constexpr usize kMaxPrecisionChars = 32;

  [[nodiscard]] usize backend_count() const;

  /// Predicted cost of decoding a frame with `tier` on `backend`.
  /// `prep_hit` selects the prep-cache-hit calibration bucket: a frame
  /// landing on a lane that just decoded the same channel skips the
  /// factorization, and the model learns that discount separately instead of
  /// smearing it into one bucket.
  [[nodiscard]] CostPrediction predict(const FrameFeatures& f, int backend,
                                       DecodeTier tier,
                                       bool prep_hit = false) const;

  /// Feeds one completed decode back into the matching bucket.
  void observe(const FrameFeatures& f, int backend, DecodeTier tier,
               std::uint64_t nodes_expanded, double charged_seconds,
               bool prep_hit = false);

  /// Analytic prior for the node count (no calibration): exponential in M
  /// with an SNR-dependent exponent for the sphere-decoder tier, fixed
  /// polynomial costs for the K-Best and linear tiers. Monotone:
  /// lower SNR => non-decreasing cost at fixed geometry.
  [[nodiscard]] static double prior_nodes(const FrameFeatures& f,
                                          DecodeTier tier);

  [[nodiscard]] usize bucket_count() const;
  [[nodiscard]] std::uint64_t observations() const;

  /// Serializes rates and every calibrated bucket ("spheredec.costmodel"
  /// schema, version 3: tier numbers follow the four-rung ladder with
  /// kMmseApprox = 2 and kLinear = 3; bucket keys carry a ".h0"/".h1"
  /// prep-hit suffix and, for rectangular channels, an ".r<nr>" geometry
  /// component).
  [[nodiscard]] std::string export_json() const;

  /// Restores a model exported by export_json. Accepts schema version 3 and,
  /// for warm-start continuity, versions 1 and 2: their ".t2" (old kLinear)
  /// buckets are remapped to ".t3", and v1 buckets — which predate the
  /// prep-hit split — are additionally imported as prep-miss ".h0" buckets.
  /// Backends
  /// must already be registered with matching labels (rates are
  /// overwritten). Throws sd::invalid_argument_error on malformed input or
  /// label mismatch.
  void import_json(std::string_view json);

 private:
  struct Bucket {
    double nodes_ewma = 0.0;
    double seconds_ewma = 0.0;
    std::uint64_t count = 0;
  };
  struct Rate {
    std::string label;
    double seconds_per_node = 0.0;
    double overhead_s = 0.0;
    std::string precision;  ///< ""/"fp32" = historical keys, else ".p<name>"
  };

  /// A bucket key formatted on the stack, so a lookup on an existing bucket
  /// allocates nothing. The longest key, every numeric field at its widest
  /// plus a kMaxPrecisionChars precision suffix, fits.
  struct KeyBuffer {
    std::array<char, 160> chars;
    usize size = 0;
    void append(std::string_view text) noexcept;
    void append(long long v) noexcept;
    [[nodiscard]] std::string_view view() const noexcept {
      return {chars.data(), size};
    }
  };

  [[nodiscard]] std::string_view bucket_key(const FrameFeatures& f,
                                            int backend, DecodeTier tier,
                                            bool prep_hit,
                                            KeyBuffer& out) const;

  CostModelOptions opts_;
  std::vector<Rate> rates_;
  std::map<std::string, Bucket, std::less<>> buckets_;
  std::uint64_t observations_ = 0;
  mutable std::mutex mu_;
};

}  // namespace sd::dispatch
