// spheredec wire protocol: length-prefixed binary frames for the uplink
// ingress path.
//
// Every message on a connection is [u32 length][u32 magic][u8 version]
// [u8 type][payload], all little-endian, where `length` counts the bytes
// after the length field itself. Floats travel as IEEE-754 binary32/64, and
// H and y as (re, im) f32 pairs, so on a little-endian host (the codec
// static_asserts one) headers and arrays are copied in bulk. Two message
// types flow:
//
//   kFrame    client -> server: one received MIMO vector. The header carries
//             cell id, frame id, QoS class, deadline budget, sigma2, and the
//             channel's content fingerprint (channel_fingerprint in
//             decode/channel_prep.hpp); the channel matrix itself is
//             OPTIONAL (flag bit) — coherent frames of one block send H once
//             and later frames reference it by fingerprint, which the
//             server resolves from its per-connection channel cache.
//   kResponse server -> client: the detection outcome for one frame id —
//             terminal status (completed / expired / shed / ...), the decode
//             tier served, the achieved metric, and the detected symbol
//             indices. Responses may arrive out of submission order (lanes
//             decode in parallel); clients match on frame id.
//
// Decoding is incremental: WireDecoder accumulates bytes across arbitrary
// read() boundaries and yields complete messages, so the ingress loop can
// feed it whatever a socket returns. Any malformed input (bad magic/version,
// oversized or inconsistent lengths, out-of-range fields, a channel whose
// content does not hash to its declared fingerprint) poisons the decoder
// with a typed WireError — the server drops the connection and counts a
// protocol error, never crashes. See DESIGN.md §13.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "linalg/matrix.hpp"
#include "net/qos.hpp"
#include "serve/frame.hpp"

namespace sd::net {

inline constexpr std::uint32_t kWireMagic = 0x53444E46u;  // "SDNF"
/// Version 2: the fingerprint field carries the four-lane word hash of
/// channel_fingerprint (version 1 carried a byte-wise FNV-1a). The layout
/// is unchanged; a version-1 peer is refused with kBadVersion.
inline constexpr std::uint8_t kWireVersion = 2;
/// Hard ceiling on one message (length prefix); anything larger is a
/// protocol error before a single payload byte is buffered.
inline constexpr usize kMaxMessageBytes = 1u << 24;  // 16 MiB
/// Dimension sanity bound for rows/cols fields.
inline constexpr std::uint16_t kMaxWireDim = 4096;

enum class WireType : std::uint8_t {
  kFrame = 1,
  kResponse = 2,
};

/// Why a decoder poisoned itself. kNone means healthy.
enum class WireError : std::uint8_t {
  kNone,
  kOversized,            ///< length prefix exceeds the message ceiling
  kTruncated,            ///< message shorter than its fixed header
  kBadMagic,
  kBadVersion,
  kBadType,
  kBadField,             ///< out-of-range qos / flags / dimensions, a
                         ///< sigma2 that is not finite and positive, or a
                         ///< non-finite H or y entry
  kBadLength,            ///< length inconsistent with the declared payload
  kFingerprintMismatch,  ///< channel bytes do not hash to the declared fp
};

[[nodiscard]] std::string_view wire_error_name(WireError e) noexcept;

/// One uplink frame as it travels on the wire.
struct WireFrame {
  std::uint32_t cell_id = 0;
  std::uint64_t frame_id = 0;   ///< client-chosen, echoed in the response
  QosClass qos = QosClass::kBestEffort;
  bool has_channel = false;     ///< H payload present (else fp references it)
  double deadline_s = 0.0;      ///< per-frame budget; 0 = class default/none
  double sigma2 = 0.0;
  std::uint64_t channel_fp = 0; ///< content fingerprint of H
  CMat h;                       ///< valid iff has_channel
  CVec y;                       ///< received vector (rows entries)
};

/// Terminal outcome on the wire: serve::FrameStatus plus the two states only
/// the network front-end can produce (admission shed, submit rejection).
enum class WireFrameStatus : std::uint8_t {
  kCompleted = 0,
  kExpiredFallback = 1,
  kExpiredDropped = 2,
  kEvicted = 3,
  kShed = 4,      ///< admission control refused before placement
  kRejected = 5,  ///< backpressure rejected at submit
  /// NACK, not a terminal outcome: the frame elided H by fingerprint but the
  /// server's per-connection cache does not hold it (bounded LRU eviction,
  /// or never sent on the connection). The client must retransmit the same
  /// frame with the channel inline.
  kResendChannel = 6,
};

[[nodiscard]] std::string_view wire_frame_status_name(
    WireFrameStatus s) noexcept;
[[nodiscard]] WireFrameStatus wire_status_from(serve::FrameStatus s) noexcept;

/// Detection outcome for one frame id.
struct WireResponse {
  std::uint64_t frame_id = 0;
  std::uint32_t cell_id = 0;
  WireFrameStatus status = WireFrameStatus::kCompleted;
  serve::DecodeTier tier = serve::DecodeTier::kPrimary;
  QosClass qos = QosClass::kBestEffort;
  double metric = 0.0;
  std::vector<index_t> indices;  ///< detected symbol index per tx antenna
};

/// Appends one encoded kFrame message to `out` (length prefix included).
/// When `frame.has_channel`, frame.h must be non-empty and is shipped; the
/// encoder does NOT verify frame.channel_fp against the matrix — that is the
/// receiver's job (and what the fingerprint-mismatch tests forge).
void encode_frame(const WireFrame& frame, std::vector<std::uint8_t>& out);

/// Appends one encoded kResponse message to `out`.
void encode_response(const WireResponse& resp, std::vector<std::uint8_t>& out);

/// Incremental message decoder: feed() arbitrary byte chunks, then pull
/// complete messages with next(). One instance per connection — it owns the
/// partial-message buffer (the per-connection decode state).
class WireDecoder {
 public:
  explicit WireDecoder(usize max_message_bytes = kMaxMessageBytes);

  /// Appends received bytes to the internal buffer.
  void feed(const std::uint8_t* data, usize n);

  enum class Next : std::uint8_t {
    kNeedMore,  ///< no complete message buffered yet
    kFrame,     ///< `frame` filled
    kResponse,  ///< `resp` filled
    kError,     ///< poisoned; see error(). Connection must be dropped.
  };

  /// Extracts the next complete message. After kError every further call
  /// returns kError (the stream cannot be resynchronized).
  [[nodiscard]] Next next(WireFrame& frame, WireResponse& resp);

  [[nodiscard]] WireError error() const noexcept { return error_; }
  /// Bytes currently buffered but not yet consumed (test introspection).
  [[nodiscard]] usize buffered() const noexcept { return buf_.size() - pos_; }

 private:
  [[nodiscard]] Next fail(WireError e) noexcept;
  [[nodiscard]] Next parse_frame(const std::uint8_t* p, usize n,
                                 WireFrame& frame);
  [[nodiscard]] Next parse_response(const std::uint8_t* p, usize n,
                                    WireResponse& resp);

  usize max_message_;
  std::vector<std::uint8_t> buf_;
  usize pos_ = 0;  ///< consumed prefix of buf_
  WireError error_ = WireError::kNone;
};

/// Byte size of the encoded kFrame message for a rows x cols system (length
/// prefix included) — the bench's bytes-per-frame accounting.
[[nodiscard]] usize encoded_frame_bytes(index_t rows, index_t cols,
                                        bool with_channel) noexcept;

}  // namespace sd::net
