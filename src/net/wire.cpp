#include "net/wire.hpp"

#include <bit>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "decode/channel_prep.hpp"

namespace sd::net {

namespace {

// The wire format is little-endian by definition. On a little-endian host
// an integer's or float's memory bytes ARE its wire bytes, and a
// std::complex<float> array is its (re, im) f32 pairs in wire order, so
// whole headers and H / y arrays move with memcpy.
static_assert(std::endian::native == std::endian::little,
              "the bulk wire codec assumes a little-endian host");
static_assert(sizeof(cplx) == 2 * sizeof(float));
static_assert(sizeof(index_t) == sizeof(std::uint32_t));

template <typename T>
void store(std::uint8_t* p, T v) noexcept {
  std::memcpy(p, &v, sizeof(T));
}

template <typename T>
[[nodiscard]] T load(const std::uint8_t* p) noexcept {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

/// True iff none of the `n` f32 values at `p` is an Inf or a NaN (all
/// exponent bits set). One branch-free sweep the compiler vectorizes.
[[nodiscard]] bool all_finite(const cplx* p, usize n) noexcept {
  const auto* f = reinterpret_cast<const float*>(p);
  std::uint32_t bad = 0;
  for (usize i = 0; i < 2 * n; ++i) {
    const auto bits = std::bit_cast<std::uint32_t>(f[i]);
    bad |= static_cast<std::uint32_t>((bits & 0x7F800000u) == 0x7F800000u);
  }
  return bad == 0;
}

// Message envelope: [u32 magic][u8 version][u8 type] after the length field.
constexpr usize kEnvelopeBytes = 4 + 1 + 1;
// kFrame fixed part after the envelope:
//   u32 cell, u64 frame_id, u8 qos, u8 flags, u16 rows, u16 cols,
//   u16 reserved, f64 deadline, f64 sigma2, u64 fp
constexpr usize kFrameFixedBytes = 4 + 8 + 1 + 1 + 2 + 2 + 2 + 8 + 8 + 8;
// kResponse fixed part after the envelope:
//   u64 frame_id, u32 cell, u8 status, u8 tier, u8 qos, u8 reserved,
//   f64 metric, u16 count
constexpr usize kResponseFixedBytes = 8 + 4 + 1 + 1 + 1 + 1 + 8 + 2;

constexpr std::uint8_t kFlagHasChannel = 0x01;
constexpr std::uint8_t kKnownFlags = kFlagHasChannel;

/// Writes the length prefix and the envelope of a `total`-byte message
/// (prefix included) at `p`.
void put_envelope(std::uint8_t* p, usize total, WireType type) noexcept {
  store(p, static_cast<std::uint32_t>(total - 4));
  store(p + 4, kWireMagic);
  p[8] = kWireVersion;
  p[9] = static_cast<std::uint8_t>(type);
}

}  // namespace

std::string_view wire_error_name(WireError e) noexcept {
  switch (e) {
    case WireError::kNone: return "none";
    case WireError::kOversized: return "oversized";
    case WireError::kTruncated: return "truncated";
    case WireError::kBadMagic: return "bad-magic";
    case WireError::kBadVersion: return "bad-version";
    case WireError::kBadType: return "bad-type";
    case WireError::kBadField: return "bad-field";
    case WireError::kBadLength: return "bad-length";
    case WireError::kFingerprintMismatch: return "fingerprint-mismatch";
  }
  return "?";
}

std::string_view wire_frame_status_name(WireFrameStatus s) noexcept {
  switch (s) {
    case WireFrameStatus::kCompleted: return "completed";
    case WireFrameStatus::kExpiredFallback: return "expired-fallback";
    case WireFrameStatus::kExpiredDropped: return "expired-dropped";
    case WireFrameStatus::kEvicted: return "evicted";
    case WireFrameStatus::kShed: return "shed";
    case WireFrameStatus::kRejected: return "rejected";
    case WireFrameStatus::kResendChannel: return "resend-channel";
  }
  return "?";
}

WireFrameStatus wire_status_from(serve::FrameStatus s) noexcept {
  switch (s) {
    case serve::FrameStatus::kCompleted: return WireFrameStatus::kCompleted;
    case serve::FrameStatus::kExpiredFallback:
      return WireFrameStatus::kExpiredFallback;
    case serve::FrameStatus::kExpiredDropped:
      return WireFrameStatus::kExpiredDropped;
    case serve::FrameStatus::kEvicted: return WireFrameStatus::kEvicted;
  }
  return WireFrameStatus::kEvicted;
}

usize encoded_frame_bytes(index_t rows, index_t cols,
                          bool with_channel) noexcept {
  usize n = 4 + kEnvelopeBytes + kFrameFixedBytes;
  if (with_channel) {
    n += static_cast<usize>(rows) * static_cast<usize>(cols) * 2 * sizeof(float);
  }
  n += static_cast<usize>(rows) * 2 * sizeof(float);
  return n;
}

void encode_frame(const WireFrame& frame, std::vector<std::uint8_t>& out) {
  SD_CHECK(!frame.y.empty(), "wire frame carries no received vector");
  const auto rows = static_cast<index_t>(frame.y.size());
  index_t cols = 0;
  if (frame.has_channel) {
    SD_CHECK(!frame.h.empty(), "has_channel set but channel matrix is empty");
    SD_CHECK(frame.h.rows() == rows, "channel rows must match y length");
    cols = frame.h.cols();
  } else {
    // Channel rides by reference: cols still travels so the receiver can
    // sanity-check the referenced channel's shape.
    cols = frame.h.empty() ? rows : frame.h.cols();
  }
  SD_CHECK(rows >= 1 && rows <= static_cast<index_t>(kMaxWireDim) &&
               cols >= 1 && cols <= static_cast<index_t>(kMaxWireDim),
           "wire frame dimensions out of range");

  const usize total = encoded_frame_bytes(rows, cols, frame.has_channel);
  const usize start = out.size();
  out.resize(start + total);
  std::uint8_t* p = out.data() + start;
  put_envelope(p, total, WireType::kFrame);
  std::uint8_t* q = p + 4 + kEnvelopeBytes;
  store(q, frame.cell_id);
  store(q + 4, frame.frame_id);
  q[12] = static_cast<std::uint8_t>(frame.qos);
  q[13] = frame.has_channel ? kFlagHasChannel : 0;
  store(q + 14, static_cast<std::uint16_t>(rows));
  store(q + 16, static_cast<std::uint16_t>(cols));
  store(q + 18, std::uint16_t{0});  // reserved
  store(q + 20, frame.deadline_s);
  store(q + 28, frame.sigma2);
  store(q + 36, frame.channel_fp);
  q += kFrameFixedBytes;
  if (frame.has_channel) {
    const usize h_bytes = frame.h.size() * sizeof(cplx);
    std::memcpy(q, frame.h.data(), h_bytes);
    q += h_bytes;
  }
  std::memcpy(q, frame.y.data(), frame.y.size() * sizeof(cplx));
}

void encode_response(const WireResponse& resp, std::vector<std::uint8_t>& out) {
  SD_CHECK(resp.indices.size() <= kMaxWireDim,
           "wire response carries too many indices");
  const usize index_bytes = resp.indices.size() * sizeof(std::uint32_t);
  const usize total = 4 + kEnvelopeBytes + kResponseFixedBytes + index_bytes;
  const usize start = out.size();
  out.resize(start + total);
  std::uint8_t* p = out.data() + start;
  put_envelope(p, total, WireType::kResponse);
  std::uint8_t* q = p + 4 + kEnvelopeBytes;
  store(q, resp.frame_id);
  store(q + 8, resp.cell_id);
  q[12] = static_cast<std::uint8_t>(resp.status);
  q[13] = static_cast<std::uint8_t>(resp.tier);
  q[14] = static_cast<std::uint8_t>(resp.qos);
  q[15] = 0;  // reserved
  store(q + 16, resp.metric);
  store(q + 24, static_cast<std::uint16_t>(resp.indices.size()));
  if (index_bytes > 0)
    std::memcpy(q + kResponseFixedBytes, resp.indices.data(), index_bytes);
}

WireDecoder::WireDecoder(usize max_message_bytes)
    : max_message_(max_message_bytes) {}

void WireDecoder::feed(const std::uint8_t* data, usize n) {
  if (error_ != WireError::kNone || n == 0) return;
  // Compact once the consumed prefix dominates, so the buffer stays bounded
  // by one message plus one read chunk instead of growing with the stream.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

WireDecoder::Next WireDecoder::fail(WireError e) noexcept {
  error_ = e;
  return Next::kError;
}

WireDecoder::Next WireDecoder::next(WireFrame& frame, WireResponse& resp) {
  if (error_ != WireError::kNone) return Next::kError;
  const usize avail = buf_.size() - pos_;
  if (avail < 4) return Next::kNeedMore;
  const std::uint8_t* base = buf_.data() + pos_;
  const std::uint32_t len = load<std::uint32_t>(base);
  // The length check runs BEFORE waiting for the payload: a hostile 4 GiB
  // prefix must not make the server buffer anything.
  if (len > max_message_) return fail(WireError::kOversized);
  if (len < kEnvelopeBytes) return fail(WireError::kTruncated);
  if (avail < 4 + static_cast<usize>(len)) return Next::kNeedMore;

  const std::uint8_t* p = base + 4;
  if (load<std::uint32_t>(p) != kWireMagic) return fail(WireError::kBadMagic);
  if (p[4] != kWireVersion) return fail(WireError::kBadVersion);
  const std::uint8_t type = p[5];
  const std::uint8_t* payload = p + kEnvelopeBytes;
  const usize payload_len = len - kEnvelopeBytes;

  Next result = Next::kError;
  switch (type) {
    case static_cast<std::uint8_t>(WireType::kFrame):
      result = parse_frame(payload, payload_len, frame);
      break;
    case static_cast<std::uint8_t>(WireType::kResponse):
      result = parse_response(payload, payload_len, resp);
      break;
    default:
      return fail(WireError::kBadType);
  }
  if (result != Next::kError) pos_ += 4 + static_cast<usize>(len);
  return result;
}

WireDecoder::Next WireDecoder::parse_frame(const std::uint8_t* p, usize n,
                                           WireFrame& frame) {
  if (n < kFrameFixedBytes) return fail(WireError::kTruncated);
  frame.cell_id = load<std::uint32_t>(p);
  frame.frame_id = load<std::uint64_t>(p + 4);
  const std::uint8_t qos = p[12];
  const std::uint8_t flags = p[13];
  const std::uint16_t rows = load<std::uint16_t>(p + 14);
  const std::uint16_t cols = load<std::uint16_t>(p + 16);
  if (!qos_class_valid(qos)) return fail(WireError::kBadField);
  if ((flags & ~kKnownFlags) != 0) return fail(WireError::kBadField);
  if (rows < 1 || rows > kMaxWireDim || cols < 1 || cols > kMaxWireDim)
    return fail(WireError::kBadField);
  frame.qos = static_cast<QosClass>(qos);
  frame.has_channel = (flags & kFlagHasChannel) != 0;
  frame.deadline_s = load<double>(p + 20);
  frame.sigma2 = load<double>(p + 28);
  frame.channel_fp = load<std::uint64_t>(p + 36);
  // A detector needs a positive, finite noise variance: sigma2 = 0 sends a
  // noise-scaled radius to zero and an unbounded search to its frontier cap.
  if (!(frame.deadline_s >= 0.0) || !(frame.sigma2 > 0.0) ||
      !std::isfinite(frame.sigma2))
    return fail(WireError::kBadField);  // also rejects NaN

  const usize h_bytes = frame.has_channel
                            ? usize{rows} * usize{cols} * 2 * sizeof(float)
                            : 0;
  const usize y_bytes = usize{rows} * 2 * sizeof(float);
  if (n != kFrameFixedBytes + h_bytes + y_bytes)
    return fail(WireError::kBadLength);

  const std::uint8_t* q = p + kFrameFixedBytes;
  if (frame.has_channel) {
    frame.h.reshape(rows, cols);
    std::memcpy(frame.h.data(), q, h_bytes);
    if (!all_finite(frame.h.data(), frame.h.size()))
      return fail(WireError::kBadField);
    // The declared fingerprint must be the content hash of the shipped
    // bytes; otherwise later by-reference frames would silently bind to the
    // wrong channel. Verified here, at the protocol boundary.
    if (channel_fingerprint(frame.h) != frame.channel_fp)
      return fail(WireError::kFingerprintMismatch);
    q += h_bytes;
  } else {
    frame.h.reshape(0, 0);
  }
  frame.y.resize(rows);
  std::memcpy(frame.y.data(), q, y_bytes);
  if (!all_finite(frame.y.data(), frame.y.size()))
    return fail(WireError::kBadField);
  return Next::kFrame;
}

WireDecoder::Next WireDecoder::parse_response(const std::uint8_t* p, usize n,
                                              WireResponse& resp) {
  if (n < kResponseFixedBytes) return fail(WireError::kTruncated);
  resp.frame_id = load<std::uint64_t>(p);
  resp.cell_id = load<std::uint32_t>(p + 8);
  const std::uint8_t status = p[12];
  const std::uint8_t tier = p[13];
  const std::uint8_t qos = p[14];
  if (status > static_cast<std::uint8_t>(WireFrameStatus::kResendChannel))
    return fail(WireError::kBadField);
  if (tier > static_cast<std::uint8_t>(serve::DecodeTier::kLinear))
    return fail(WireError::kBadField);
  if (!qos_class_valid(qos)) return fail(WireError::kBadField);
  resp.status = static_cast<WireFrameStatus>(status);
  resp.tier = static_cast<serve::DecodeTier>(tier);
  resp.qos = static_cast<QosClass>(qos);
  resp.metric = load<double>(p + 16);
  const std::uint16_t count = load<std::uint16_t>(p + 24);
  if (count > kMaxWireDim) return fail(WireError::kBadField);
  if (n != kResponseFixedBytes + usize{count} * 4)
    return fail(WireError::kBadLength);
  resp.indices.resize(count);
  if (count > 0)
    std::memcpy(resp.indices.data(), p + kResponseFixedBytes,
                usize{count} * sizeof(std::uint32_t));
  return Next::kResponse;
}

}  // namespace sd::net
