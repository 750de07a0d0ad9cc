#include "net/wire.hpp"

#include <bit>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "decode/channel_prep.hpp"

namespace sd::net {

namespace {

// Explicit little-endian serialization: the wire format is defined, not
// "whatever this host's memcpy does", so heterogeneous peers interoperate.

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_f32(std::vector<std::uint8_t>& out, float v) {
  put_u32(out, std::bit_cast<std::uint32_t>(v));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

[[nodiscard]] std::uint16_t get_u16(const std::uint8_t* p) noexcept {
  return static_cast<std::uint16_t>(p[0] | (std::uint16_t{p[1]} << 8));
}

[[nodiscard]] std::uint32_t get_u32(const std::uint8_t* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

[[nodiscard]] std::uint64_t get_u64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

[[nodiscard]] float get_f32(const std::uint8_t* p) noexcept {
  return std::bit_cast<float>(get_u32(p));
}

[[nodiscard]] double get_f64(const std::uint8_t* p) noexcept {
  return std::bit_cast<double>(get_u64(p));
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

void put_envelope(std::vector<std::uint8_t>& out, WireType type) {
  put_u32(out, kWireMagic);
  out.push_back(kWireVersion);
  out.push_back(static_cast<std::uint8_t>(type));
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

  const usize start = out.size();
  put_u32(out, 0);  // length back-patched below
  put_envelope(out, WireType::kFrame);
  put_u32(out, frame.cell_id);
  put_u64(out, frame.frame_id);
  out.push_back(static_cast<std::uint8_t>(frame.qos));
  out.push_back(frame.has_channel ? kFlagHasChannel : 0);
  put_u16(out, static_cast<std::uint16_t>(rows));
  put_u16(out, static_cast<std::uint16_t>(cols));
  put_u16(out, 0);  // reserved
  put_f64(out, frame.deadline_s);
  put_f64(out, frame.sigma2);
  put_u64(out, frame.channel_fp);
  if (frame.has_channel) {
    for (index_t r = 0; r < rows; ++r) {
      for (index_t c = 0; c < cols; ++c) {
        put_f32(out, frame.h(r, c).real());
        put_f32(out, frame.h(r, c).imag());
      }
    }
  }
  for (const cplx& v : frame.y) {
    put_f32(out, v.real());
    put_f32(out, v.imag());
  }
  const auto len = static_cast<std::uint32_t>(out.size() - start - 4);
  for (int i = 0; i < 4; ++i)
    out[start + static_cast<usize>(i)] =
        static_cast<std::uint8_t>(len >> (8 * i));
}

void encode_response(const WireResponse& resp, std::vector<std::uint8_t>& out) {
  SD_CHECK(resp.indices.size() <= kMaxWireDim,
           "wire response carries too many indices");
  const usize start = out.size();
  put_u32(out, 0);
  put_envelope(out, WireType::kResponse);
  put_u64(out, resp.frame_id);
  put_u32(out, resp.cell_id);
  out.push_back(static_cast<std::uint8_t>(resp.status));
  out.push_back(static_cast<std::uint8_t>(resp.tier));
  out.push_back(static_cast<std::uint8_t>(resp.qos));
  out.push_back(0);  // reserved
  put_f64(out, resp.metric);
  put_u16(out, static_cast<std::uint16_t>(resp.indices.size()));
  for (index_t idx : resp.indices)
    put_u32(out, static_cast<std::uint32_t>(idx));
  const auto len = static_cast<std::uint32_t>(out.size() - start - 4);
  for (int i = 0; i < 4; ++i)
    out[start + static_cast<usize>(i)] =
        static_cast<std::uint8_t>(len >> (8 * i));
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
  const std::uint32_t len = get_u32(base);
  // The length check runs BEFORE waiting for the payload: a hostile 4 GiB
  // prefix must not make the server buffer anything.
  if (len > max_message_) return fail(WireError::kOversized);
  if (len < kEnvelopeBytes) return fail(WireError::kTruncated);
  if (avail < 4 + static_cast<usize>(len)) return Next::kNeedMore;

  const std::uint8_t* p = base + 4;
  if (get_u32(p) != kWireMagic) return fail(WireError::kBadMagic);
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
  frame.cell_id = get_u32(p);
  frame.frame_id = get_u64(p + 4);
  const std::uint8_t qos = p[12];
  const std::uint8_t flags = p[13];
  const std::uint16_t rows = get_u16(p + 14);
  const std::uint16_t cols = get_u16(p + 16);
  if (!qos_class_valid(qos)) return fail(WireError::kBadField);
  if ((flags & ~kKnownFlags) != 0) return fail(WireError::kBadField);
  if (rows < 1 || rows > kMaxWireDim || cols < 1 || cols > kMaxWireDim)
    return fail(WireError::kBadField);
  frame.qos = static_cast<QosClass>(qos);
  frame.has_channel = (flags & kFlagHasChannel) != 0;
  frame.deadline_s = get_f64(p + 20);
  frame.sigma2 = get_f64(p + 28);
  frame.channel_fp = get_u64(p + 36);
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
    for (index_t r = 0; r < rows; ++r) {
      for (index_t c = 0; c < cols; ++c) {
        const float re = get_f32(q);
        const float im = get_f32(q + 4);
        if (!std::isfinite(re) || !std::isfinite(im))
          return fail(WireError::kBadField);
        frame.h(r, c) = cplx(re, im);
        q += 8;
      }
    }
    // The declared fingerprint must be the content hash of the shipped
    // bytes; otherwise later by-reference frames would silently bind to the
    // wrong channel. Verified here, at the protocol boundary.
    if (channel_fingerprint(frame.h) != frame.channel_fp)
      return fail(WireError::kFingerprintMismatch);
  } else {
    frame.h.reshape(0, 0);
  }
  frame.y.resize(rows);
  for (std::uint16_t r = 0; r < rows; ++r) {
    const float re = get_f32(q);
    const float im = get_f32(q + 4);
    if (!std::isfinite(re) || !std::isfinite(im))
      return fail(WireError::kBadField);
    frame.y[r] = cplx(re, im);
    q += 8;
  }
  return Next::kFrame;
}

WireDecoder::Next WireDecoder::parse_response(const std::uint8_t* p, usize n,
                                              WireResponse& resp) {
  if (n < kResponseFixedBytes) return fail(WireError::kTruncated);
  resp.frame_id = get_u64(p);
  resp.cell_id = get_u32(p + 8);
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
  resp.metric = get_f64(p + 16);
  const std::uint16_t count = get_u16(p + 24);
  if (count > kMaxWireDim) return fail(WireError::kBadField);
  if (n != kResponseFixedBytes + usize{count} * 4)
    return fail(WireError::kBadLength);
  const std::uint8_t* q = p + kResponseFixedBytes;
  resp.indices.resize(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    resp.indices[i] = static_cast<index_t>(get_u32(q));
    q += 4;
  }
  return Next::kResponse;
}

}  // namespace sd::net
