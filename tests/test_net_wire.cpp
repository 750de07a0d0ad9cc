// Wire protocol codec: roundtrip fidelity and malformed-input hardening.
//
// The decoder is the network trust boundary — every test in the hardening
// half hands it hostile bytes (truncated, oversized, corrupted, inconsistent)
// and asserts it poisons itself with the right typed error instead of
// crashing, over-buffering, or yielding a bogus message. Offsets below follow
// the layout in DESIGN.md §13: [u32 len][u32 magic][u8 ver][u8 type][payload],
// frame payload = cell u32 @10, frame_id u64 @14, qos @22, flags @23,
// rows u16 @24, cols u16 @26, reserved u16 @28, deadline f64 @30,
// sigma2 f64 @38, fp u64 @46, then optional H, then y.
#include "net/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "decode/channel_prep.hpp"
#include "mimo/scenario.hpp"

namespace sd::net {
namespace {

constexpr index_t kM = 4;

Trial make_trial(std::uint64_t seed = 7) {
  ScenarioConfig sc;
  sc.num_tx = kM;
  sc.num_rx = kM;
  sc.seed = seed;
  Scenario scenario(sc);
  return scenario.next();
}

WireFrame make_frame(const Trial& t, bool with_channel = true) {
  WireFrame f;
  f.cell_id = 3;
  f.frame_id = 42;
  f.qos = QosClass::kHard;
  f.has_channel = with_channel;
  f.deadline_s = 0.01;
  f.sigma2 = t.sigma2;
  f.channel_fp = channel_fingerprint(t.h);
  if (with_channel) f.h = t.h;
  f.y = t.y;
  return f;
}

std::vector<std::uint8_t> encode(const WireFrame& f) {
  std::vector<std::uint8_t> buf;
  encode_frame(f, buf);
  return buf;
}

/// Feeds everything, expects exactly one frame.
WireDecoder::Next decode_one(const std::vector<std::uint8_t>& bytes,
                             WireFrame& f, WireResponse& r, WireDecoder& dec) {
  dec.feed(bytes.data(), bytes.size());
  return dec.next(f, r);
}

TEST(NetWire, FrameRoundtripWithChannel) {
  const Trial t = make_trial();
  const WireFrame sent = make_frame(t);
  const std::vector<std::uint8_t> bytes = encode(sent);
  EXPECT_EQ(bytes.size(), encoded_frame_bytes(kM, kM, true));

  WireDecoder dec;
  WireFrame got;
  WireResponse resp;
  ASSERT_EQ(decode_one(bytes, got, resp, dec), WireDecoder::Next::kFrame);
  EXPECT_EQ(got.cell_id, sent.cell_id);
  EXPECT_EQ(got.frame_id, sent.frame_id);
  EXPECT_EQ(got.qos, sent.qos);
  EXPECT_TRUE(got.has_channel);
  EXPECT_DOUBLE_EQ(got.deadline_s, sent.deadline_s);
  EXPECT_DOUBLE_EQ(got.sigma2, sent.sigma2);
  EXPECT_EQ(got.channel_fp, sent.channel_fp);
  ASSERT_EQ(got.h.rows(), kM);
  ASSERT_EQ(got.h.cols(), kM);
  for (index_t r = 0; r < kM; ++r)
    for (index_t c = 0; c < kM; ++c) EXPECT_EQ(got.h(r, c), sent.h(r, c));
  EXPECT_EQ(got.y, sent.y);
  EXPECT_EQ(dec.buffered(), 0u);
  EXPECT_EQ(dec.next(got, resp), WireDecoder::Next::kNeedMore);
}

TEST(NetWire, FrameRoundtripChannelElided) {
  const Trial t = make_trial();
  const WireFrame sent = make_frame(t, /*with_channel=*/false);
  const std::vector<std::uint8_t> bytes = encode(sent);
  EXPECT_EQ(bytes.size(), encoded_frame_bytes(kM, kM, false));
  EXPECT_LT(bytes.size(), encoded_frame_bytes(kM, kM, true));

  WireDecoder dec;
  WireFrame got;
  WireResponse resp;
  ASSERT_EQ(decode_one(bytes, got, resp, dec), WireDecoder::Next::kFrame);
  EXPECT_FALSE(got.has_channel);
  EXPECT_TRUE(got.h.empty());
  EXPECT_EQ(got.channel_fp, sent.channel_fp);
  EXPECT_EQ(got.y, sent.y);
}

TEST(NetWire, ResponseRoundtrip) {
  WireResponse sent;
  sent.frame_id = 99;
  sent.cell_id = 7;
  sent.status = WireFrameStatus::kExpiredFallback;
  sent.tier = serve::DecodeTier::kKBest;
  sent.qos = QosClass::kSoft;
  sent.metric = 12.75;
  sent.indices = {0, 3, 1, 2};
  std::vector<std::uint8_t> bytes;
  encode_response(sent, bytes);

  WireDecoder dec;
  WireFrame frame;
  WireResponse got;
  dec.feed(bytes.data(), bytes.size());
  ASSERT_EQ(dec.next(frame, got), WireDecoder::Next::kResponse);
  EXPECT_EQ(got.frame_id, sent.frame_id);
  EXPECT_EQ(got.cell_id, sent.cell_id);
  EXPECT_EQ(got.status, sent.status);
  EXPECT_EQ(got.tier, sent.tier);
  EXPECT_EQ(got.qos, sent.qos);
  EXPECT_DOUBLE_EQ(got.metric, sent.metric);
  EXPECT_EQ(got.indices, sent.indices);
}

TEST(NetWire, ResponseWithNoIndicesAndInfiniteMetric) {
  WireResponse sent;
  sent.status = WireFrameStatus::kShed;
  sent.metric = std::numeric_limits<double>::infinity();
  std::vector<std::uint8_t> bytes;
  encode_response(sent, bytes);
  WireDecoder dec;
  WireFrame frame;
  WireResponse got;
  dec.feed(bytes.data(), bytes.size());
  ASSERT_EQ(dec.next(frame, got), WireDecoder::Next::kResponse);
  EXPECT_TRUE(got.indices.empty());
  EXPECT_TRUE(std::isinf(got.metric));
}

// Partial reads: any read() boundary must be survivable. Byte-at-a-time is
// the worst case and subsumes every other split.
TEST(NetWire, ByteAtATimeFeedYieldsIdenticalMessages) {
  const Trial t = make_trial();
  std::vector<std::uint8_t> bytes = encode(make_frame(t));
  WireResponse r0;
  r0.frame_id = 5;
  r0.indices = {1, 2};
  encode_response(r0, bytes);

  WireDecoder dec;
  WireFrame frame;
  WireResponse resp;
  usize frames = 0, responses = 0;
  for (const std::uint8_t b : bytes) {
    dec.feed(&b, 1);
    for (;;) {
      const WireDecoder::Next what = dec.next(frame, resp);
      if (what == WireDecoder::Next::kNeedMore) break;
      ASSERT_NE(what, WireDecoder::Next::kError)
          << wire_error_name(dec.error());
      if (what == WireDecoder::Next::kFrame) ++frames;
      if (what == WireDecoder::Next::kResponse) ++responses;
    }
  }
  EXPECT_EQ(frames, 1u);
  EXPECT_EQ(responses, 1u);
  EXPECT_EQ(resp.frame_id, 5u);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(NetWire, BackToBackMessagesInOneFeed) {
  const Trial t = make_trial();
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < 3; ++i) {
    WireFrame f = make_frame(t, i == 0);  // first ships H, rest reference
    f.frame_id = static_cast<std::uint64_t>(i);
    encode_frame(f, bytes);
  }
  WireDecoder dec;
  WireFrame frame;
  WireResponse resp;
  dec.feed(bytes.data(), bytes.size());
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_EQ(dec.next(frame, resp), WireDecoder::Next::kFrame);
    EXPECT_EQ(frame.frame_id, i);
  }
  EXPECT_EQ(dec.next(frame, resp), WireDecoder::Next::kNeedMore);
}

// --- hostile input ---

TEST(NetWire, IncompleteMessageIsNeedMoreNotError) {
  const std::vector<std::uint8_t> bytes = encode(make_frame(make_trial()));
  WireDecoder dec;
  WireFrame frame;
  WireResponse resp;
  dec.feed(bytes.data(), bytes.size() - 1);  // everything but the last byte
  EXPECT_EQ(dec.next(frame, resp), WireDecoder::Next::kNeedMore);
  EXPECT_EQ(dec.error(), WireError::kNone);
}

TEST(NetWire, OversizedLengthPrefixPoisonsBeforeBuffering) {
  // A hostile 4 GiB-ish length prefix must fail from the prefix alone.
  const std::vector<std::uint8_t> bytes = {0xFF, 0xFF, 0xFF, 0xFF};
  WireDecoder dec;
  WireFrame frame;
  WireResponse resp;
  ASSERT_EQ(decode_one(bytes, frame, resp, dec), WireDecoder::Next::kError);
  EXPECT_EQ(dec.error(), WireError::kOversized);
}

TEST(NetWire, LengthSmallerThanEnvelopeIsTruncated) {
  std::vector<std::uint8_t> bytes = {3, 0, 0, 0, 0xAA, 0xBB, 0xCC};
  WireDecoder dec;
  WireFrame frame;
  WireResponse resp;
  ASSERT_EQ(decode_one(bytes, frame, resp, dec), WireDecoder::Next::kError);
  EXPECT_EQ(dec.error(), WireError::kTruncated);
}

TEST(NetWire, PayloadShorterThanFixedHeaderIsTruncated) {
  // Valid envelope declaring a kFrame with a 2-byte payload.
  std::vector<std::uint8_t> bytes = encode(make_frame(make_trial()));
  const std::uint32_t len = 6 + 2;  // envelope + 2 payload bytes
  for (int i = 0; i < 4; ++i)
    bytes[static_cast<usize>(i)] = static_cast<std::uint8_t>(len >> (8 * i));
  bytes.resize(4 + len);
  WireDecoder dec;
  WireFrame frame;
  WireResponse resp;
  ASSERT_EQ(decode_one(bytes, frame, resp, dec), WireDecoder::Next::kError);
  EXPECT_EQ(dec.error(), WireError::kTruncated);
}

TEST(NetWire, CorruptedMagicVersionType) {
  const std::vector<std::uint8_t> good = encode(make_frame(make_trial()));
  struct Case {
    usize offset;
    std::uint8_t value;
    WireError expect;
  };
  const Case cases[] = {
      {4, 0x00, WireError::kBadMagic},    // magic byte 0
      {8, 99, WireError::kBadVersion},    // version
      {9, 77, WireError::kBadType},       // type
  };
  for (const Case& c : cases) {
    std::vector<std::uint8_t> bytes = good;
    bytes[c.offset] = c.value;
    WireDecoder dec;
    WireFrame frame;
    WireResponse resp;
    ASSERT_EQ(decode_one(bytes, frame, resp, dec), WireDecoder::Next::kError);
    EXPECT_EQ(dec.error(), c.expect) << "offset " << c.offset;
  }
}

TEST(NetWire, OutOfRangeFieldsAreBadField) {
  const std::vector<std::uint8_t> good = encode(make_frame(make_trial()));
  struct Case {
    usize offset;
    std::uint8_t value;
  };
  const Case cases[] = {
      {22, 9},     // qos out of range
      {23, 0x80},  // unknown flag bit
      {24, 0},     // rows = 0 (low byte; high byte already 0)
  };
  for (const Case& c : cases) {
    std::vector<std::uint8_t> bytes = good;
    bytes[c.offset] = c.value;
    WireDecoder dec;
    WireFrame frame;
    WireResponse resp;
    ASSERT_EQ(decode_one(bytes, frame, resp, dec), WireDecoder::Next::kError);
    EXPECT_EQ(dec.error(), WireError::kBadField) << "offset " << c.offset;
  }
}

TEST(NetWire, NaNDeadlineIsBadField) {
  std::vector<std::uint8_t> bytes = encode(make_frame(make_trial()));
  const std::uint64_t nan_bits = 0x7FF8000000000000ull;
  for (int i = 0; i < 8; ++i)
    bytes[30 + static_cast<usize>(i)] =
        static_cast<std::uint8_t>(nan_bits >> (8 * i));
  WireDecoder dec;
  WireFrame frame;
  WireResponse resp;
  ASSERT_EQ(decode_one(bytes, frame, resp, dec), WireDecoder::Next::kError);
  EXPECT_EQ(dec.error(), WireError::kBadField);
}

/// Encodes `f` and expects the decoder to poison itself with kBadField.
void expect_bad_field(const WireFrame& f, const char* what) {
  WireDecoder dec;
  WireFrame frame;
  WireResponse resp;
  ASSERT_EQ(decode_one(encode(f), frame, resp, dec), WireDecoder::Next::kError)
      << what;
  EXPECT_EQ(dec.error(), WireError::kBadField) << what;
}

TEST(NetWire, Sigma2ThatIsNotFiniteAndPositiveIsBadField) {
  const Trial t = make_trial();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double s2 : {0.0, -0.0, -1.0, -inf, inf,
                          std::numeric_limits<double>::quiet_NaN()}) {
    WireFrame f = make_frame(t);
    f.sigma2 = s2;
    expect_bad_field(f, std::to_string(s2).c_str());
  }
  // The smallest positive variance is still a valid frame.
  WireFrame f = make_frame(t);
  f.sigma2 = std::numeric_limits<double>::denorm_min();
  WireDecoder dec;
  WireFrame got;
  WireResponse resp;
  ASSERT_EQ(decode_one(encode(f), got, resp, dec), WireDecoder::Next::kFrame);
  EXPECT_EQ(got.sigma2, f.sigma2);
}

TEST(NetWire, NonFiniteChannelEntryIsBadField) {
  const Trial t = make_trial();
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const cplx bad : {cplx{nan, 0}, cplx{0, nan}, cplx{inf, 0},
                         cplx{0, -inf}}) {
    WireFrame f = make_frame(t);
    f.h(kM - 1, 2) = bad;
    // An honest fingerprint: the value, not the hash, is what is wrong.
    f.channel_fp = channel_fingerprint(f.h);
    expect_bad_field(f, "H");
  }
}

TEST(NetWire, NonFiniteReceivedSampleIsBadField) {
  const Trial t = make_trial();
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const bool with_channel : {true, false}) {
    for (const cplx bad : {cplx{nan, 0}, cplx{0, inf}, cplx{-inf, 0}}) {
      WireFrame f = make_frame(t, with_channel);
      if (!with_channel) f.h = t.h;  // gives the encoder the real cols
      f.y[1] = bad;
      expect_bad_field(f, with_channel ? "y with H" : "y, H elided");
    }
  }
}

TEST(NetWire, LengthInconsistentWithDimensionsIsBadLength) {
  // Shrink cols from 4 to 3 without re-sizing the payload: the declared
  // dimensions no longer match the message length.
  std::vector<std::uint8_t> bytes = encode(make_frame(make_trial()));
  bytes[26] = 3;
  WireDecoder dec;
  WireFrame frame;
  WireResponse resp;
  ASSERT_EQ(decode_one(bytes, frame, resp, dec), WireDecoder::Next::kError);
  EXPECT_EQ(dec.error(), WireError::kBadLength);
}

TEST(NetWire, ForgedFingerprintIsRejected) {
  const Trial t = make_trial();
  WireFrame f = make_frame(t);
  f.channel_fp ^= 0xDEADBEEF;  // encoder ships it unverified — receiver's job
  const std::vector<std::uint8_t> bytes = encode(f);
  WireDecoder dec;
  WireFrame frame;
  WireResponse resp;
  ASSERT_EQ(decode_one(bytes, frame, resp, dec), WireDecoder::Next::kError);
  EXPECT_EQ(dec.error(), WireError::kFingerprintMismatch);
}

TEST(NetWire, CorruptedChannelBytesFailTheFingerprint) {
  std::vector<std::uint8_t> bytes = encode(make_frame(make_trial()));
  bytes[60] ^= 0x01;  // one bit inside H
  WireDecoder dec;
  WireFrame frame;
  WireResponse resp;
  ASSERT_EQ(decode_one(bytes, frame, resp, dec), WireDecoder::Next::kError);
  EXPECT_EQ(dec.error(), WireError::kFingerprintMismatch);
}

TEST(NetWire, PoisonedDecoderStaysPoisoned) {
  const std::vector<std::uint8_t> bad = {0xFF, 0xFF, 0xFF, 0xFF};
  const std::vector<std::uint8_t> good = encode(make_frame(make_trial()));
  WireDecoder dec;
  WireFrame frame;
  WireResponse resp;
  ASSERT_EQ(decode_one(bad, frame, resp, dec), WireDecoder::Next::kError);
  // A stream cannot be resynchronized after a framing error: even perfectly
  // valid bytes fed afterwards must keep returning kError.
  dec.feed(good.data(), good.size());
  EXPECT_EQ(dec.next(frame, resp), WireDecoder::Next::kError);
  EXPECT_EQ(dec.next(frame, resp), WireDecoder::Next::kError);
  EXPECT_EQ(dec.error(), WireError::kOversized);
}

TEST(NetWire, DecoderHonorsCustomMessageCeiling) {
  const std::vector<std::uint8_t> bytes = encode(make_frame(make_trial()));
  WireDecoder dec(/*max_message_bytes=*/32);  // frame is larger than this
  WireFrame frame;
  WireResponse resp;
  dec.feed(bytes.data(), bytes.size());
  ASSERT_EQ(dec.next(frame, resp), WireDecoder::Next::kError);
  EXPECT_EQ(dec.error(), WireError::kOversized);
}

TEST(NetWire, BufferCompactionKeepsStreamIntact) {
  // Many messages fed in slivers force the consumed-prefix compaction path;
  // every message must still come out intact and in order.
  const Trial t = make_trial();
  std::vector<std::uint8_t> bytes;
  constexpr usize kN = 64;
  for (usize i = 0; i < kN; ++i) {
    WireFrame f = make_frame(t, i % 4 == 0);
    f.frame_id = i;
    encode_frame(f, bytes);
  }
  WireDecoder dec;
  WireFrame frame;
  WireResponse resp;
  usize got = 0;
  usize pos = 0;
  while (pos < bytes.size()) {
    const usize n = std::min<usize>(37, bytes.size() - pos);  // odd stride
    dec.feed(bytes.data() + pos, n);
    pos += n;
    for (;;) {
      const WireDecoder::Next what = dec.next(frame, resp);
      if (what == WireDecoder::Next::kNeedMore) break;
      ASSERT_EQ(what, WireDecoder::Next::kFrame);
      EXPECT_EQ(frame.frame_id, got);
      ++got;
    }
  }
  EXPECT_EQ(got, kN);
}

// Golden bytes recorded from the version-1 codec (the byte-at-a-time
// encoder, before the bulk memcpy encoder replaced it) for fixed inputs.
// Version 2 changes exactly two things on the wire: the version byte and
// the value of the fingerprint field, which now carries the lane hash.
constexpr usize kVersionByte = 8;
constexpr usize kFpOffset = 46;

const std::vector<std::uint8_t> kV1FrameWithChannel = {
    0x7a, 0x00, 0x00, 0x00, 0x46, 0x4e, 0x44, 0x53, 0x01, 0x01, 0x04, 0x03,
    0x02, 0x01, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, 0x01, 0x01,
    0x03, 0x00, 0x02, 0x00, 0x00, 0x00, 0x9a, 0x99, 0x99, 0x99, 0x99, 0x99,
    0x89, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xa0, 0x3f, 0x8d, 0x3f,
    0x51, 0xae, 0x7d, 0x83, 0xe7, 0x1a, 0x00, 0x00, 0xc0, 0x3f, 0x00, 0x00,
    0x10, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x60, 0x42,
    0xa2, 0x0d, 0xe6, 0xb1, 0x61, 0x7f, 0x00, 0x00, 0xe4, 0xc0, 0xcd, 0xcc,
    0xcc, 0x3d, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0xbf, 0x00, 0xe0,
    0x7f, 0x47, 0xfa, 0x7e, 0xaa, 0xbe, 0x00, 0x00, 0x00, 0x3f, 0x00, 0x00,
    0x00, 0xbf, 0x00, 0x00, 0x00, 0x80, 0x00, 0x00, 0x00, 0x40, 0x08, 0xe5,
    0x3c, 0x1e, 0x00, 0x00, 0x60, 0xc0,
};

const std::vector<std::uint8_t> kV1FrameElided = {
    0x4a, 0x00, 0x00, 0x00, 0x46, 0x4e, 0x44, 0x53, 0x01, 0x01, 0x04, 0x03,
    0x02, 0x01, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x02, 0x00, 0x00, 0x00, 0x9a, 0x99, 0x99, 0x99, 0x99, 0x99,
    0x89, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xa0, 0x3f, 0x8d, 0x3f,
    0x51, 0xae, 0x7d, 0x83, 0xe7, 0x1a, 0x00, 0x00, 0x00, 0x3f, 0x00, 0x00,
    0x00, 0xbf, 0x00, 0x00, 0x00, 0x80, 0x00, 0x00, 0x00, 0x40, 0x08, 0xe5,
    0x3c, 0x1e, 0x00, 0x00, 0x60, 0xc0,
};

const std::vector<std::uint8_t> kV1Response = {
    0x38, 0x00, 0x00, 0x00, 0x46, 0x4e, 0x44, 0x53, 0x01, 0x02, 0x18, 0x07,
    0xf6, 0xe5, 0xd4, 0xc3, 0xb2, 0xa1, 0x4d, 0x00, 0x00, 0x00, 0x01, 0x02,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x29, 0xc0, 0x06, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x0f, 0x00, 0x00, 0x00,
    0x3f, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x45, 0x23, 0x01, 0x00,
};

/// channel_fingerprint of golden_channel(): pinned so a change of the hash
/// (which needs a new kWireVersion) cannot pass unnoticed.
constexpr std::uint64_t kGoldenFpV2 = 0x5C988D09C5E15433ull;

CMat golden_channel() {
  CMat h(3, 2);
  const float vals[12] = {1.5f,     -2.25f, 0.0f,     -0.0f,   1e-30f, 3.0e38f,
                          -7.125f,  0.1f,   1.4e-45f, -1.0f,   65504.0f,
                          -0.333f};
  for (index_t r = 0; r < 3; ++r)
    for (index_t c = 0; c < 2; ++c)
      h(r, c) = cplx(vals[(r * 2 + c) * 2], vals[(r * 2 + c) * 2 + 1]);
  return h;
}

WireFrame golden_frame(bool with_channel) {
  WireFrame f;
  f.cell_id = 0x01020304u;
  f.frame_id = with_channel ? 0x1122334455667788ull : 5;
  f.qos = with_channel ? QosClass::kSoft : QosClass::kHard;
  f.has_channel = with_channel;
  f.deadline_s = 0.0125;
  f.sigma2 = 0.03125;
  f.h = golden_channel();
  f.channel_fp = channel_fingerprint(f.h);
  f.y = {cplx(0.5f, -0.5f), cplx(-0.0f, 2.0f), cplx(1e-20f, -3.5f)};
  return f;
}

/// `got` equals the version-1 bytes except the version byte (now
/// kWireVersion) and, for frames, the fingerprint field (now `fp`).
void expect_v1_bytes_except_version_and_fp(
    const std::vector<std::uint8_t>& got, const std::vector<std::uint8_t>& v1,
    bool has_fp_field, std::uint64_t fp) {
  ASSERT_EQ(got.size(), v1.size());
  EXPECT_EQ(v1[kVersionByte], 1);
  EXPECT_EQ(got[kVersionByte], kWireVersion);
  for (usize i = 0; i < got.size(); ++i) {
    if (i == kVersionByte) continue;
    if (has_fp_field && i >= kFpOffset && i < kFpOffset + 8) {
      EXPECT_EQ(got[i], static_cast<std::uint8_t>(fp >> (8 * (i - kFpOffset))))
          << "fingerprint byte " << i - kFpOffset;
      continue;
    }
    EXPECT_EQ(got[i], v1[i]) << "byte " << i;
  }
}

TEST(WireGolden, FrameWithChannelMatchesVersion1Bytes) {
  const WireFrame f = golden_frame(true);
  EXPECT_EQ(f.channel_fp, kGoldenFpV2);
  std::vector<std::uint8_t> out = {0xEE};  // appends after existing bytes
  encode_frame(f, out);
  ASSERT_EQ(out[0], 0xEE);
  out.erase(out.begin());
  expect_v1_bytes_except_version_and_fp(out, kV1FrameWithChannel, true,
                                        kGoldenFpV2);

  // And the decoder gives back every bit, signed zeros and subnormals too.
  WireDecoder dec;
  WireFrame got;
  WireResponse resp;
  ASSERT_EQ(decode_one(out, got, resp, dec), WireDecoder::Next::kFrame);
  ASSERT_EQ(got.h.rows(), 3);
  ASSERT_EQ(got.h.cols(), 2);
  EXPECT_EQ(std::memcmp(got.h.data(), f.h.data(), 6 * sizeof(cplx)), 0);
  ASSERT_EQ(got.y.size(), 3u);
  EXPECT_EQ(std::memcmp(got.y.data(), f.y.data(), 3 * sizeof(cplx)), 0);
  EXPECT_EQ(got.frame_id, f.frame_id);
  EXPECT_EQ(got.cell_id, f.cell_id);
  EXPECT_EQ(got.qos, f.qos);
  EXPECT_EQ(got.deadline_s, f.deadline_s);
  EXPECT_EQ(got.sigma2, f.sigma2);
}

TEST(WireGolden, ElidedFrameMatchesVersion1Bytes) {
  const WireFrame f = golden_frame(false);
  std::vector<std::uint8_t> out;
  encode_frame(f, out);
  expect_v1_bytes_except_version_and_fp(out, kV1FrameElided, true,
                                        kGoldenFpV2);
}

TEST(WireGolden, ResponseMatchesVersion1Bytes) {
  WireResponse r;
  r.frame_id = 0xA1B2C3D4E5F60718ull;
  r.cell_id = 77;
  r.status = WireFrameStatus::kExpiredFallback;
  r.tier = serve::DecodeTier::kMmseApprox;
  r.qos = QosClass::kSoft;
  r.metric = -12.75;
  r.indices = {0, 3, 15, 63, 1, 0x12345};
  std::vector<std::uint8_t> out;
  encode_response(r, out);
  expect_v1_bytes_except_version_and_fp(out, kV1Response, false, 0);

  WireDecoder dec;
  WireFrame frame;
  WireResponse got;
  dec.feed(out.data(), out.size());
  ASSERT_EQ(dec.next(frame, got), WireDecoder::Next::kResponse);
  EXPECT_EQ(got.indices, r.indices);
  EXPECT_EQ(got.metric, r.metric);
  EXPECT_EQ(got.frame_id, r.frame_id);
}

TEST(WireGolden, VersionOneMessagesAreRefused) {
  WireDecoder dec;
  WireFrame f;
  WireResponse r;
  EXPECT_EQ(decode_one(kV1FrameWithChannel, f, r, dec),
            WireDecoder::Next::kError);
  EXPECT_EQ(dec.error(), WireError::kBadVersion);
}

TEST(WireGolden, NonFiniteValueAtEveryPositionIsBadField) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const Trial t = make_trial(11);
  for (const float bad : {nan, inf, -inf}) {
    // Every float of H (real and imaginary parts).
    for (usize i = 0; i < 2 * t.h.size(); ++i) {
      WireFrame f = make_frame(t);
      reinterpret_cast<float*>(f.h.data())[i] = bad;
      f.channel_fp = channel_fingerprint(f.h);
      WireDecoder dec;
      WireFrame got;
      WireResponse r;
      ASSERT_EQ(decode_one(encode(f), got, r, dec), WireDecoder::Next::kError)
          << "H float " << i;
      EXPECT_EQ(dec.error(), WireError::kBadField) << "H float " << i;
    }
    // Every float of y, with H inline and elided.
    for (const bool with_channel : {true, false}) {
      for (usize i = 0; i < 2 * t.y.size(); ++i) {
        WireFrame f = make_frame(t, with_channel);
        reinterpret_cast<float*>(f.y.data())[i] = bad;
        WireDecoder dec;
        WireFrame got;
        WireResponse r;
        ASSERT_EQ(decode_one(encode(f), got, r, dec),
                  WireDecoder::Next::kError)
            << "y float " << i;
        EXPECT_EQ(dec.error(), WireError::kBadField) << "y float " << i;
      }
    }
  }
}

TEST(WireGolden, EveryWrongFingerprintBitIsAMismatch) {
  const Trial t = make_trial(12);
  for (int bit = 0; bit < 64; ++bit) {
    WireFrame f = make_frame(t);
    f.channel_fp ^= std::uint64_t{1} << bit;
    WireDecoder dec;
    WireFrame got;
    WireResponse r;
    ASSERT_EQ(decode_one(encode(f), got, r, dec), WireDecoder::Next::kError);
    EXPECT_EQ(dec.error(), WireError::kFingerprintMismatch) << "bit " << bit;
  }
}

TEST(WireGolden, TallChannelRoundTripsBitExactly) {
  ScenarioConfig sc;
  sc.num_tx = 8;
  sc.num_rx = 128;
  sc.seed = 13;
  const Trial t = Scenario(sc).next();
  WireFrame f = make_frame(t);
  const std::vector<std::uint8_t> bytes = encode(f);
  EXPECT_EQ(bytes.size(), encoded_frame_bytes(128, 8, true));
  WireDecoder dec;
  WireFrame got;
  WireResponse r;
  ASSERT_EQ(decode_one(bytes, got, r, dec), WireDecoder::Next::kFrame);
  EXPECT_EQ(std::memcmp(got.h.data(), t.h.data(), t.h.size() * sizeof(cplx)),
            0);
  EXPECT_EQ(std::memcmp(got.y.data(), t.y.data(), t.y.size() * sizeof(cplx)),
            0);
  // Re-encoding the decoded frame reproduces the bytes.
  EXPECT_EQ(encode(got), bytes);
}

}  // namespace
}  // namespace sd::net
