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

}  // namespace
}  // namespace sd::net
