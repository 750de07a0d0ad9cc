// IngressServer end-to-end over real sockets: bit-identical detection vs
// direct decodes of the same seeded trials on both transports, zero loss
// under block backpressure, protocol-error isolation (one hostile connection
// cannot take the server down), channel-elision accounting, and graceful
// shutdown draining in-flight frames.
#include "net/ingress.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/spec_parse.hpp"
#include "core/sphere_decoder.hpp"
#include "mimo/scenario.hpp"
#include "net/client.hpp"

namespace sd::net {
namespace {

constexpr index_t kM = 6;

SystemConfig test_system() { return {kM, kM, Modulation::kQam4}; }

std::vector<Trial> make_trials(usize n, usize coherence = 1,
                               std::uint64_t seed = 42) {
  ScenarioConfig sc;
  sc.num_tx = kM;
  sc.num_rx = kM;
  sc.seed = seed;
  sc.coherence_block = coherence;
  Scenario scenario(sc);
  std::vector<Trial> trials;
  for (usize i = 0; i < n; ++i) trials.push_back(scenario.next());
  return trials;
}

std::string test_uds_path(const char* tag) {
  return "/tmp/sd_test_ingress." + std::to_string(::getpid()) + "." + tag +
         ".sock";
}

struct Harness {
  explicit Harness(ShardedServerOptions sho, IngressOptions io,
                   const char* spec = "sphere")
      : shards(test_system(), parse_decoder_spec(spec), sho),
        ingress(shards, std::move(io)) {
    ingress.start();
  }
  ShardedServer shards;
  IngressServer ingress;
};

ShardedServerOptions default_shards(usize n = 2, bool admission = false) {
  ShardedServerOptions o;
  o.num_shards = n;
  o.server.num_workers = 2;
  o.server.queue_capacity = 16;  // small: block backpressure gets exercised
  o.admission.enabled = admission;
  return o;
}

/// Streams `trials` closed-loop (window-bounded, reader thread) and returns
/// the responses keyed by frame id. Fails the test on any lost frame.
std::map<std::uint64_t, WireResponse> stream_frames(
    NetClient& client, const std::vector<Trial>& trials, usize coherence,
    usize window = 64, usize cells = 2) {
  const usize n = trials.size();
  std::vector<std::uint64_t> fps(n);
  for (usize i = 0; i < n; ++i) {
    fps[i] = (i % coherence == 0) ? channel_fingerprint(trials[i].h)
                                  : fps[i - 1];
  }
  std::map<std::uint64_t, WireResponse> responses;
  std::mutex mu;
  std::condition_variable cv;
  usize outstanding = 0;
  std::atomic<bool> reader_ok{true};
  std::thread reader([&] {
    WireResponse resp;
    usize got = 0;
    try {
      while (got < n && client.recv(resp)) {
        std::lock_guard<std::mutex> lock(mu);
        responses[resp.frame_id] = resp;
        ++got;
        --outstanding;
        cv.notify_all();
      }
    } catch (...) {
      reader_ok.store(false);
    }
    cv.notify_all();
  });
  for (usize i = 0; i < n; ++i) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return outstanding < window || !reader_ok; });
      if (!reader_ok) break;
      ++outstanding;
    }
    WireFrame wf;
    wf.cell_id = static_cast<std::uint32_t>((i / coherence) % cells);
    wf.frame_id = i;
    wf.qos = QosClass::kBestEffort;
    wf.sigma2 = trials[i].sigma2;
    wf.y = trials[i].y;
    if (!client.send_frame_auto(wf, trials[i].h, fps[i])) {
      ADD_FAILURE() << "send failed at frame " << i;
      break;
    }
  }
  reader.join();
  EXPECT_TRUE(reader_ok.load());
  return responses;
}

// The tentpole acceptance test: >= 10k frames per transport, decoded results
// byte-identical to direct single-shot decodes of the same seeded trials,
// zero frames lost despite a 16-deep queue (block backpressure stalls the
// sender instead of dropping).
TEST(NetIngress, TenThousandFramesBitIdenticalOverTcpAndUds) {
  constexpr usize kFrames = 10000;
  constexpr usize kCoherence = 8;
  const std::vector<Trial> trials = make_trials(kFrames, kCoherence);
  const auto reference = make_detector(test_system(), parse_decoder_spec("sphere"));
  std::vector<std::vector<index_t>> expect(kFrames);
  for (usize i = 0; i < kFrames; ++i) {
    expect[i] =
        reference->decode(trials[i].h, trials[i].y, trials[i].sigma2).indices;
  }

  for (const bool tcp : {true, false}) {
    const std::string uds = test_uds_path(tcp ? "tcp" : "uds");
    IngressOptions io;
    if (tcp) {
      io.enable_tcp = true;
    } else {
      io.uds_path = uds;
    }
    Harness h(default_shards(), io);
    NetClient client = tcp ? NetClient::connect_tcp(h.ingress.tcp_port())
                           : NetClient::connect_uds(uds);
    const std::map<std::uint64_t, WireResponse> responses =
        stream_frames(client, trials, kCoherence);

    ASSERT_EQ(responses.size(), kFrames) << (tcp ? "tcp" : "uds");
    for (usize i = 0; i < kFrames; ++i) {
      const WireResponse& r = responses.at(i);
      ASSERT_EQ(r.status, WireFrameStatus::kCompleted) << "frame " << i;
      ASSERT_EQ(r.indices, expect[i])
          << (tcp ? "tcp" : "uds") << " frame " << i;
    }
    h.ingress.stop();
    h.shards.drain();
    // Counters are exact only after the IO thread and lanes quiesce.
    const NetStats ns = h.ingress.stats();
    EXPECT_EQ(ns.frames_rx, kFrames);
    EXPECT_EQ(ns.responses_tx, kFrames);
    EXPECT_EQ(ns.protocol_errors, 0u);
    // Coherent traffic ships H once per block; the rest ride the cache.
    EXPECT_EQ(ns.channel_cache_misses, kFrames / kCoherence);
    EXPECT_EQ(ns.channel_cache_hits, kFrames - kFrames / kCoherence);
    // Both cells saw traffic: sharding by cell id actually happened.
    EXPECT_GT(h.shards.shard_metrics(0).submitted, 0u);
    EXPECT_GT(h.shards.shard_metrics(1).submitted, 0u);
    EXPECT_EQ(h.shards.global_metrics().completed, kFrames);
  }
}

// A connection feeding garbage is dropped and counted; the server keeps
// serving well-formed clients. The crash-on-input failure mode this guards
// is the whole point of the trust boundary.
TEST(NetIngress, MalformedBytesDropTheConnectionNotTheServer) {
  IngressOptions io;
  io.enable_tcp = true;
  Harness h(default_shards(1), io);

  {
    Socket hostile = connect_tcp_loopback(h.ingress.tcp_port());
    const std::uint8_t garbage[] = {0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x01};
    ASSERT_TRUE(send_all(hostile.fd(), garbage, sizeof(garbage)));
    // Drop is observable as EOF from the server side of the socket.
    std::uint8_t buf[8];
    ssize_t n;
    do {
      n = ::read(hostile.fd(), buf, sizeof(buf));
    } while (n < 0 && errno == EINTR);
    EXPECT_LE(n, 0);
  }

  // A well-formed client on the same server still gets served.
  constexpr usize kFrames = 32;
  const std::vector<Trial> trials = make_trials(kFrames);
  NetClient client = NetClient::connect_tcp(h.ingress.tcp_port());
  const auto responses = stream_frames(client, trials, 1, 8, 1);
  EXPECT_EQ(responses.size(), kFrames);
  h.ingress.stop();
  h.shards.drain();
  const NetStats ns = h.ingress.stats();
  EXPECT_GE(ns.protocol_errors, 1u);
  EXPECT_GE(ns.connections_dropped, 1u);
  EXPECT_EQ(ns.responses_tx, kFrames);
}

// A frame no detector can answer in bounded work (sigma2 = 0, a NaN sample,
// an infinite channel entry) is refused at the wire and drops only its own
// connection. A well-formed client that stays connected throughout keeps
// getting answers bit-identical to direct decodes.
TEST(NetIngress, HostileFrameDropsOnlyItsOwnConnection) {
  const std::string uds = test_uds_path("hostile");
  IngressOptions io;
  io.uds_path = uds;
  Harness h(default_shards(1), io);
  constexpr usize kFrames = 32;
  const std::vector<Trial> trials = make_trials(2 * kFrames, 1, 43);
  const auto reference =
      make_detector(test_system(), parse_decoder_spec("sphere"));
  NetClient good = NetClient::connect_uds(uds);

  auto serve_half = [&](usize first) {
    const std::vector<Trial> half(
        trials.begin() + static_cast<std::ptrdiff_t>(first),
        trials.begin() + static_cast<std::ptrdiff_t>(first + kFrames));
    const auto responses = stream_frames(good, half, 1);
    ASSERT_EQ(responses.size(), kFrames);
    for (usize i = 0; i < kFrames; ++i) {
      const Trial& t = half[i];
      const DecodeResult expect = reference->decode(t.h, t.y, t.sigma2);
      const WireResponse& r = responses.at(i);
      ASSERT_EQ(r.status, WireFrameStatus::kCompleted) << "frame " << first + i;
      EXPECT_EQ(r.indices, expect.indices) << "frame " << first + i;
      EXPECT_EQ(r.metric, expect.metric) << "frame " << first + i;
    }
  };
  serve_half(0);

  constexpr float inf = std::numeric_limits<float>::infinity();
  constexpr float nan = std::numeric_limits<float>::quiet_NaN();
  const std::pair<const char*, void (*)(WireFrame&)> hostile[] = {
      {"sigma2 = 0", [](WireFrame& f) { f.sigma2 = 0.0; }},
      {"NaN y", [](WireFrame& f) { f.y[2] = cplx{0, nan}; }},
      {"inf H", [](WireFrame& f) { f.h(1, 1) = cplx{inf, 0}; }},
  };
  for (const auto& [what, spoil] : hostile) {
    NetClient bad = NetClient::connect_uds(uds);
    WireFrame wf;
    wf.sigma2 = trials[0].sigma2;
    wf.y = trials[0].y;
    wf.has_channel = true;
    wf.h = trials[0].h;
    spoil(wf);
    wf.channel_fp = channel_fingerprint(wf.h);
    ASSERT_TRUE(bad.send(wf)) << what;
    WireResponse resp;
    EXPECT_FALSE(bad.recv(resp)) << what;  // server answers by closing
  }

  serve_half(kFrames);
  h.ingress.stop();
  h.shards.drain();
  const NetStats ns = h.ingress.stats();
  EXPECT_EQ(ns.protocol_errors, 3u);
  EXPECT_EQ(ns.connections_dropped, 3u);
  EXPECT_EQ(ns.responses_tx, 2 * kFrames);
  EXPECT_EQ(h.shards.global_metrics().completed, 2 * kFrames);
}

// Referencing a fingerprint never sent on this connection is answered like
// an evicted one: a kResendChannel NACK, and the connection stays up. The
// server keeps no record of past fingerprints, so it cannot tell the two
// apart, and a client that follows the protocol recovers from either by
// retransmitting with H inline. A raw send() has no retained copy, so the
// NACK reaches the caller, which resends here itself.
TEST(NetIngress, UnknownFingerprintReferenceAsksForResend) {
  IngressOptions io;
  io.enable_tcp = true;
  Harness h(default_shards(1), io);
  const std::vector<Trial> trials = make_trials(1);

  NetClient client = NetClient::connect_tcp(h.ingress.tcp_port());
  WireFrame wf;
  wf.frame_id = 0;
  wf.sigma2 = trials[0].sigma2;
  wf.y = trials[0].y;
  wf.has_channel = false;        // reference ...
  wf.channel_fp = 0xDEAD0001;    // ... something never shipped
  wf.h = trials[0].h;            // only to give the encoder the real cols
  ASSERT_TRUE(client.send(wf));
  WireResponse resp;
  ASSERT_TRUE(client.recv(resp));
  EXPECT_EQ(resp.frame_id, 0u);
  EXPECT_EQ(resp.status, WireFrameStatus::kResendChannel);

  wf.has_channel = true;
  wf.channel_fp = channel_fingerprint(trials[0].h);
  ASSERT_TRUE(client.send(wf));
  ASSERT_TRUE(client.recv(resp));
  EXPECT_EQ(resp.status, WireFrameStatus::kCompleted);
  const auto reference =
      make_detector(test_system(), parse_decoder_spec("sphere"));
  EXPECT_EQ(resp.indices,
            reference->decode(trials[0].h, trials[0].y, trials[0].sigma2)
                .indices);
  h.ingress.stop();
  h.shards.drain();
  const NetStats ns = h.ingress.stats();
  EXPECT_EQ(ns.protocol_errors, 0u);
  EXPECT_EQ(ns.channel_resend_requests, 1u);
  EXPECT_EQ(ns.responses_tx, 2u);  // the NACK and the answer
}

// A stream of fresh channels — i.i.d. traffic — must not grow either end's
// channel state: the server caches at most channel_cache_capacity channels
// per connection and the client remembers at most kTrackedChannels
// fingerprints, however many distinct channels have travelled.
TEST(NetIngress, ChannelStateStaysBoundedUnderManyDistinctChannels) {
  constexpr usize kCapacity = 4;
  constexpr usize kFrames = NetClient::kTrackedChannels + 64;
  const std::string uds = test_uds_path("bounded");
  IngressOptions io;
  io.uds_path = uds;
  io.channel_cache_capacity = 0;  // no room at all: refused up front
  EXPECT_THROW((Harness{default_shards(1), io}), invalid_argument_error);
  io.channel_cache_capacity = kCapacity;
  Harness h(default_shards(1), io);
  const std::vector<Trial> trials = make_trials(kFrames);  // distinct H each
  NetClient client = NetClient::connect_uds(uds);
  const auto responses = stream_frames(client, trials, 1);
  ASSERT_EQ(responses.size(), kFrames);
  for (const auto& [id, r] : responses) {
    ASSERT_EQ(r.status, WireFrameStatus::kCompleted) << "frame " << id;
  }
  EXPECT_EQ(h.ingress.stats().channel_cache_entries, kCapacity);
  EXPECT_EQ(client.resends(), 0u);

  // The client remembers the last kTrackedChannels channels: the one just
  // before them it has forgotten and ships again, which evicts the oldest
  // remembered one; the next oldest it still elides, and the server, which
  // evicted that channel long ago, asks for it.
  auto send_again = [&](std::uint64_t id, const Trial& t) {
    WireFrame wf;
    wf.frame_id = id;
    wf.sigma2 = t.sigma2;
    wf.y = t.y;
    ASSERT_TRUE(client.send_frame_auto(wf, t.h, channel_fingerprint(t.h)));
    WireResponse resp;
    ASSERT_TRUE(client.recv(resp));
    EXPECT_EQ(resp.frame_id, id);
    EXPECT_EQ(resp.status, WireFrameStatus::kCompleted);
  };
  constexpr usize kOldest = kFrames - NetClient::kTrackedChannels;
  send_again(kFrames, trials[kOldest - 1]);
  EXPECT_EQ(client.resends(), 0u);
  send_again(kFrames + 1, trials[kOldest + 1]);
  EXPECT_EQ(client.resends(), 1u);
  EXPECT_EQ(h.ingress.stats().channel_cache_entries, kCapacity);

  h.ingress.stop();
  h.shards.drain();
  const NetStats ns = h.ingress.stats();
  EXPECT_EQ(ns.protocol_errors, 0u);
  EXPECT_EQ(ns.channel_cache_entries, 0u);  // no connection left
  EXPECT_EQ(ns.channel_cache_misses, kFrames + 2);
  EXPECT_EQ(ns.channel_resend_requests, 1u);
}

// Frames whose dimensions do not match the served system must be refused at
// the protocol layer — they would SD_CHECK-throw inside the dispatcher.
TEST(NetIngress, WrongDimensionsAreAProtocolError) {
  IngressOptions io;
  io.enable_tcp = true;
  Harness h(default_shards(1), io);

  ScenarioConfig sc;
  sc.num_tx = kM + 2;  // larger than the served system
  sc.num_rx = kM + 2;
  Scenario scenario(sc);
  const Trial t = scenario.next();
  NetClient client = NetClient::connect_tcp(h.ingress.tcp_port());
  WireFrame wf;
  wf.sigma2 = t.sigma2;
  wf.y = t.y;
  ASSERT_TRUE(client.send_frame_auto(wf, t.h, channel_fingerprint(t.h)));
  WireResponse resp;
  EXPECT_FALSE(client.recv(resp));
  for (int i = 0; i < 100 && h.ingress.stats().protocol_errors == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(h.ingress.stats().protocol_errors, 1u);
}

// Admission shed answers immediately with kShed — no decode, no loss.
TEST(NetIngress, ImpossibleDeadlineIsAnsweredWithShed) {
  IngressOptions io;
  io.enable_tcp = true;
  Harness h(default_shards(1, /*admission=*/true), io);
  const std::vector<Trial> trials = make_trials(1);

  NetClient client = NetClient::connect_tcp(h.ingress.tcp_port());
  WireFrame wf;
  wf.frame_id = 77;
  wf.qos = QosClass::kHard;
  wf.deadline_s = 1e-15;
  wf.sigma2 = trials[0].sigma2;
  wf.y = trials[0].y;
  ASSERT_TRUE(
      client.send_frame_auto(wf, trials[0].h, channel_fingerprint(trials[0].h)));
  WireResponse resp;
  ASSERT_TRUE(client.recv(resp));
  EXPECT_EQ(resp.frame_id, 77u);
  EXPECT_EQ(resp.status, WireFrameStatus::kShed);
  EXPECT_EQ(h.ingress.stats().shed_tx, 1u);
  EXPECT_EQ(h.shards.global_admission_stats().shed, 1u);
}

// A compliant client eliding H for a fingerprint the server's bounded cache
// evicted must NOT be dropped: the server NACKs with kResendChannel and the
// client transparently retransmits with the channel inline — over both
// transports.
TEST(NetIngress, EvictedFingerprintTriggersTransparentResend) {
  for (const bool tcp : {true, false}) {
    const std::string uds = test_uds_path(tcp ? "resend_tcp" : "resend_uds");
    IngressOptions io;
    if (tcp) {
      io.enable_tcp = true;
    } else {
      io.uds_path = uds;
    }
    io.channel_cache_capacity = 2;  // tiny: C evicts A below
    Harness h(default_shards(1), io);
    const std::vector<Trial> trials = make_trials(3);  // distinct channels
    const auto reference =
        make_detector(test_system(), parse_decoder_spec("sphere"));

    NetClient client = tcp ? NetClient::connect_tcp(h.ingress.tcp_port())
                           : NetClient::connect_uds(uds);
    // Frames 0..2 ship channels A,B,C inline (first sighting of each fp).
    for (usize i = 0; i < 3; ++i) {
      WireFrame wf;
      wf.frame_id = i;
      wf.sigma2 = trials[i].sigma2;
      wf.y = trials[i].y;
      ASSERT_TRUE(client.send_frame_auto(wf, trials[i].h,
                                         channel_fingerprint(trials[i].h)));
    }
    // Frame 3 references A again: elided (fp already shipped once), but the
    // capacity-2 cache evicted A when C arrived. The server NACKs; recv()
    // below retransmits with H inline without surfacing anything.
    WireFrame wf;
    wf.frame_id = 3;
    wf.sigma2 = trials[0].sigma2;
    wf.y = trials[0].y;
    ASSERT_TRUE(client.send_frame_auto(wf, trials[0].h,
                                       channel_fingerprint(trials[0].h)));

    std::map<std::uint64_t, WireResponse> responses;
    WireResponse resp;
    for (usize got = 0; got < 4; ++got) {
      ASSERT_TRUE(client.recv(resp));
      responses[resp.frame_id] = resp;
    }
    ASSERT_EQ(responses.size(), 4u);
    for (std::uint64_t i = 0; i < 4; ++i) {
      const Trial& t = trials[i < 3 ? i : 0];
      ASSERT_EQ(responses.at(i).status, WireFrameStatus::kCompleted)
          << "frame " << i;
      EXPECT_EQ(responses.at(i).indices,
                reference->decode(t.h, t.y, t.sigma2).indices)
          << "frame " << i;
    }
    EXPECT_EQ(client.resends(), 1u);
    h.ingress.stop();
    h.shards.drain();
    const NetStats ns = h.ingress.stats();
    EXPECT_EQ(ns.protocol_errors, 0u);
    EXPECT_EQ(ns.channel_resend_requests, 1u);
    // 3 first sightings + 1 inline resend = 4 misses; the NACKed elided
    // attempt counts as neither hit nor miss.
    EXPECT_EQ(ns.channel_cache_misses, 4u);
    EXPECT_EQ(ns.channel_cache_hits, 0u);
    EXPECT_EQ(ns.frames_rx, 5u);      // includes the NACKed attempt
    EXPECT_EQ(ns.responses_tx, 5u);   // 4 terminals + 1 NACK
  }
}

// The cache is LRU, not FIFO: an elided hit refreshes its entry, so the next
// eviction takes the coldest channel instead of the oldest.
TEST(NetIngress, ElidedHitRefreshesLruOrder) {
  IngressOptions io;
  io.enable_tcp = true;
  io.channel_cache_capacity = 2;
  Harness h(default_shards(1), io);
  const std::vector<Trial> trials = make_trials(3);
  NetClient client = NetClient::connect_tcp(h.ingress.tcp_port());
  auto send_one = [&](std::uint64_t id, const Trial& t) {
    WireFrame wf;
    wf.frame_id = id;
    wf.sigma2 = t.sigma2;
    wf.y = t.y;
    ASSERT_TRUE(client.send_frame_auto(wf, t.h, channel_fingerprint(t.h)));
  };
  send_one(0, trials[0]);  // A inline             cache [A]
  send_one(1, trials[1]);  // B inline             cache [A,B]
  send_one(2, trials[0]);  // A elided: hit+touch  cache [B,A]
  send_one(3, trials[2]);  // C inline: evicts B   cache [A,C]
  send_one(4, trials[0]);  // A elided: still hot — FIFO would have NACKed
  WireResponse resp;
  for (usize got = 0; got < 5; ++got) ASSERT_TRUE(client.recv(resp));
  EXPECT_EQ(client.resends(), 0u);
  h.ingress.stop();
  h.shards.drain();
  const NetStats ns = h.ingress.stats();
  EXPECT_EQ(ns.channel_resend_requests, 0u);
  EXPECT_EQ(ns.channel_cache_hits, 2u);
  EXPECT_EQ(ns.channel_cache_misses, 3u);
  EXPECT_EQ(ns.protocol_errors, 0u);
}

// stop() must answer every accepted frame before closing connections: a
// client that streamed N frames reads N responses even when the server shuts
// down immediately after ingesting them.
TEST(NetIngress, GracefulStopAnswersEveryAcceptedFrame) {
  constexpr usize kFrames = 64;
  constexpr usize kCoherence = 4;
  const std::vector<Trial> trials = make_trials(kFrames, kCoherence);
  std::vector<std::uint64_t> fps(kFrames);
  for (usize i = 0; i < kFrames; ++i) {
    fps[i] = (i % kCoherence == 0) ? channel_fingerprint(trials[i].h)
                                   : fps[i - 1];
  }
  const std::string uds = test_uds_path("stop");
  IngressOptions io;
  io.uds_path = uds;
  Harness h(default_shards(2), io);
  NetClient client = NetClient::connect_uds(uds);
  for (usize i = 0; i < kFrames; ++i) {
    WireFrame wf;
    wf.cell_id = static_cast<std::uint32_t>(i % 2);
    wf.frame_id = i;
    wf.sigma2 = trials[i].sigma2;
    wf.y = trials[i].y;
    ASSERT_TRUE(client.send_frame_auto(wf, trials[i].h, fps[i]));
  }
  // Stop while frames are in flight: the drain wait inside stop() holds the
  // door until every pending frame has been answered.
  while (h.ingress.stats().frames_rx < kFrames) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  h.ingress.stop();
  EXPECT_EQ(h.ingress.pending_frames(), 0u);
  h.shards.drain();

  usize got = 0;
  WireResponse resp;
  while (got < kFrames && client.recv(resp)) ++got;
  EXPECT_EQ(got, kFrames);
  EXPECT_EQ(h.ingress.stats().responses_tx, kFrames);
  // Idempotent: a second stop is a no-op.
  h.ingress.stop();
}

}  // namespace
}  // namespace sd::net
