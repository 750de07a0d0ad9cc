// NetClient: the out-of-process counterpart of IngressServer.
//
// One connection, two halves: send() encodes frames (the caller decides when
// to elide the channel — see send_frame_auto for the last-fingerprint
// policy), recv() blocks until the next complete WireResponse arrives.
// Sends and receives are independently thread-safe, so a driver can stream
// from one thread while a reader thread matches responses by frame id —
// the shape examples/uplink_client uses.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "net/lru.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace sd::net {

class NetClient {
 public:
  /// Channels the elision policy remembers: as many as the server's default
  /// per-connection cache (IngressOptions::channel_cache_capacity) holds.
  static constexpr usize kTrackedChannels = 1024;

  [[nodiscard]] static NetClient connect_tcp(std::uint16_t port) {
    return NetClient(connect_tcp_loopback(port));
  }
  [[nodiscard]] static NetClient connect_uds(const std::string& path) {
    return NetClient(sd::net::connect_uds(path));
  }

  // Pinned in place (mutex members); factories rely on C++17 copy elision.
  NetClient(NetClient&&) = delete;
  NetClient& operator=(NetClient&&) = delete;
  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// Encodes and writes one frame as given (has_channel untouched).
  /// Returns false if the server closed the connection.
  bool send(const WireFrame& frame);

  /// Channel-elision policy: ships H the first time `fp` travels on this
  /// connection and elides it afterwards — so interleaved coherence blocks
  /// (A,B,A,B) pay for each channel once, not once per switch. The client
  /// remembers the kTrackedChannels most recently used fingerprints; a
  /// channel it has forgotten is shipped again. Elided frames are retained
  /// (with their channel) until their response arrives, so a kResendChannel
  /// NACK — the server's bounded cache does not hold fp — can be answered
  /// transparently inside recv(). The caller fills everything but
  /// has_channel/channel_fp.
  bool send_frame_auto(WireFrame& frame, const CMat& h, std::uint64_t fp);

  /// Blocks until one complete response arrives. Returns false on clean EOF
  /// (server closed); throws net_error if the stream is malformed.
  /// kResendChannel NACKs for frames sent via send_frame_auto are handled
  /// internally (the frame is retransmitted with H inline and the wait
  /// continues); a NACK for a frame this client cannot retransmit — sent
  /// via raw send() — is surfaced to the caller instead.
  bool recv(WireResponse& resp);

  /// Frames retransmitted with an inline channel after a kResendChannel.
  [[nodiscard]] std::uint64_t resends() const noexcept {
    return resends_.load(std::memory_order_relaxed);
  }

  /// Half-close the send direction: the server sees EOF after the last
  /// frame, while responses keep flowing back.
  void finish_sending();

  [[nodiscard]] usize bytes_sent() const noexcept { return bytes_sent_; }
  [[nodiscard]] usize bytes_received() const noexcept {
    return bytes_received_;
  }

 private:
  explicit NetClient(Socket sock) : sock_(std::move(sock)) {}

  bool send_locked(const WireFrame& frame);

  Socket sock_;
  std::mutex send_mu_;
  std::vector<std::uint8_t> send_buf_;
  /// Fingerprints shipped inline on this connection, most recently used
  /// kept (elision key).
  FingerprintLru<bool> sent_fps_{kTrackedChannels};
  /// In-flight elided frames by client frame id, channel included — the
  /// retransmit source for kResendChannel. Erased on the frame's response.
  std::unordered_map<std::uint64_t, WireFrame> elided_;
  usize bytes_sent_ = 0;
  std::atomic<std::uint64_t> resends_{0};

  std::mutex recv_mu_;
  WireDecoder decoder_;
  usize bytes_received_ = 0;
};

}  // namespace sd::net
