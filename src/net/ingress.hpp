// IngressServer: the real network front door of the sharded detection
// runtime.
//
// One poll()-driven IO thread owns every listener (TCP loopback and/or a
// Unix-domain socket) and every accepted connection. Reads are batched — one
// read() drains up to a chunk of the socket buffer into the connection's
// WireDecoder, which then yields every complete frame in it — so a client
// streaming back-to-back frames costs one syscall per chunk, not per frame.
// Each complete frame is routed through the ShardedServer: admission may
// shed it (answered immediately with kShed), backpressure may block the IO
// thread (that *is* the transport-level backpressure under kBlock — the TCP
// window fills and the client's send stalls; completions flow on lane
// threads, so no deadlock), and accepted frames are answered from the
// completion tap when their FrameResult retires.
//
// Channel elision: a frame with has_channel=0 references a previously sent
// channel by fingerprint, resolved from the per-connection fingerprint ->
// ChannelHandle cache. Coherent traffic therefore ships H once per
// coherence block — the wire-level analogue of the PR 5 prep-cache reuse.
//
// A fingerprint the connection's bounded cache does not hold is answered
// with kResendChannel, whether it was evicted or never sent; the server
// keeps no record of past fingerprints. Any protocol violation (malformed
// bytes, dimensions that do not match the served system) counts
// net.protocol_error and drops that connection; the server never crashes on
// input. See DESIGN.md §13.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "decode/channel_prep.hpp"
#include "net/lru.hpp"
#include "net/shard.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace sd::obs {
class CounterRegistry;
}

namespace sd::net {

struct IngressOptions {
  /// Unix-domain listener path; empty = no UDS listener.
  std::string uds_path;
  /// TCP loopback listener; port 0 = kernel-assigned (read back via
  /// tcp_port()). enable_tcp=false = no TCP listener.
  bool enable_tcp = false;
  std::uint16_t tcp_port = 0;
  usize max_message_bytes = kMaxMessageBytes;
  usize read_chunk_bytes = 64 * 1024;
  /// Per-connection channel-cache entries (LRU, at least 1). A frame that
  /// references a fingerprint the cache does not hold — evicted, or never
  /// sent on this connection — is answered with a kResendChannel NACK; the
  /// client retransmits with the channel inline.
  usize channel_cache_capacity = 1024;
  /// stop() waits this long for in-flight frames to answer before closing
  /// connections anyway.
  double drain_timeout_s = 30.0;
};

/// Transport counters. Snapshot struct — all loads relaxed; exact after the
/// IO thread and all lanes have quiesced.
struct NetStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_dropped = 0;  ///< EOF + protocol errors
  std::uint64_t protocol_errors = 0;
  std::uint64_t frames_rx = 0;
  std::uint64_t responses_tx = 0;
  std::uint64_t shed_tx = 0;  ///< responses carrying kShed/kRejected
  std::uint64_t bytes_rx = 0;
  std::uint64_t bytes_tx = 0;
  std::uint64_t channel_cache_hits = 0;    ///< frames that elided H
  std::uint64_t channel_cache_misses = 0;  ///< frames that shipped H
  /// Elided frames whose fingerprint the cache did not hold: answered
  /// kResendChannel.
  std::uint64_t channel_resend_requests = 0;
  /// Channels cached across the open connections now (a gauge, at most
  /// channel_cache_capacity per connection).
  std::uint64_t channel_cache_entries = 0;

  /// "net.protocol_error", "net.frames_rx", ... into the unified registry.
  void export_counters(obs::CounterRegistry& registry,
                       std::string_view prefix = "net") const;
};

class IngressServer {
 public:
  /// Binds the configured listeners and installs itself as `shards`'
  /// completion tap. `shards` must outlive the server. Throws net_error if
  /// no listener is configured or a bind fails.
  IngressServer(ShardedServer& shards, IngressOptions options);

  /// stop()s if still running.
  ~IngressServer();

  IngressServer(const IngressServer&) = delete;
  IngressServer& operator=(const IngressServer&) = delete;

  /// Starts the IO thread. Call once.
  void start();

  /// Graceful shutdown: closes listeners, stops reading, waits (bounded by
  /// drain_timeout_s) for every accepted frame to be answered, then closes
  /// all connections and joins the IO thread. Idempotent. The caller drains
  /// the ShardedServer afterwards.
  void stop();

  /// Actual TCP port (after an ephemeral bind). 0 if TCP is disabled.
  [[nodiscard]] std::uint16_t tcp_port() const noexcept { return tcp_port_; }
  [[nodiscard]] const std::string& uds_path() const noexcept {
    return opts_.uds_path;
  }

  [[nodiscard]] NetStats stats() const;
  /// Frames accepted into the pool whose response has not been sent yet.
  [[nodiscard]] usize pending_frames() const;

 private:
  struct Connection {
    Connection(Socket s, usize max_message, usize cache_capacity)
        : sock(std::move(s)), decoder(max_message), channels(cache_capacity) {}
    Socket sock;
    WireDecoder decoder;
    /// Fingerprint -> channel, least recently used evicted first — an
    /// interleaved A,B,A,B stream keeps both alive. This is all the channel
    /// state a connection holds, so it stays bounded however many distinct
    /// channels the client sends.
    FingerprintLru<ChannelHandle> channels;
    std::mutex write_mu;   ///< serializes response sends
    bool open = true;      ///< guarded by write_mu
  };

  struct Pending {
    std::shared_ptr<Connection> conn;
    std::uint64_t client_frame_id = 0;
    std::uint32_t cell_id = 0;
    QosClass qos = QosClass::kBestEffort;
  };

  void io_loop();
  void handle_readable(const std::shared_ptr<Connection>& conn);
  /// False = protocol error; caller drops the connection.
  bool handle_frame(const std::shared_ptr<Connection>& conn, WireFrame&& wf);
  void drop_connection(const std::shared_ptr<Connection>& conn,
                       bool protocol_error);
  void on_result(const serve::FrameResult& r);
  void send_response(Connection& conn, const WireResponse& resp);
  void wake();

  ShardedServer& shards_;
  IngressOptions opts_;
  Socket tcp_listener_;
  Socket uds_listener_;
  std::uint16_t tcp_port_ = 0;
  Socket wake_rd_, wake_wr_;  ///< self-pipe: stop() interrupts poll()

  std::thread io_thread_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  bool stopped_ = false;

  std::vector<std::shared_ptr<Connection>> conns_;  ///< IO thread only
  /// IO thread only: the one read buffer every connection's reads land in
  /// (read_chunk_bytes, allocated once), and the per-wake snapshot of
  /// readable connections, reused across wakes.
  std::vector<std::uint8_t> read_buf_;
  std::vector<std::shared_ptr<Connection>> readable_;

  /// Server-assigned frame id -> response routing. Lane threads erase.
  mutable std::mutex pending_mu_;
  std::condition_variable pending_cv_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::uint64_t next_id_ = 1;

  // Counters: IO thread and lane threads both write.
  std::atomic<std::uint64_t> connections_accepted_{0}, connections_dropped_{0},
      protocol_errors_{0}, frames_rx_{0}, responses_tx_{0}, shed_tx_{0},
      bytes_rx_{0}, bytes_tx_{0}, cache_hits_{0}, cache_misses_{0},
      resend_requests_{0}, cached_channels_{0};
};

}  // namespace sd::net
