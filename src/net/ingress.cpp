#include "net/ingress.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <utility>

#include "common/error.hpp"
#include "obs/counters.hpp"

namespace sd::net {

namespace {
constexpr auto kRelaxed = std::memory_order_relaxed;
}

void NetStats::export_counters(obs::CounterRegistry& registry,
                               std::string_view prefix) const {
  const std::string p = prefix.empty() ? "" : std::string(prefix) + ".";
  registry.set(p + "connections.accepted", connections_accepted);
  registry.set(p + "connections.dropped", connections_dropped);
  registry.set(p + "protocol_error", protocol_errors);
  registry.set(p + "frames_rx", frames_rx);
  registry.set(p + "responses_tx", responses_tx);
  registry.set(p + "shed_tx", shed_tx);
  registry.set(p + "bytes_rx", bytes_rx);
  registry.set(p + "bytes_tx", bytes_tx);
  registry.set(p + "channel_cache.hit", channel_cache_hits);
  registry.set(p + "channel_cache.miss", channel_cache_misses);
  registry.set(p + "channel_cache.resend", channel_resend_requests);
  registry.set(p + "channel_cache.entries", channel_cache_entries);
}

IngressServer::IngressServer(ShardedServer& shards, IngressOptions options)
    : shards_(shards), opts_(std::move(options)) {
  SD_CHECK(opts_.read_chunk_bytes >= 64, "ingress read chunk too small");
  SD_CHECK(opts_.channel_cache_capacity >= 1,
           "ingress channel cache needs room for one channel");
  if (!opts_.uds_path.empty()) uds_listener_ = listen_uds(opts_.uds_path);
  if (opts_.enable_tcp)
    tcp_listener_ = listen_tcp_loopback(opts_.tcp_port, &tcp_port_);
  if (!uds_listener_.valid() && !tcp_listener_.valid())
    throw net_error("ingress server has no listener configured");
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) throw net_error("pipe(wakeup) failed");
  wake_rd_ = Socket(pipe_fds[0]);
  wake_wr_ = Socket(pipe_fds[1]);
  shards_.set_completion_tap(
      [this](usize /*shard*/, const serve::FrameResult& r) { on_result(r); });
}

IngressServer::~IngressServer() {
  stop();
  // The completion tap points at this object; the shards must be quiesced
  // before it dies. drain() is idempotent — the caller usually already did.
  shards_.drain();
}

void IngressServer::start() {
  SD_CHECK(!started_, "ingress server already started");
  started_ = true;
  io_thread_ = std::thread([this] { io_loop(); });
}

void IngressServer::wake() {
  const char b = 1;
  (void)!::write(wake_wr_.fd(), &b, 1);
}

void IngressServer::io_loop() {
  std::vector<pollfd> pfds;
  // Index map rebuilt per iteration: [wake][listeners...][conns...].
  while (!stopping_.load(std::memory_order_acquire)) {
    pfds.clear();
    pfds.push_back({wake_rd_.fd(), POLLIN, 0});
    const usize first_listener = pfds.size();
    if (tcp_listener_.valid()) pfds.push_back({tcp_listener_.fd(), POLLIN, 0});
    if (uds_listener_.valid()) pfds.push_back({uds_listener_.fd(), POLLIN, 0});
    const usize first_conn = pfds.size();
    for (const auto& c : conns_)
      pfds.push_back({c->sock.fd(), POLLIN, 0});

    const int rc = ::poll(pfds.data(), pfds.size(), 200);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable poll failure: shut down rather than spin
    }
    if (rc == 0) continue;

    if ((pfds[0].revents & POLLIN) != 0) {
      char buf[64];
      (void)!::read(wake_rd_.fd(), buf, sizeof(buf));
    }
    for (usize i = first_listener; i < first_conn; ++i) {
      if ((pfds[i].revents & POLLIN) == 0) continue;
      const Socket& listener =
          pfds[i].fd == tcp_listener_.fd() ? tcp_listener_ : uds_listener_;
      Socket accepted = accept_connection(listener);
      if (!accepted.valid()) continue;
      set_nonblocking(accepted.fd());
      connections_accepted_.fetch_add(1, kRelaxed);
      conns_.push_back(std::make_shared<Connection>(
          std::move(accepted), opts_.max_message_bytes,
          opts_.channel_cache_capacity));
    }
    // Snapshot: handle_readable may drop connections out of conns_.
    std::vector<std::shared_ptr<Connection>> readable;
    for (usize i = first_conn; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0)
        readable.push_back(conns_[i - first_conn]);
    }
    for (const auto& c : readable) handle_readable(c);
  }
  // Stop accepting; close the read side of every connection. Responses for
  // frames already in the pool still flow on lane threads.
  tcp_listener_.close();
  uds_listener_.close();
}

void IngressServer::handle_readable(const std::shared_ptr<Connection>& conn) {
  std::vector<std::uint8_t> chunk(opts_.read_chunk_bytes);
  for (;;) {
    const ssize_t n = ::read(conn->sock.fd(), chunk.data(), chunk.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      drop_connection(conn, false);
      return;
    }
    if (n == 0) {  // clean EOF
      drop_connection(conn, false);
      return;
    }
    bytes_rx_.fetch_add(static_cast<std::uint64_t>(n), kRelaxed);
    conn->decoder.feed(chunk.data(), static_cast<usize>(n));
    WireFrame wf;
    WireResponse wr;
    for (;;) {
      const WireDecoder::Next what = conn->decoder.next(wf, wr);
      if (what == WireDecoder::Next::kNeedMore) break;
      if (what == WireDecoder::Next::kFrame) {
        if (!handle_frame(conn, std::move(wf))) {
          drop_connection(conn, true);
          return;
        }
        continue;
      }
      // kResponse from a client, or a poisoned decoder: protocol error.
      drop_connection(conn, true);
      return;
    }
    // One read that filled the whole chunk may have left more in the socket
    // buffer; loop. A short read means the buffer is drained — back to poll.
    if (static_cast<usize>(n) < chunk.size()) return;
  }
}

bool IngressServer::handle_frame(const std::shared_ptr<Connection>& conn,
                                 WireFrame&& wf) {
  frames_rx_.fetch_add(1, kRelaxed);
  // Resolve the channel: shipped inline, or referenced by fingerprint from
  // this connection's cache.
  ChannelHandle channel;
  if (wf.has_channel) {
    cache_misses_.fetch_add(1, kRelaxed);
    // The decoder verified wf.channel_fp against H: no second hash.
    channel = ChannelHandle(std::move(wf.h), wf.channel_fp);
    const usize before = conn->channels.size();
    conn->channels.put(wf.channel_fp, channel);
    cached_channels_.fetch_add(conn->channels.size() - before, kRelaxed);
  } else {
    const ChannelHandle* cached = conn->channels.find(wf.channel_fp);
    if (cached == nullptr) {
      // Evicted by the bounded cache, or never sent: either way a client
      // that follows the protocol retransmits the frame with H inline, so
      // NACK with kResendChannel and keep the connection.
      resend_requests_.fetch_add(1, kRelaxed);
      WireResponse resp;
      resp.frame_id = wf.frame_id;
      resp.cell_id = wf.cell_id;
      resp.qos = wf.qos;
      resp.status = WireFrameStatus::kResendChannel;
      send_response(*conn, resp);
      return true;
    }
    cache_hits_.fetch_add(1, kRelaxed);
    channel = *cached;
  }
  // Dimension agreement with the served system is a protocol matter: the
  // dispatcher SD_CHECKs these and a throw on the IO thread would kill the
  // server — exactly what hostile input must not be able to do. The stream
  // count (cols) must match the served system; the antenna count (rows) may
  // exceed it — a massive-MIMO cell sends tall channels — but must stay
  // determined (rows >= cols) and agree with the observation length.
  const SystemConfig& sys = shards_.shard(0).system();
  const index_t rows = channel.matrix().rows();
  if (channel.matrix().cols() != sys.num_tx || rows < sys.num_tx ||
      static_cast<index_t>(wf.y.size()) != rows)
    return false;

  serve::FrameRequest frame;
  frame.channel = std::move(channel);
  frame.y = std::move(wf.y);
  frame.sigma2 = wf.sigma2;
  frame.deadline_s = wf.deadline_s;

  std::uint64_t server_id = 0;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    server_id = next_id_++;
    pending_.emplace(server_id,
                     Pending{conn, wf.frame_id, wf.cell_id, wf.qos});
  }
  frame.id = server_id;

  // May block under kBlock backpressure — that stall propagates through the
  // TCP window to the client, which is the design (zero frames lost).
  const ShardSubmit st =
      shards_.submit(wf.cell_id, std::move(frame), wf.qos);
  if (st == ShardSubmit::kAccepted) return true;

  // Refused synchronously: answer now and settle the pending entry.
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_.erase(server_id);
  }
  pending_cv_.notify_all();
  WireResponse resp;
  resp.frame_id = wf.frame_id;
  resp.cell_id = wf.cell_id;
  resp.qos = wf.qos;
  // kInvalid cannot reach here from the wire (parse_frame refuses the same
  // contents with kBadField); any refusal but a shed reads as rejected.
  resp.status = st == ShardSubmit::kShed ? WireFrameStatus::kShed
                                         : WireFrameStatus::kRejected;
  shed_tx_.fetch_add(1, kRelaxed);
  send_response(*conn, resp);
  return true;
}

void IngressServer::on_result(const serve::FrameResult& r) {
  Pending p;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    const auto it = pending_.find(r.id);
    if (it == pending_.end()) return;  // not a network frame
    p = it->second;
  }
  WireResponse resp;
  resp.frame_id = p.client_frame_id;
  resp.cell_id = p.cell_id;
  resp.qos = p.qos;
  resp.status = wire_status_from(r.status);
  resp.tier = r.tier;
  resp.metric = r.result.metric;
  resp.indices = r.result.indices;
  send_response(*p.conn, resp);
  // Settle only after the response bytes are in the socket: stop()'s drain
  // predicate is `pending_ empty`, and it must not pass while a lane thread
  // is still mid-write — shutdown would close the connection under it.
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_.erase(r.id);
  }
  pending_cv_.notify_all();
}

void IngressServer::send_response(Connection& conn, const WireResponse& resp) {
  std::vector<std::uint8_t> buf;
  encode_response(resp, buf);
  std::lock_guard<std::mutex> lock(conn.write_mu);
  if (!conn.open) return;
  if (send_all(conn.sock.fd(), buf.data(), buf.size())) {
    responses_tx_.fetch_add(1, kRelaxed);
    bytes_tx_.fetch_add(buf.size(), kRelaxed);
  }
}

void IngressServer::drop_connection(const std::shared_ptr<Connection>& conn,
                                    bool protocol_error) {
  if (protocol_error) protocol_errors_.fetch_add(1, kRelaxed);
  connections_dropped_.fetch_add(1, kRelaxed);
  cached_channels_.fetch_sub(conn->channels.size(), kRelaxed);
  {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    conn->open = false;
    conn->sock.shutdown_both();
  }
  // The fd itself stays alive until the last pending response releases its
  // shared_ptr (sends to a closed conn are skipped via `open`).
  for (auto it = conns_.begin(); it != conns_.end(); ++it) {
    if (it->get() == conn.get()) {
      conns_.erase(it);
      break;
    }
  }
}

void IngressServer::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_release);
  wake();
  io_thread_.join();
  // Listeners are closed; wait for every accepted frame to be answered.
  {
    std::unique_lock<std::mutex> lock(pending_mu_);
    pending_cv_.wait_for(
        lock,
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::duration<double>(opts_.drain_timeout_s)),
        [this] { return pending_.empty(); });
  }
  for (const auto& c : conns_) {
    std::lock_guard<std::mutex> lock(c->write_mu);
    c->open = false;
    c->sock.shutdown_both();
    cached_channels_.fetch_sub(c->channels.size(), kRelaxed);
  }
  conns_.clear();
  if (!opts_.uds_path.empty()) ::unlink(opts_.uds_path.c_str());
}

NetStats IngressServer::stats() const {
  NetStats s;
  s.connections_accepted = connections_accepted_.load(kRelaxed);
  s.connections_dropped = connections_dropped_.load(kRelaxed);
  s.protocol_errors = protocol_errors_.load(kRelaxed);
  s.frames_rx = frames_rx_.load(kRelaxed);
  s.responses_tx = responses_tx_.load(kRelaxed);
  s.shed_tx = shed_tx_.load(kRelaxed);
  s.bytes_rx = bytes_rx_.load(kRelaxed);
  s.bytes_tx = bytes_tx_.load(kRelaxed);
  s.channel_cache_hits = cache_hits_.load(kRelaxed);
  s.channel_cache_misses = cache_misses_.load(kRelaxed);
  s.channel_resend_requests = resend_requests_.load(kRelaxed);
  s.channel_cache_entries = cached_channels_.load(kRelaxed);
  return s;
}

usize IngressServer::pending_frames() const {
  std::lock_guard<std::mutex> lock(pending_mu_);
  return pending_.size();
}

}  // namespace sd::net
