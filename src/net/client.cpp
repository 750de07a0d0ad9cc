#include "net/client.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <string>
#include <utility>

namespace sd::net {

bool NetClient::send_locked(const WireFrame& frame) {
  send_buf_.clear();
  encode_frame(frame, send_buf_);
  if (!send_all(sock_.fd(), send_buf_.data(), send_buf_.size())) return false;
  bytes_sent_ += send_buf_.size();
  if (frame.has_channel) sent_fps_.put(frame.channel_fp, true);
  return true;
}

bool NetClient::send(const WireFrame& frame) {
  std::lock_guard<std::mutex> lock(send_mu_);
  return send_locked(frame);
}

bool NetClient::send_frame_auto(WireFrame& frame, const CMat& h,
                                std::uint64_t fp) {
  frame.channel_fp = fp;
  std::lock_guard<std::mutex> lock(send_mu_);
  // Elide whenever fp was shipped on this connection and is still
  // remembered. The server may have evicted it (bounded LRU cache) — that
  // case comes back as a kResendChannel NACK, answered from the retained
  // copy below.
  frame.has_channel = sent_fps_.find(fp) == nullptr;
  if (frame.has_channel) {
    frame.h = h;
  } else {
    WireFrame retained = frame;  // y, ids, budget — and the channel,
    retained.h = h;              // in case the server asks for a resend
    elided_.insert_or_assign(frame.frame_id, std::move(retained));
  }
  return send_locked(frame);
}

bool NetClient::recv(WireResponse& resp) {
  std::lock_guard<std::mutex> lock(recv_mu_);
  WireFrame unused;
  for (;;) {
    switch (decoder_.next(unused, resp)) {
      case WireDecoder::Next::kResponse: {
        std::lock_guard<std::mutex> send_lock(send_mu_);
        if (resp.status != WireFrameStatus::kResendChannel) {
          elided_.erase(resp.frame_id);  // terminal: drop the retained copy
          return true;
        }
        // Server evicted the referenced channel: retransmit the retained
        // frame with H inline and keep waiting — invisible to the caller.
        // A NACK for a frame sent via raw send() has no retained copy and
        // is the caller's problem.
        const auto it = elided_.find(resp.frame_id);
        if (it == elided_.end()) return true;
        WireFrame again = std::move(it->second);
        elided_.erase(it);
        again.has_channel = true;
        resends_.fetch_add(1, std::memory_order_relaxed);
        if (!send_locked(again)) return false;
        break;
      }
      case WireDecoder::Next::kFrame:
        throw net_error("server sent a frame message to a client");
      case WireDecoder::Next::kError:
        throw net_error(std::string("malformed response stream: ") +
                        std::string(wire_error_name(decoder_.error())));
      case WireDecoder::Next::kNeedMore:
        break;
    }
    std::uint8_t chunk[16 * 1024];
    ssize_t n;
    do {
      n = ::read(sock_.fd(), chunk, sizeof(chunk));
    } while (n < 0 && errno == EINTR);
    if (n < 0) throw net_error("recv failed");
    if (n == 0) return false;  // clean EOF
    bytes_received_ += static_cast<usize>(n);
    decoder_.feed(chunk, static_cast<usize>(n));
  }
}

void NetClient::finish_sending() { ::shutdown(sock_.fd(), SHUT_WR); }

}  // namespace sd::net
