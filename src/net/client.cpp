#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace aps::net {

namespace {

std::string errno_message(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

template <WireMessage Msg>
void BlockingClient::send(const Msg& msg) {
  out_.clear();
  append_frame(out_, msg);
  send_raw(out_.data(), out_.size());
}

BlockingClient::BlockingClient(const std::string& host, std::uint16_t port,
                               const std::string& client_name)
    : decoder_("server " + host + ":" + std::to_string(port)) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    throw aps::io::IoError(errno_message("socket"));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw aps::io::IoError("bad host address '" + host + "'");
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    const std::string msg = errno_message("connect");
    ::close(fd_);
    fd_ = -1;
    throw aps::io::IoError(msg + " to " + host + ":" + std::to_string(port));
  }
  const int one = 1;
  (void)setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  send(HelloMsg{.protocol_version = kNetVersion, .client_name = client_name});
  const HelloAckMsg ack = decode_hello_ack(wait_for(FrameKind::kHelloAck));
  if (ack.protocol_version != kNetVersion) {
    throw ProtocolError("server speaks protocol version " +
                        std::to_string(ack.protocol_version) +
                        ", this client speaks " +
                        std::to_string(kNetVersion));
  }
  generation_ = ack.generation;
}

BlockingClient::~BlockingClient() {
  if (fd_ >= 0) ::close(fd_);
}

void BlockingClient::send_raw(const void* data, std::size_t n) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t w = ::send(fd_, bytes + sent, n - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw aps::io::IoError(errno_message("send"));
    }
    sent += static_cast<std::size_t>(w);
  }
  bytes_sent_ += n;
}

void BlockingClient::send_frame(const Frame& frame) {
  out_.clear();
  append_frame(out_, frame);
  send_raw(out_.data(), out_.size());
}

Frame BlockingClient::recv_frame() {
  for (;;) {
    if (std::optional<Frame> frame = decoder_.next()) {
      return *std::move(frame);
    }
    std::uint8_t buf[16 * 1024];
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n == 0) {
      throw aps::io::IoError("server closed the connection");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      throw aps::io::IoError(errno_message("recv"));
    }
    bytes_received_ += static_cast<std::uint64_t>(n);
    decoder_.feed({buf, static_cast<std::size_t>(n)});
  }
}

Frame BlockingClient::wait_for(FrameKind kind) {
  return wait_for_any(kind, kind);
}

Frame BlockingClient::wait_for_any(FrameKind a, FrameKind b) {
  for (auto it = inbox_.begin(); it != inbox_.end(); ++it) {
    if (it->kind == a || it->kind == b) {
      Frame frame = std::move(*it);
      inbox_.erase(it);
      return frame;
    }
  }
  for (;;) {
    Frame frame = recv_frame();
    if (frame.kind == a || frame.kind == b) return frame;
    if (frame.kind == FrameKind::kError) {
      const ErrorMsg err = decode_error(frame);
      throw ProtocolError("server error " + std::to_string(err.code) + ": " +
                          err.message);
    }
    inbox_.push_back(std::move(frame));
  }
}

void BlockingClient::open_session(std::uint64_t token,
                                  const std::string& patient_id,
                                  const std::string& monitor,
                                  std::int32_t patient_index,
                                  std::uint32_t max_retries) {
  for (std::uint32_t attempt = 0;; ++attempt) {
    send(OpenSessionMsg{.token = token,
                        .patient_id = patient_id,
                        .monitor = monitor,
                        .patient_index = patient_index});
    Frame frame = wait_for_any(FrameKind::kOpenAck, FrameKind::kReject);
    if (frame.kind == FrameKind::kReject) {
      RejectMsg reject = decode_reject(frame);
      if (reject.token != token) {
        throw ProtocolError("reject for token " +
                            std::to_string(reject.token) + ", expected " +
                            std::to_string(token));
      }
      if (attempt < max_retries) {
        // Honor the server's backoff hint (capped so a hostile hint
        // cannot park the client for minutes).
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::min<std::uint32_t>(reject.retry_after_ms, 1000)));
        continue;
      }
      throw RejectedError(std::move(reject));
    }
    const OpenAckMsg ack = decode_open_ack(frame);
    if (ack.token != token) {
      throw ProtocolError("open ack for token " + std::to_string(ack.token) +
                          ", expected " + std::to_string(token));
    }
    if (!ack.ok) {
      throw ProtocolError("server refused session: " + ack.error);
    }
    return;
  }
}

void BlockingClient::send_tick(std::uint64_t token, std::uint64_t seq,
                               const aps::monitor::Observation& obs) {
  send(TickMsg{.token = token, .seq = seq, .obs = obs});
}

DecisionMsg BlockingClient::recv_decision() {
  return decode_decision(wait_for(FrameKind::kDecision));
}

TickReply BlockingClient::recv_reply() {
  Frame frame = wait_for_any(FrameKind::kDecision, FrameKind::kReject);
  TickReply reply;
  if (frame.kind == FrameKind::kDecision) {
    reply.served = true;
    reply.decision = decode_decision(frame);
  } else {
    reply.served = false;
    reply.reject = decode_reject(frame);
  }
  return reply;
}

CloseAckMsg BlockingClient::close_session(std::uint64_t token) {
  send(CloseSessionMsg{.token = token});
  const CloseAckMsg ack = decode_close_ack(wait_for(FrameKind::kCloseAck));
  if (ack.token != token) {
    throw ProtocolError("close ack for token " + std::to_string(ack.token) +
                        ", expected " + std::to_string(token));
  }
  return ack;
}

}  // namespace aps::net
