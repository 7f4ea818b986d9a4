// Minimal blocking TCP client for the ingest front door: one socket, one
// FrameDecoder, synchronous helpers for the handshake and per-session
// calls. Decisions arrive at the server's tick cadence rather than
// per-request, so recv-side helpers pull from an inbox that tolerates
// frames arriving out of the order the caller asks for them (e.g. a
// CloseAck landing before the last few Decision frames are consumed).
// Used by examples/net_client, the stress test, and bench/net_ingest —
// production clients would speak the protocol directly.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <utility>

#include "net/protocol.h"

namespace aps::net {

/// The server answered with a typed kReject frame (admission shed) and
/// the client is out of retries. Carries the full reject so callers can
/// honor retry_after_ms themselves.
class RejectedError : public aps::io::IoError {
 public:
  explicit RejectedError(RejectMsg reject)
      : IoError("server shed request (reason " +
                std::to_string(reject.reason) + "): " + reject.message),
        reject_(std::move(reject)) {}
  [[nodiscard]] const RejectMsg& reject() const { return reject_; }

 private:
  RejectMsg reject_;
};

/// Either a decision or a typed reject for one tick (exactly one of the
/// two messages is meaningful, selected by `served`).
struct TickReply {
  bool served = false;
  DecisionMsg decision;  ///< valid when served
  RejectMsg reject;      ///< valid when !served
};

class BlockingClient {
 public:
  /// Connect + kHello handshake; throws IoError/ProtocolError on failure.
  BlockingClient(const std::string& host, std::uint16_t port,
                 const std::string& client_name = "client");
  ~BlockingClient();

  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;

  /// Engine model generation reported in the server's HelloAck.
  [[nodiscard]] std::uint64_t server_generation() const {
    return generation_;
  }

  /// kOpenSession -> kOpenAck; throws ProtocolError when the server
  /// refuses (unknown monitor, duplicate patient, ...). A kReject reply
  /// (admission shed) is retried up to max_retries times, backing off by
  /// the server's retry_after_ms hint each time; once retries are
  /// exhausted it throws RejectedError.
  void open_session(std::uint64_t token, const std::string& patient_id,
                    const std::string& monitor, std::int32_t patient_index,
                    std::uint32_t max_retries = 0);

  /// Fire-and-forget: the decision comes back on the server's tick
  /// cadence; collect it with recv_decision().
  void send_tick(std::uint64_t token, std::uint64_t seq,
                 const aps::monitor::Observation& obs);

  /// Next kDecision frame (blocking). Other frame kinds received while
  /// waiting are parked in the inbox for their own helpers. Use
  /// recv_reply() against a shedding server — a kReject would park here
  /// forever.
  [[nodiscard]] DecisionMsg recv_decision();

  /// Next decision OR typed reject, whichever the server sent first —
  /// the receive call for overload-aware clients.
  [[nodiscard]] TickReply recv_reply();

  /// kCloseSession -> kCloseAck with the session's final stats.
  CloseAckMsg close_session(std::uint64_t token);

  /// Raw escape hatches (used by the fuzz/stress tests).
  void send_frame(const Frame& frame);
  void send_raw(const void* data, std::size_t n);
  [[nodiscard]] Frame recv_frame();

  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::uint64_t bytes_received() const {
    return bytes_received_;
  }

 private:
  /// Encode `msg` in place into out_ and send it.
  template <WireMessage Msg>
  void send(const Msg& msg);
  /// Block until a frame of `kind` arrives; parks everything else.
  Frame wait_for(FrameKind kind);
  /// Block until a frame of either kind arrives; parks everything else.
  Frame wait_for_any(FrameKind a, FrameKind b);

  int fd_ = -1;
  FrameDecoder decoder_;
  std::vector<std::uint8_t> out_;  ///< reused send buffer
  std::deque<Frame> inbox_;
  std::uint64_t generation_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
};

}  // namespace aps::net
