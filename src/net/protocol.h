// Length-prefixed, versioned binary wire protocol for the TCP ingest
// front door (mvme data-server style). Every frame is
//
//   u32 magic "APSN" | u16 version | u16 kind | u32 payload_len |
//   u32 header_crc (CRC-32 of the 12 bytes above) |
//   u32 payload_crc (CRC-32 of the payload) | payload bytes
//
// so a receiver can validate the header — including the length field —
// before trusting it, and the payload before decoding it. Payloads are
// encoded with the same hardened io::BinaryWriter/BinaryReader codec the
// artifact bundles use: hostile string lengths and element counts are
// rejected up front, and every decode must consume its payload exactly.
//
// Conversation shape (client -> server unless noted):
//   kHello        -> kHelloAck       version handshake, engine generation
//   kOpenSession  -> kOpenAck        client token -> serving session
//   kTick          : one observation for one session (server replies with
//   kDecision      : one decision per tick, fanned out at tick cadence)
//   kCloseSession -> kCloseAck       final per-session stats
//   kError         : either side; sender drops the connection after it
//
// Any malformed byte — bad magic/version/CRC, hostile length, trailing
// payload bytes, out-of-range enum — throws ProtocolError (an io::IoError),
// and the connection is dropped. Nothing here ever crashes on hostile
// input; the fuzz suite (tests/net_protocol_test.cpp) runs under ASan.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "io/serial.h"
#include "monitor/monitor.h"

namespace aps::net {

/// Malformed or hostile wire bytes. Derives from io::IoError so transport
/// and artifact corruption surface through one exception family.
class ProtocolError : public aps::io::IoError {
 public:
  explicit ProtocolError(const std::string& what) : IoError(what) {}
};

inline constexpr std::uint32_t kNetMagic = 0x4150534Eu;  // "APSN"
inline constexpr std::uint16_t kNetVersion = 1;
/// Hard ceiling for one frame's payload; anything larger in a header is
/// hostile, not a real frame (ticks are ~100 bytes).
inline constexpr std::uint32_t kMaxFramePayload = 1u << 20;  // 1 MiB
inline constexpr std::size_t kFrameHeaderSize = 20;

enum class FrameKind : std::uint16_t {
  kHello = 1,
  kHelloAck = 2,
  kOpenSession = 3,
  kOpenAck = 4,
  kTick = 5,
  kDecision = 6,
  kCloseSession = 7,
  kCloseAck = 8,
  kError = 9,
  kReject = 10,  ///< admission refused an open or a tick; back off
};
inline constexpr std::uint16_t kFrameKindMax = 10;

/// Highest serve::RejectReason a kReject frame may carry.
inline constexpr std::uint8_t kMaxRejectReason = 3;

[[nodiscard]] const char* frame_kind_name(FrameKind kind);

struct Frame {
  FrameKind kind = FrameKind::kError;
  std::vector<std::uint8_t> payload;
};

/// The one in-place encoder behind every wire frame and listfile record:
/// reserves `header_size` bytes at the end of `out`, then lets
/// `write(io::BinaryWriter&)` append the payload straight behind them.
/// Returns the offset of the reserved header, which the caller fills in
/// from the payload that follows it (length, CRCs), so the socket and
/// listfile paths never build a payload in a buffer of its own.
template <typename WritePayload>
std::size_t encode_in_place(std::vector<std::uint8_t>& out,
                            std::size_t header_size, WritePayload&& write) {
  const std::size_t start = out.size();
  out.resize(start + header_size);
  aps::io::BinaryWriter payload(out);
  write(payload);
  return start;
}

/// Fill in the frame header at `out[start]` for the payload behind it
/// (everything from start + kFrameHeaderSize to the end of `out`). An
/// oversized payload is cut off again and throws ProtocolError.
void seal_frame(std::vector<std::uint8_t>& out, std::size_t start,
                FrameKind kind);

/// Append an already-built frame to `out`.
void append_frame(std::vector<std::uint8_t>& out, const Frame& frame);

/// Serialize one frame (header + CRCs + payload) into a fresh buffer.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Incremental frame parser for one connection: feed() whatever the socket
/// delivered, then pop complete frames with next(). Throws ProtocolError
/// on any malformed header or CRC mismatch — the connection is then
/// poisoned and must be dropped (the decoder stays throwing).
class FrameDecoder {
 public:
  /// `peer` names the connection in error messages.
  explicit FrameDecoder(std::string peer = "peer");

  void feed(std::span<const std::uint8_t> bytes);
  /// Next complete, CRC-verified frame; nullopt when more bytes are
  /// needed.
  [[nodiscard]] std::optional<Frame> next();
  /// Bytes buffered but not yet consumed by a complete frame.
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::string peer_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  ///< consumed prefix (compacted on feed)
  bool poisoned_ = false;
};

// ---- Typed payloads --------------------------------------------------------

struct HelloMsg {
  static constexpr FrameKind kKind = FrameKind::kHello;
  std::uint32_t protocol_version = kNetVersion;
  std::string client_name;
};

struct HelloAckMsg {
  static constexpr FrameKind kKind = FrameKind::kHelloAck;
  std::uint32_t protocol_version = kNetVersion;
  std::uint64_t generation = 0;  ///< serving engine model generation
  std::string server_name;
};

struct OpenSessionMsg {
  static constexpr FrameKind kKind = FrameKind::kOpenSession;
  std::uint64_t token = 0;  ///< client-chosen id echoed in every reply
  std::string patient_id;
  std::string monitor;
  std::int32_t patient_index = 0;
};

struct OpenAckMsg {
  static constexpr FrameKind kKind = FrameKind::kOpenAck;
  std::uint64_t token = 0;
  bool ok = false;
  std::string error;  ///< empty when ok
};

struct TickMsg {
  static constexpr FrameKind kKind = FrameKind::kTick;
  std::uint64_t token = 0;
  std::uint64_t seq = 0;  ///< client sequence, echoed in the decision
  aps::monitor::Observation obs;
};

struct DecisionMsg {
  static constexpr FrameKind kKind = FrameKind::kDecision;
  std::uint64_t token = 0;
  std::uint64_t seq = 0;
  aps::monitor::Decision decision;
};

struct CloseSessionMsg {
  static constexpr FrameKind kKind = FrameKind::kCloseSession;
  std::uint64_t token = 0;
};

struct CloseAckMsg {
  static constexpr FrameKind kKind = FrameKind::kCloseAck;
  std::uint64_t token = 0;
  std::uint64_t cycles = 0;
  std::uint64_t alarms = 0;
};

struct ErrorMsg {
  static constexpr FrameKind kKind = FrameKind::kError;
  std::uint32_t code = 0;
  std::string message;
};

/// Typed admission refusal (server -> client), unlike kError a NORMAL
/// overload outcome: the connection stays up and the client should back
/// off for retry_after_ms before retrying. Sent in place of kOpenAck when
/// a session open is shed, and in place of kDecision (seq echoed) when a
/// tick is dropped for an over-quota tenant or carries a non-finite
/// observation. `reason` carries serve::RejectReason values (1 = open
/// shed, 2 = over-quota tick, 3 = invalid observation).
struct RejectMsg {
  static constexpr FrameKind kKind = FrameKind::kReject;
  std::uint64_t token = 0;
  std::uint64_t seq = 0;  ///< 0 for open rejections
  std::uint8_t reason = 0;
  std::uint32_t retry_after_ms = 0;
  std::string message;
};

// Payload writers, one per message; the frame kind is the message's
// kKind.
void write_payload(aps::io::BinaryWriter& out, const HelloMsg& msg);
void write_payload(aps::io::BinaryWriter& out, const HelloAckMsg& msg);
void write_payload(aps::io::BinaryWriter& out, const OpenSessionMsg& msg);
void write_payload(aps::io::BinaryWriter& out, const OpenAckMsg& msg);
void write_payload(aps::io::BinaryWriter& out, const TickMsg& msg);
void write_payload(aps::io::BinaryWriter& out, const DecisionMsg& msg);
void write_payload(aps::io::BinaryWriter& out, const CloseSessionMsg& msg);
void write_payload(aps::io::BinaryWriter& out, const CloseAckMsg& msg);
void write_payload(aps::io::BinaryWriter& out, const ErrorMsg& msg);
void write_payload(aps::io::BinaryWriter& out, const RejectMsg& msg);

template <typename Msg>
concept WireMessage = requires(aps::io::BinaryWriter& out, const Msg& msg) {
  { Msg::kKind } -> std::convertible_to<FrameKind>;
  write_payload(out, msg);
};

/// Append `msg` as one complete frame to `out`, encoded in place — the
/// socket path (server replies, client requests).
template <WireMessage Msg>
void append_frame(std::vector<std::uint8_t>& out, const Msg& msg) {
  const std::size_t start =
      encode_in_place(out, kFrameHeaderSize, [&msg](aps::io::BinaryWriter& w) {
        write_payload(w, msg);
      });
  seal_frame(out, start, Msg::kKind);
}

/// `msg` as a standalone Frame (its payload in a buffer of its own).
template <WireMessage Msg>
[[nodiscard]] Frame encode(const Msg& msg) {
  aps::io::BinaryWriter out;
  write_payload(out, msg);
  return Frame{Msg::kKind, out.take()};
}

// Decoders validate the frame kind, every enum, and that the payload is
// consumed exactly; ProtocolError otherwise.
[[nodiscard]] HelloMsg decode_hello(const Frame& frame);
[[nodiscard]] HelloAckMsg decode_hello_ack(const Frame& frame);
[[nodiscard]] OpenSessionMsg decode_open_session(const Frame& frame);
[[nodiscard]] OpenAckMsg decode_open_ack(const Frame& frame);
[[nodiscard]] TickMsg decode_tick(const Frame& frame);
[[nodiscard]] DecisionMsg decode_decision(const Frame& frame);
[[nodiscard]] CloseSessionMsg decode_close_session(const Frame& frame);
[[nodiscard]] CloseAckMsg decode_close_ack(const Frame& frame);
[[nodiscard]] ErrorMsg decode_error(const Frame& frame);
[[nodiscard]] RejectMsg decode_reject(const Frame& frame);

// Observation/Decision body codecs, shared with the listfile record
// format so recorded streams and wire streams are one encoding.
void write_observation(aps::io::BinaryWriter& out,
                       const aps::monitor::Observation& obs);
[[nodiscard]] aps::monitor::Observation read_observation(
    aps::io::BinaryReader& in);
/// True when every floating-point field of `obs` is finite. NaN and
/// +-inf pass every CRC and decode check, but no monitor is defined on
/// them: the ingest server answers such a tick with a kReject (reason 3,
/// invalid observation) and never feeds, records or drift-merges it.
[[nodiscard]] bool observation_finite(const aps::monitor::Observation& obs);
void write_decision(aps::io::BinaryWriter& out,
                    const aps::monitor::Decision& decision);
[[nodiscard]] aps::monitor::Decision read_decision(aps::io::BinaryReader& in);

}  // namespace aps::net
