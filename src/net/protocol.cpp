#include "net/protocol.h"

#include <cmath>
#include <cstring>
#include <utility>

namespace aps::net {

namespace {

using aps::io::BinaryReader;
using aps::io::BinaryWriter;

/// Little-endian scalar helpers for the fixed-layout frame header (the
/// payload goes through the shared BinaryWriter/BinaryReader codec).
void put_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v & 0xFFu);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

void put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFu);
  }
}

[[nodiscard]] std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] |
                                    (static_cast<std::uint16_t>(p[1]) << 8));
}

[[nodiscard]] std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Payload reader for `frame`, validating the expected kind.
[[nodiscard]] BinaryReader payload_reader(const Frame& frame,
                                          FrameKind expected) {
  if (frame.kind != expected) {
    throw ProtocolError(std::string("frame kind mismatch: expected ") +
                        frame_kind_name(expected) + ", got " +
                        frame_kind_name(frame.kind));
  }
  return BinaryReader(frame.payload,
                      std::string(frame_kind_name(expected)) + " payload");
}

/// Every decoder must consume its payload exactly; trailing bytes are
/// hostile or a version skew we must not silently ignore.
void expect_drained(const BinaryReader& in, FrameKind kind) {
  if (in.remaining() > 0) {
    throw ProtocolError(std::string("trailing bytes in ") +
                        frame_kind_name(kind) + " payload");
  }
}

}  // namespace

const char* frame_kind_name(FrameKind kind) {
  switch (kind) {
    case FrameKind::kHello: return "hello";
    case FrameKind::kHelloAck: return "hello-ack";
    case FrameKind::kOpenSession: return "open-session";
    case FrameKind::kOpenAck: return "open-ack";
    case FrameKind::kTick: return "tick";
    case FrameKind::kDecision: return "decision";
    case FrameKind::kCloseSession: return "close-session";
    case FrameKind::kCloseAck: return "close-ack";
    case FrameKind::kError: return "error";
    case FrameKind::kReject: return "reject";
  }
  return "unknown";
}

void seal_frame(std::vector<std::uint8_t>& out, std::size_t start,
                FrameKind kind) {
  const std::size_t payload_len = out.size() - start - kFrameHeaderSize;
  if (payload_len > kMaxFramePayload) {
    out.resize(start);
    throw ProtocolError("frame payload exceeds the protocol maximum");
  }
  std::uint8_t* header = out.data() + start;
  put_u32(header, kNetMagic);
  put_u16(header + 4, kNetVersion);
  put_u16(header + 6, static_cast<std::uint16_t>(kind));
  put_u32(header + 8, static_cast<std::uint32_t>(payload_len));
  put_u32(header + 12, aps::io::crc32(header, 12));
  put_u32(header + 16,
          aps::io::crc32(header + kFrameHeaderSize, payload_len));
}

void append_frame(std::vector<std::uint8_t>& out, const Frame& frame) {
  const std::size_t start = out.size();
  out.resize(start + kFrameHeaderSize);
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  seal_frame(out, start, frame.kind);
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderSize + frame.payload.size());
  append_frame(out, frame);
  return out;
}

// ---- FrameDecoder ----------------------------------------------------------

FrameDecoder::FrameDecoder(std::string peer) : peer_(std::move(peer)) {}

void FrameDecoder::feed(std::span<const std::uint8_t> bytes) {
  // Compact the consumed prefix before growing so a long-lived connection
  // never accumulates dead bytes.
  if (pos_ > 0) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

std::optional<Frame> FrameDecoder::next() {
  if (poisoned_) {
    throw ProtocolError("connection from " + peer_ +
                        " already failed protocol validation");
  }
  if (buffered() < kFrameHeaderSize) return std::nullopt;
  const std::uint8_t* header = buf_.data() + pos_;
  // Validate the entire header — including the length field — via its CRC
  // before trusting a single field of it.
  const std::uint32_t magic = get_u32(header);
  const std::uint16_t version = get_u16(header + 4);
  const std::uint16_t kind = get_u16(header + 6);
  const std::uint32_t payload_len = get_u32(header + 8);
  const std::uint32_t header_crc = get_u32(header + 12);
  const std::uint32_t payload_crc = get_u32(header + 16);
  const auto fail = [&](const std::string& what) -> std::optional<Frame> {
    poisoned_ = true;
    throw ProtocolError("malformed frame from " + peer_ + ": " + what);
  };
  if (magic != kNetMagic) return fail("bad magic number");
  if (aps::io::crc32(header, 12) != header_crc) return fail("header CRC mismatch");
  if (version != kNetVersion) {
    return fail("unsupported protocol version " + std::to_string(version));
  }
  if (kind == 0 || kind > kFrameKindMax) {
    return fail("unknown frame kind " + std::to_string(kind));
  }
  if (payload_len > kMaxFramePayload) {
    return fail("hostile payload length " + std::to_string(payload_len));
  }
  if (buffered() < kFrameHeaderSize + payload_len) return std::nullopt;
  const std::uint8_t* payload = header + kFrameHeaderSize;
  if (aps::io::crc32(payload, payload_len) != payload_crc) {
    return fail("payload CRC mismatch");
  }
  Frame frame;
  frame.kind = static_cast<FrameKind>(kind);
  frame.payload.assign(payload, payload + payload_len);
  pos_ += kFrameHeaderSize + payload_len;
  return frame;
}

// ---- Observation / Decision bodies ----------------------------------------

void write_observation(BinaryWriter& out,
                       const aps::monitor::Observation& obs) {
  out.f64(obs.time_min);
  out.f64(obs.bg);
  out.f64(obs.bg_rate);
  out.f64(obs.iob);
  out.f64(obs.iob_rate);
  out.f64(obs.commanded_rate);
  out.f64(obs.previous_rate);
  out.u8(static_cast<std::uint8_t>(obs.action));
  out.f64(obs.basal_rate);
  out.f64(obs.isf);
}

aps::monitor::Observation read_observation(BinaryReader& in) {
  aps::monitor::Observation obs;
  obs.time_min = in.f64();
  obs.bg = in.f64();
  obs.bg_rate = in.f64();
  obs.iob = in.f64();
  obs.iob_rate = in.f64();
  obs.commanded_rate = in.f64();
  obs.previous_rate = in.f64();
  const std::uint8_t action = in.u8();
  if (action > static_cast<std::uint8_t>(aps::ControlAction::kKeepInsulin)) {
    throw ProtocolError("out-of-range control action " +
                        std::to_string(action));
  }
  obs.action = static_cast<aps::ControlAction>(action);
  obs.basal_rate = in.f64();
  obs.isf = in.f64();
  return obs;
}

bool observation_finite(const aps::monitor::Observation& obs) {
  for (const double v : {obs.time_min, obs.bg, obs.bg_rate, obs.iob,
                         obs.iob_rate, obs.commanded_rate, obs.previous_rate,
                         obs.basal_rate, obs.isf}) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

void write_decision(BinaryWriter& out,
                    const aps::monitor::Decision& decision) {
  out.u8(decision.alarm ? 1 : 0);
  out.u8(static_cast<std::uint8_t>(decision.predicted));
  out.i32(decision.rule_id);
}

aps::monitor::Decision read_decision(BinaryReader& in) {
  aps::monitor::Decision decision;
  const std::uint8_t alarm = in.u8();
  if (alarm > 1) {
    throw ProtocolError("out-of-range alarm flag " + std::to_string(alarm));
  }
  decision.alarm = alarm != 0;
  const std::uint8_t predicted = in.u8();
  if (predicted >
      static_cast<std::uint8_t>(aps::HazardType::kH2TooLittleInsulin)) {
    throw ProtocolError("out-of-range hazard class " +
                        std::to_string(predicted));
  }
  decision.predicted = static_cast<aps::HazardType>(predicted);
  decision.rule_id = in.i32();
  return decision;
}

// ---- Typed encode / decode -------------------------------------------------

void write_payload(BinaryWriter& out, const HelloMsg& msg) {
  out.u32(msg.protocol_version);
  out.str(msg.client_name);
}

HelloMsg decode_hello(const Frame& frame) {
  auto in = payload_reader(frame, FrameKind::kHello);
  HelloMsg msg;
  msg.protocol_version = in.u32();
  msg.client_name = in.str();
  expect_drained(in, frame.kind);
  return msg;
}

void write_payload(BinaryWriter& out, const HelloAckMsg& msg) {
  out.u32(msg.protocol_version);
  out.u64(msg.generation);
  out.str(msg.server_name);
}

HelloAckMsg decode_hello_ack(const Frame& frame) {
  auto in = payload_reader(frame, FrameKind::kHelloAck);
  HelloAckMsg msg;
  msg.protocol_version = in.u32();
  msg.generation = in.u64();
  msg.server_name = in.str();
  expect_drained(in, frame.kind);
  return msg;
}

void write_payload(BinaryWriter& out, const OpenSessionMsg& msg) {
  out.u64(msg.token);
  out.str(msg.patient_id);
  out.str(msg.monitor);
  out.i32(msg.patient_index);
}

OpenSessionMsg decode_open_session(const Frame& frame) {
  auto in = payload_reader(frame, FrameKind::kOpenSession);
  OpenSessionMsg msg;
  msg.token = in.u64();
  msg.patient_id = in.str();
  msg.monitor = in.str();
  msg.patient_index = in.i32();
  expect_drained(in, frame.kind);
  return msg;
}

void write_payload(BinaryWriter& out, const OpenAckMsg& msg) {
  out.u64(msg.token);
  out.u8(msg.ok ? 1 : 0);
  out.str(msg.error);
}

OpenAckMsg decode_open_ack(const Frame& frame) {
  auto in = payload_reader(frame, FrameKind::kOpenAck);
  OpenAckMsg msg;
  msg.token = in.u64();
  msg.ok = in.u8() != 0;
  msg.error = in.str();
  expect_drained(in, frame.kind);
  return msg;
}

void write_payload(BinaryWriter& out, const TickMsg& msg) {
  out.u64(msg.token);
  out.u64(msg.seq);
  write_observation(out, msg.obs);
}

TickMsg decode_tick(const Frame& frame) {
  auto in = payload_reader(frame, FrameKind::kTick);
  TickMsg msg;
  msg.token = in.u64();
  msg.seq = in.u64();
  msg.obs = read_observation(in);
  expect_drained(in, frame.kind);
  return msg;
}

void write_payload(BinaryWriter& out, const DecisionMsg& msg) {
  out.u64(msg.token);
  out.u64(msg.seq);
  write_decision(out, msg.decision);
}

DecisionMsg decode_decision(const Frame& frame) {
  auto in = payload_reader(frame, FrameKind::kDecision);
  DecisionMsg msg;
  msg.token = in.u64();
  msg.seq = in.u64();
  msg.decision = read_decision(in);
  expect_drained(in, frame.kind);
  return msg;
}

void write_payload(BinaryWriter& out, const CloseSessionMsg& msg) {
  out.u64(msg.token);
}

CloseSessionMsg decode_close_session(const Frame& frame) {
  auto in = payload_reader(frame, FrameKind::kCloseSession);
  CloseSessionMsg msg;
  msg.token = in.u64();
  expect_drained(in, frame.kind);
  return msg;
}

void write_payload(BinaryWriter& out, const CloseAckMsg& msg) {
  out.u64(msg.token);
  out.u64(msg.cycles);
  out.u64(msg.alarms);
}

CloseAckMsg decode_close_ack(const Frame& frame) {
  auto in = payload_reader(frame, FrameKind::kCloseAck);
  CloseAckMsg msg;
  msg.token = in.u64();
  msg.cycles = in.u64();
  msg.alarms = in.u64();
  expect_drained(in, frame.kind);
  return msg;
}

void write_payload(BinaryWriter& out, const ErrorMsg& msg) {
  out.u32(msg.code);
  out.str(msg.message);
}

ErrorMsg decode_error(const Frame& frame) {
  auto in = payload_reader(frame, FrameKind::kError);
  ErrorMsg msg;
  msg.code = in.u32();
  msg.message = in.str();
  expect_drained(in, frame.kind);
  return msg;
}

void write_payload(BinaryWriter& out, const RejectMsg& msg) {
  out.u64(msg.token);
  out.u64(msg.seq);
  out.u8(msg.reason);
  out.u32(msg.retry_after_ms);
  out.str(msg.message);
}

RejectMsg decode_reject(const Frame& frame) {
  auto in = payload_reader(frame, FrameKind::kReject);
  RejectMsg msg;
  msg.token = in.u64();
  msg.seq = in.u64();
  msg.reason = in.u8();
  // Reason 0 ("not rejected") makes no sense on the wire; 1..3 are the
  // serve::RejectReason values this version defines.
  if (msg.reason == 0 || msg.reason > kMaxRejectReason) {
    throw ProtocolError("out-of-range reject reason " +
                        std::to_string(msg.reason));
  }
  msg.retry_after_ms = in.u32();
  msg.message = in.str();
  expect_drained(in, frame.kind);
  return msg;
}

}  // namespace aps::net
