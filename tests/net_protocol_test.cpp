// Wire-protocol hardening suite, io_corruption_test style: every typed
// payload round-trips bit-exactly; the frame decoder survives truncation
// at every byte boundary, hundreds of random byte flips, and deliberately
// hostile length fields — always with a clean ProtocolError (or simply
// "need more bytes"), never a crash or a huge allocation. The ASan/UBSan
// CI job runs this with poisoned heap checks on.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/protocol.h"
#include "synthetic_util.h"

namespace {

using namespace aps;

/// One of every frame kind, payloads exercising strings, enums, floats.
std::vector<net::Frame> sample_frames() {
  Rng rng(17);
  const auto obs = testutil::synth_observation(rng, 35.0);
  monitor::Decision decision;
  decision.alarm = true;
  decision.predicted = HazardType::kH1TooMuchInsulin;
  decision.rule_id = 7;
  return {
      net::encode(net::HelloMsg{.protocol_version = net::kNetVersion,
                                .client_name = "fuzz client"}),
      net::encode(net::HelloAckMsg{.protocol_version = net::kNetVersion,
                                   .generation = 3,
                                   .server_name = "srv"}),
      net::encode(net::OpenSessionMsg{.token = 42,
                                      .patient_id = "patient/7",
                                      .monitor = "cawt",
                                      .patient_index = 7}),
      net::encode(net::OpenAckMsg{.token = 42, .ok = true, .error = ""}),
      net::encode(net::TickMsg{.token = 42, .seq = 9, .obs = obs}),
      net::encode(
          net::DecisionMsg{.token = 42, .seq = 9, .decision = decision}),
      net::encode(net::CloseSessionMsg{.token = 42}),
      net::encode(net::CloseAckMsg{.token = 42, .cycles = 10, .alarms = 2}),
      net::encode(net::ErrorMsg{.code = 5, .message = "went wrong"}),
      net::encode(net::RejectMsg{.token = 42,
                                 .seq = 9,
                                 .reason = 2,
                                 .retry_after_ms = 250,
                                 .message = "tenant over quota"}),
  };
}

std::vector<std::uint8_t> wire_bytes(const std::vector<net::Frame>& frames) {
  std::vector<std::uint8_t> bytes;
  for (const auto& frame : frames) {
    const auto encoded = net::encode_frame(frame);
    bytes.insert(bytes.end(), encoded.begin(), encoded.end());
  }
  return bytes;
}

bool frames_equal(const net::Frame& a, const net::Frame& b) {
  return a.kind == b.kind && a.payload == b.payload;
}

TEST(NetProtocol, AllFrameKindsRoundTripThroughTheDecoder) {
  const auto frames = sample_frames();
  net::FrameDecoder decoder("test");
  decoder.feed(wire_bytes(frames));
  for (const auto& expected : frames) {
    const auto got = decoder.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(frames_equal(*got, expected));
  }
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(NetProtocol, TypedFieldsSurviveTheRoundTrip) {
  Rng rng(23);
  const auto obs = testutil::synth_observation(rng, 120.0);
  const net::TickMsg tick{.token = 99, .seq = 123456789, .obs = obs};
  const auto decoded = net::decode_tick(net::encode(tick));
  EXPECT_EQ(decoded.token, tick.token);
  EXPECT_EQ(decoded.seq, tick.seq);
  EXPECT_EQ(decoded.obs.bg, obs.bg);
  EXPECT_EQ(decoded.obs.action, obs.action);
  EXPECT_EQ(decoded.obs.isf, obs.isf);

  const net::HelloAckMsg ack{.protocol_version = 1,
                             .generation = 77,
                             .server_name = "aps-ingest"};
  const auto ack2 = net::decode_hello_ack(net::encode(ack));
  EXPECT_EQ(ack2.generation, 77u);
  EXPECT_EQ(ack2.server_name, "aps-ingest");

  monitor::Decision d;
  d.alarm = true;
  d.predicted = HazardType::kH2TooLittleInsulin;
  d.rule_id = -1;
  const auto d2 =
      net::decode_decision(
          net::encode(net::DecisionMsg{.token = 5, .seq = 6, .decision = d}))
          .decision;
  EXPECT_EQ(d2.alarm, d.alarm);
  EXPECT_EQ(d2.predicted, d.predicted);
  EXPECT_EQ(d2.rule_id, d.rule_id);
}

TEST(NetProtocol, RejectFrameRoundTripsAndGuardsItsReason) {
  // Every wire-legal reason survives the round trip with every field.
  for (const std::uint8_t reason : {1, 2, 3}) {
    const net::RejectMsg msg{.token = 7,
                             .seq = reason == 1 ? 0u : 31u,
                             .reason = reason,
                             .retry_after_ms = 125,
                             .message = "busy"};
    const auto decoded = net::decode_reject(net::encode(msg));
    EXPECT_EQ(decoded.token, msg.token);
    EXPECT_EQ(decoded.seq, msg.seq);
    EXPECT_EQ(decoded.reason, reason);
    EXPECT_EQ(decoded.retry_after_ms, 125u);
    EXPECT_EQ(decoded.message, "busy");
  }
  // Reason 0 ("not rejected") and anything past the defined range are
  // hostile on the wire — rejected before the caller sees the message.
  for (const std::uint8_t reason : {0, 4, 200}) {
    io::BinaryWriter w;
    w.u64(7);
    w.u64(0);
    w.u8(reason);
    w.u32(125);
    w.u64(0);  // empty message
    const net::Frame frame{net::FrameKind::kReject, w.take()};
    EXPECT_THROW((void)net::decode_reject(frame), net::ProtocolError)
        << "reason " << static_cast<int>(reason);
  }
  // Trailing garbage after a valid reject body is refused too.
  {
    auto frame = net::encode(net::RejectMsg{
        .token = 1, .seq = 2, .reason = 1, .retry_after_ms = 3,
        .message = ""});
    frame.payload.push_back(0xAA);
    EXPECT_THROW((void)net::decode_reject(frame), net::ProtocolError);
  }
}

TEST(NetProtocol, NonFiniteTicksDecodeIntactAndAreFlaggedInvalid) {
  // NaN and +-inf are legal IEEE bytes: a tick carrying one passes the
  // header and payload CRCs and decodes bit-exactly, and only the
  // observation check tells the server to answer it with a reject.
  Rng rng(29);
  const auto clean = testutil::synth_observation(rng, 90.0);
  EXPECT_TRUE(net::observation_finite(clean));
  using Field = double monitor::Observation::*;
  const Field fields[] = {
      &monitor::Observation::time_min,   &monitor::Observation::bg,
      &monitor::Observation::bg_rate,    &monitor::Observation::iob,
      &monitor::Observation::iob_rate,   &monitor::Observation::commanded_rate,
      &monitor::Observation::previous_rate, &monitor::Observation::basal_rate,
      &monitor::Observation::isf};
  const double bad_values[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
  for (const Field field : fields) {
    for (const double bad : bad_values) {
      auto obs = clean;
      obs.*field = bad;
      const net::TickMsg tick{.token = 4, .seq = 8, .obs = obs};
      net::FrameDecoder decoder("test");
      decoder.feed(net::encode_frame(net::encode(tick)));
      const auto frame = decoder.next();
      ASSERT_TRUE(frame.has_value());
      const auto decoded = net::decode_tick(*frame);
      EXPECT_EQ(decoded.token, 4u);
      EXPECT_EQ(decoded.seq, 8u);
      EXPECT_EQ(std::memcmp(&(decoded.obs.*field), &bad, sizeof bad), 0);
      EXPECT_FALSE(net::observation_finite(decoded.obs));
    }
  }
}

TEST(NetProtocol, ByteByByteDeliveryYieldsIdenticalFrames) {
  const auto frames = sample_frames();
  const auto bytes = wire_bytes(frames);
  net::FrameDecoder decoder("test");
  std::vector<net::Frame> got;
  for (const std::uint8_t byte : bytes) {
    decoder.feed({&byte, 1});
    while (auto frame = decoder.next()) got.push_back(*std::move(frame));
  }
  ASSERT_EQ(got.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_TRUE(frames_equal(got[i], frames[i])) << "frame " << i;
  }
}

// Truncation at EVERY byte boundary: a prefix must decode to exactly the
// frames that fit entirely, and never crash or throw — a short read is a
// normal condition, not corruption.
TEST(NetProtocol, TruncationAtEveryBoundaryYieldsOnlyCompleteFrames) {
  const auto frames = sample_frames();
  const auto bytes = wire_bytes(frames);
  // Frame start offsets, to know how many frames fit in a prefix.
  std::vector<std::size_t> ends;
  {
    std::size_t off = 0;
    for (const auto& frame : frames) {
      off += net::kFrameHeaderSize + frame.payload.size();
      ends.push_back(off);
    }
  }
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    net::FrameDecoder decoder("truncated");
    decoder.feed({bytes.data(), cut});
    std::size_t complete = 0;
    while (true) {
      const auto frame = decoder.next();  // must not throw on truncation
      if (!frame.has_value()) break;
      ASSERT_LT(complete, frames.size());
      EXPECT_TRUE(frames_equal(*frame, frames[complete]));
      ++complete;
    }
    std::size_t expected = 0;
    while (expected < ends.size() && ends[expected] <= cut) ++expected;
    EXPECT_EQ(complete, expected) << "prefix of " << cut << " bytes";
  }
}

// Random corruption: flip one byte anywhere in the stream. Frames before
// the flipped one still decode bit-exactly; the flipped frame itself must
// surface as ProtocolError (every header field is covered by the header
// CRC, every payload byte by the payload CRC), after which the decoder
// stays poisoned. 600 trials cover all regions of the layout.
TEST(NetProtocol, RandomByteFlipsNeverCrashAndNeverYieldCorruptFrames) {
  const auto frames = sample_frames();
  const auto clean = wire_bytes(frames);
  std::vector<std::size_t> ends;
  {
    std::size_t off = 0;
    for (const auto& frame : frames) {
      off += net::kFrameHeaderSize + frame.payload.size();
      ends.push_back(off);
    }
  }
  Rng rng(4242);
  int errors_seen = 0;
  for (int trial = 0; trial < 600; ++trial) {
    auto bytes = clean;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(bytes.size()) - 1));
    const auto flip = static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    bytes[pos] ^= flip;
    // Index of the frame containing the flipped byte.
    std::size_t flipped = 0;
    while (ends[flipped] <= pos) ++flipped;

    net::FrameDecoder decoder("fuzz");
    decoder.feed(bytes);
    std::size_t decoded = 0;
    bool threw = false;
    try {
      while (auto frame = decoder.next()) {
        ASSERT_LT(decoded, frames.size());
        EXPECT_TRUE(frames_equal(*frame, frames[decoded]))
            << "trial " << trial << ": corrupt frame surfaced";
        ++decoded;
      }
    } catch (const net::ProtocolError&) {
      threw = true;
      ++errors_seen;
      // Poisoned decoders keep throwing rather than resyncing into the
      // middle of hostile bytes.
      EXPECT_THROW((void)decoder.next(), net::ProtocolError);
    }
    EXPECT_EQ(decoded, flipped) << "trial " << trial;
    EXPECT_TRUE(threw) << "trial " << trial << ": flip at " << pos
                       << " went undetected";
  }
  EXPECT_EQ(errors_seen, 600);
}

// A length field of 4 GiB with a VALID header CRC (an attacker can
// compute CRCs too) must be rejected by the payload ceiling before any
// allocation happens.
TEST(NetProtocol, HostileLengthWithValidCrcIsRejectedUpFront) {
  std::vector<std::uint8_t> bytes;
  const auto put_u16 = [&](std::uint16_t v) {
    bytes.push_back(static_cast<std::uint8_t>(v & 0xFF));
    bytes.push_back(static_cast<std::uint8_t>(v >> 8));
  };
  const auto put_u32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
    }
  };
  put_u32(net::kNetMagic);
  put_u16(net::kNetVersion);
  put_u16(static_cast<std::uint16_t>(net::FrameKind::kTick));
  put_u32(0xFFFFFFFFu);                        // hostile payload length
  put_u32(io::crc32(bytes.data(), bytes.size()));  // valid header CRC
  put_u32(0);                                  // payload CRC (never reached)
  net::FrameDecoder decoder("hostile");
  decoder.feed(bytes);
  EXPECT_THROW((void)decoder.next(), net::ProtocolError);

  // Same attack one byte over the actual ceiling.
  bytes.clear();
  put_u32(net::kNetMagic);
  put_u16(net::kNetVersion);
  put_u16(static_cast<std::uint16_t>(net::FrameKind::kTick));
  put_u32(net::kMaxFramePayload + 1);
  put_u32(io::crc32(bytes.data(), bytes.size()));
  put_u32(0);
  net::FrameDecoder decoder2("hostile");
  decoder2.feed(bytes);
  EXPECT_THROW((void)decoder2.next(), net::ProtocolError);
}

TEST(NetProtocol, UnknownKindAndBadVersionAreRejected) {
  const auto craft = [](std::uint16_t version, std::uint16_t kind) {
    std::vector<std::uint8_t> bytes;
    const auto put_u16 = [&](std::uint16_t v) {
      bytes.push_back(static_cast<std::uint8_t>(v & 0xFF));
      bytes.push_back(static_cast<std::uint8_t>(v >> 8));
    };
    const auto put_u32 = [&](std::uint32_t v) {
      for (int i = 0; i < 4; ++i) {
        bytes.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
      }
    };
    put_u32(net::kNetMagic);
    put_u16(version);
    put_u16(kind);
    put_u32(0);
    put_u32(io::crc32(bytes.data(), bytes.size()));
    put_u32(io::crc32(nullptr, 0));
    return bytes;
  };
  {
    net::FrameDecoder decoder("bad-kind");
    decoder.feed(craft(net::kNetVersion, net::kFrameKindMax + 1));
    EXPECT_THROW((void)decoder.next(), net::ProtocolError);
  }
  {
    net::FrameDecoder decoder("bad-kind");
    decoder.feed(craft(net::kNetVersion, 0));
    EXPECT_THROW((void)decoder.next(), net::ProtocolError);
  }
  {
    net::FrameDecoder decoder("bad-version");
    decoder.feed(craft(net::kNetVersion + 1, 1));
    EXPECT_THROW((void)decoder.next(), net::ProtocolError);
  }
}

// Payload-level hardening: trailing bytes, hostile string lengths inside
// a CRC-valid frame, and out-of-range enums all throw cleanly.
TEST(NetProtocol, PayloadDecodersRejectTrailingAndHostileBytes) {
  // Trailing byte after a valid close-session body.
  {
    io::BinaryWriter w;
    w.u64(42);
    w.u8(0xAA);
    const net::Frame frame{net::FrameKind::kCloseSession, w.take()};
    EXPECT_THROW((void)net::decode_close_session(frame), net::ProtocolError);
  }
  // String length claiming far more bytes than the payload holds.
  {
    io::BinaryWriter w;
    w.u32(net::kNetVersion);
    w.u64(0xFFFFFFFFFFFFull);  // hello client_name length
    const net::Frame frame{net::FrameKind::kHello, w.take()};
    EXPECT_THROW((void)net::decode_hello(frame), io::IoError);
  }
  // Wrong kind for the decoder.
  {
    const auto frame = net::encode(net::CloseSessionMsg{.token = 1});
    EXPECT_THROW((void)net::decode_tick(frame), net::ProtocolError);
  }
  // Out-of-range control action inside a tick.
  {
    io::BinaryWriter w;
    w.u64(1);
    w.u64(2);
    Rng rng(3);
    auto obs = testutil::synth_observation(rng, 0.0);
    obs.action = static_cast<ControlAction>(7);
    net::write_observation(w, obs);
    const net::Frame frame{net::FrameKind::kTick, w.take()};
    EXPECT_THROW((void)net::decode_tick(frame), net::ProtocolError);
  }
  // Out-of-range alarm flag and hazard class inside a decision.
  {
    io::BinaryWriter w;
    w.u64(1);
    w.u64(2);
    w.u8(2);  // alarm must be 0/1
    w.u8(0);
    w.i32(0);
    const net::Frame frame{net::FrameKind::kDecision, w.take()};
    EXPECT_THROW((void)net::decode_decision(frame), net::ProtocolError);
  }
  {
    io::BinaryWriter w;
    w.u64(1);
    w.u64(2);
    w.u8(1);
    w.u8(9);  // hazard classes stop at kH2TooLittleInsulin
    w.i32(0);
    const net::Frame frame{net::FrameKind::kDecision, w.take()};
    EXPECT_THROW((void)net::decode_decision(frame), net::ProtocolError);
  }
  // Truncated payload (body shorter than the fields claim).
  {
    io::BinaryWriter w;
    w.u32(net::kNetVersion);
    const net::Frame frame{net::FrameKind::kHelloAck, w.take()};
    EXPECT_THROW((void)net::decode_hello_ack(frame), io::IoError);
  }
}

TEST(NetProtocol, OversizedPayloadRefusesToEncode) {
  net::Frame frame;
  frame.kind = net::FrameKind::kError;
  frame.payload.assign(net::kMaxFramePayload + 1, 0);
  EXPECT_THROW((void)net::encode_frame(frame), net::ProtocolError);
}

}  // namespace
