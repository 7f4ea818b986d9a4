// Epoll-based TCP ingest front door: multiplexes thousands of client
// connections into one serve::EngineGroup's batched tick cadence (mvme
// data-server turned inside out — clients push observations in, decisions
// fan back out). Single dedicated IO thread owns every socket:
//
//   accept -> handshake (kHello) -> kOpenSession -> kTick stream
//
// Ticks are NOT fed one-by-one: each connection parks decoded ticks in a
// bounded per-connection event queue, and every tick_interval the IO
// thread drains ALL queues into one group.feed() batch. The group routes
// every tick to its session's owning replica by the id's replica bits, so
// the door scales with the replica count without knowing the ring exists.
// A connection whose queue fills stops being read (its EPOLLIN is dropped)
// until the next tick drains it — backpressure lands on the client's TCP
// window instead of server memory. Protocol errors (bad CRC, hostile
// length, out-of-range enum) get a best-effort kError frame and the
// connection dropped; the server never crashes on hostile bytes.
//
// Write path: a reply is never written on its own. Every frame (acks,
// decisions, rejects) is encoded in place at the end of its connection's
// output buffer, and each connection with new bytes is flushed once at
// the end of every epoll wave and once at the end of every tick — so a
// tick batch costs one send() per connection, not one per decision. A
// socket that cannot take everything keeps the rest buffered and arms
// EPOLLOUT. The 16 MiB slow-consumer bound is checked at the flush, after
// the decision loop, so no connection is dropped while a reply is being
// built for it.
//
// When the group sheds load (its serve::AdmissionController), refusals
// are NOT errors: a shed open or dropped tick is answered with a typed
// kReject frame carrying the reason and a retry_after_ms backoff hint,
// and the connection stays up. A tick whose observation holds a NaN or
// +-inf field is refused the same way (reason invalid_observation) at the
// door: it is answered in batch order but never fed to a model, recorded,
// or merged into drift. Shed and refused ticks are excluded from the
// listfile (only served ticks and their decisions are recorded,
// adjacently), so replay stays bit-identical.
//
// With ServerConfig::listfile set, every open/tick/decision/close is also
// appended to a session listfile (net/listfile.h) in group-consumption
// order, so the whole serving run can be replayed bit-identically.
//
// Counters/gauges/histograms go through the group's obs::Registry:
//   net_connections{state="open"}            gauge
//   net_connections_total{state=...}         accepted|closed|rejected
//   net_bytes_in_total / net_bytes_out_total
//   net_writes_total                         send() calls that moved bytes
//   net_frames_total{dir,kind}               per-direction, per-frame-kind
//   net_frames_dropped_total{reason}         disconnect|closed_session|
//                                            invalid_observation
//   net_protocol_errors_total
//   net_ticks_total                          observations served
//   net_backpressure_pauses_total
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "obs/metrics.h"

namespace aps::serve {
class EngineGroup;
}  // namespace aps::serve

namespace aps::net {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; the chosen port is readable via IngestServer::port().
  std::uint16_t port = 0;
  int backlog = 128;
  /// Accepts beyond this are rejected (counted) and closed immediately.
  std::size_t max_connections = 4096;
  /// Per-connection bound on queued-but-unfed events (ticks + closes);
  /// reaching it pauses reads from that connection until the next tick.
  std::size_t max_queued_events = 256;
  /// IO-thread batching cadence. 0 = feed as soon as any events are
  /// queued (lowest latency; right for tests and benches).
  std::uint32_t tick_interval_ms = 0;
  /// When non-empty, record every session stream to this listfile.
  std::string listfile;
  /// Metrics sink; nullptr = the group's registry.
  aps::obs::Registry* registry = nullptr;
  std::string server_name = "aps-ingest";
};

/// Point-in-time totals mirrored from the metrics (convenience for tests
/// and benches; the registry stays the source of truth).
struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t closed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t ticks_fed = 0;      ///< observations through the group
  std::uint64_t batches = 0;        ///< group.feed() calls
  std::uint64_t backpressure_pauses = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t writes = 0;         ///< send() calls that moved bytes
};

class IngestServer {
 public:
  /// Binds and listens immediately (throws IoError on failure) but does
  /// not serve until start(). Ticks fan out to the owning replicas'
  /// workers through group.feed().
  IngestServer(aps::serve::EngineGroup& group, ServerConfig config);
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  /// Spawn the IO thread. Idempotent.
  void start();
  /// Drain + close every connection, stop the IO thread, finish the
  /// listfile. Idempotent; also run by the destructor.
  void stop();

  /// Bound port (resolves ephemeral port 0 to the real one).
  [[nodiscard]] std::uint16_t port() const;
  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] std::size_t open_connections() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace aps::net
