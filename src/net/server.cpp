#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "net/listfile.h"
#include "net/protocol.h"
#include "serve/group.h"

namespace aps::net {

namespace {

/// A connection writing slower than this backlog is dead weight; drop it
/// rather than buffer without bound.
constexpr std::size_t kMaxOutbufBytes = 16u << 20;  // 16 MiB

/// Ceiling on one group.feed() batch; longer queues span ticks.
constexpr std::size_t kMaxBatch = 8192;

std::string errno_message(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

void set_nonblocking_checks(int fd) {
  const int flag = 1;
  // Best effort; a missing TCP_NODELAY only costs latency.
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &flag, sizeof flag);
}

}  // namespace

struct IngestServer::Impl {
  struct PendingEvent {
    /// kInvalidTick: a tick with a non-finite observation field, answered
    /// with a kReject in batch order and never fed.
    enum class Kind : std::uint8_t { kTick, kInvalidTick, kClose };
    Kind kind = Kind::kTick;
    std::uint64_t token = 0;
    std::uint64_t seq = 0;
    aps::monitor::Observation obs;
  };

  struct Connection {
    int fd = -1;
    std::string peer;
    FrameDecoder decoder{"peer"};
    std::vector<std::uint8_t> outbuf;
    std::size_t out_pos = 0;
    std::deque<PendingEvent> events;
    /// Client token -> live group session.
    std::unordered_map<std::uint64_t, aps::serve::SessionId> sessions;
    bool hello_done = false;
    bool paused = false;      ///< EPOLLIN removed until the next tick drain
    bool want_write = false;  ///< EPOLLOUT armed for a partial outbuf
    bool dirty = false;       ///< listed in `dirty` for the next flush
  };

  aps::serve::EngineGroup& group;
  ServerConfig config;
  aps::obs::Registry& registry;

  int listen_fd = -1;
  int epoll_fd = -1;
  int wake_fd = -1;  ///< eventfd poked by stop()
  std::uint16_t bound_port = 0;
  std::thread io_thread;
  std::atomic<bool> running{false};
  std::atomic<bool> stop_requested{false};
  std::atomic<std::size_t> open_count{0};

  std::map<int, Connection> connections;  ///< fd -> state, IO thread only
  /// Connections with frames appended since the last flush_pending().
  std::vector<int> dirty;
  std::unique_ptr<ListfileWriter> listfile;

  // Metric handles, resolved once (per-frame-kind counters included).
  aps::obs::Gauge* g_open = nullptr;
  aps::obs::Counter* c_accepted = nullptr;
  aps::obs::Counter* c_closed = nullptr;
  aps::obs::Counter* c_rejected = nullptr;
  aps::obs::Counter* c_bytes_in = nullptr;
  aps::obs::Counter* c_bytes_out = nullptr;
  aps::obs::Counter* c_writes = nullptr;
  aps::obs::Counter* c_protocol_errors = nullptr;
  aps::obs::Counter* c_ticks = nullptr;
  aps::obs::Counter* c_batches = nullptr;
  aps::obs::Counter* c_pauses = nullptr;
  aps::obs::Counter* c_drop_disconnect = nullptr;
  aps::obs::Counter* c_drop_closed = nullptr;
  aps::obs::Counter* c_drop_invalid = nullptr;
  aps::obs::Counter* c_frames_in[kFrameKindMax + 1] = {};
  aps::obs::Counter* c_frames_out[kFrameKindMax + 1] = {};
  aps::obs::Histogram* h_batch = nullptr;
  aps::obs::Histogram* h_frame_in = nullptr;
  aps::obs::Histogram* h_frame_out = nullptr;

  Impl(aps::serve::EngineGroup& serving, ServerConfig cfg)
      : group(serving),
        config(std::move(cfg)),
        registry(config.registry != nullptr ? *config.registry
                                            : group.registry()) {
    resolve_metrics();
    if (!config.listfile.empty()) {
      listfile = std::make_unique<ListfileWriter>(config.listfile);
    }
    open_sockets();
  }

  ~Impl() { shutdown(); }

  void resolve_metrics() {
    g_open = &registry.gauge("net_connections", {{"state", "open"}},
                             "currently connected ingest clients");
    c_accepted = &registry.counter("net_connections_total",
                                   {{"state", "accepted"}},
                                   "ingest connections by lifecycle state");
    c_closed = &registry.counter("net_connections_total",
                                 {{"state", "closed"}});
    c_rejected = &registry.counter("net_connections_total",
                                   {{"state", "rejected"}});
    c_bytes_in = &registry.counter("net_bytes_in_total", {},
                                   "bytes read from ingest sockets");
    c_bytes_out = &registry.counter("net_bytes_out_total", {},
                                    "bytes written to ingest sockets");
    c_writes = &registry.counter("net_writes_total", {},
                                 "send() calls that moved bytes");
    c_protocol_errors = &registry.counter(
        "net_protocol_errors_total", {},
        "connections dropped for malformed or hostile frames");
    c_ticks = &registry.counter("net_ticks_total", {},
                                "observations fed through the engine");
    c_batches = &registry.counter("net_tick_batches_total", {},
                                  "engine feed() batches");
    c_pauses = &registry.counter(
        "net_backpressure_pauses_total", {},
        "reads paused because a connection's event queue filled");
    c_drop_disconnect =
        &registry.counter("net_frames_dropped_total",
                          {{"reason", "disconnect"}},
                          "queued events dropped before reaching the engine");
    c_drop_closed = &registry.counter("net_frames_dropped_total",
                                      {{"reason", "closed_session"}});
    c_drop_invalid = &registry.counter("net_frames_dropped_total",
                                       {{"reason", "invalid_observation"}});
    for (std::uint16_t k = 1; k <= kFrameKindMax; ++k) {
      const char* kind = frame_kind_name(static_cast<FrameKind>(k));
      c_frames_in[k] =
          &registry.counter("net_frames_total", {{"dir", "in"}, {"kind", kind}},
                            "frames by direction and kind");
      c_frames_out[k] = &registry.counter("net_frames_total",
                                          {{"dir", "out"}, {"kind", kind}});
    }
    h_batch = &registry.histogram("net_tick_batch_size",
                                  aps::obs::HistogramSpec::bytes(), {},
                                  "observations per engine feed() batch");
    h_frame_in = &registry.histogram("net_frame_bytes",
                                     aps::obs::HistogramSpec::bytes(),
                                     {{"dir", "in"}},
                                     "wire frame size including header");
    h_frame_out = &registry.histogram("net_frame_bytes",
                                      aps::obs::HistogramSpec::bytes(),
                                      {{"dir", "out"}});
  }

  void open_sockets() {
    listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                         0);
    if (listen_fd < 0) {
      throw aps::io::IoError(errno_message("socket"));
    }
    const int one = 1;
    (void)setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config.port);
    if (inet_pton(AF_INET, config.bind_address.c_str(), &addr.sin_addr) !=
        1) {
      close_fds();
      throw aps::io::IoError("bad bind address '" + config.bind_address +
                             "'");
    }
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
        0) {
      const std::string msg = errno_message("bind");
      close_fds();
      throw aps::io::IoError(msg + " on " + config.bind_address + ":" +
                             std::to_string(config.port));
    }
    if (::listen(listen_fd, config.backlog) < 0) {
      const std::string msg = errno_message("listen");
      close_fds();
      throw aps::io::IoError(msg);
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &len) <
        0) {
      const std::string msg = errno_message("getsockname");
      close_fds();
      throw aps::io::IoError(msg);
    }
    bound_port = ntohs(bound.sin_port);

    wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (wake_fd < 0 || epoll_fd < 0) {
      const std::string msg = errno_message("epoll/eventfd");
      close_fds();
      throw aps::io::IoError(msg);
    }
    epoll_add(listen_fd, EPOLLIN);
    epoll_add(wake_fd, EPOLLIN);
  }

  void close_fds() {
    if (listen_fd >= 0) ::close(listen_fd);
    if (epoll_fd >= 0) ::close(epoll_fd);
    if (wake_fd >= 0) ::close(wake_fd);
    listen_fd = epoll_fd = wake_fd = -1;
  }

  void epoll_add(int fd, std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    if (epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      throw aps::io::IoError(errno_message("epoll_ctl add"));
    }
  }

  void epoll_mod(int fd, std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    (void)epoll_ctl(epoll_fd, EPOLL_CTL_MOD, fd, &ev);
  }

  void update_interest(Connection& conn) {
    std::uint32_t events = 0;
    if (!conn.paused) events |= EPOLLIN;
    if (conn.want_write) events |= EPOLLOUT;
    epoll_mod(conn.fd, events);
  }

  // ---- Lifecycle -----------------------------------------------------------

  void start() {
    if (running.exchange(true)) return;
    stop_requested.store(false);
    io_thread = std::thread([this] { io_loop(); });
  }

  void shutdown() {
    if (running.load()) {
      stop_requested.store(true);
      const std::uint64_t one = 1;
      // A full eventfd already wakes the loop; ignore short writes.
      (void)!::write(wake_fd, &one, sizeof one);
      if (io_thread.joinable()) io_thread.join();
      running.store(false);
    }
    // Close straggler connections (their sessions too) from this thread;
    // the IO thread is gone.
    while (!connections.empty()) {
      drop_connection(connections.begin()->first, "server stopped");
    }
    if (listfile) {
      listfile->finish();
      listfile.reset();
    }
    close_fds();
  }

  // ---- IO loop -------------------------------------------------------------

  void io_loop() {
    using clock = std::chrono::steady_clock;
    const auto interval = std::chrono::milliseconds(config.tick_interval_ms);
    auto next_tick = clock::now() + interval;
    std::vector<epoll_event> events(256);
    while (!stop_requested.load(std::memory_order_relaxed)) {
      int timeout = -1;
      if (pending_events() > 0) {
        if (config.tick_interval_ms == 0) {
          timeout = 0;  // drain immediately once the sockets are quiet
        } else {
          const auto left = std::chrono::duration_cast<
              std::chrono::milliseconds>(next_tick - clock::now());
          timeout = static_cast<int>(std::max<std::int64_t>(0, left.count()));
        }
      }
      const int n = epoll_wait(epoll_fd, events.data(),
                               static_cast<int>(events.size()), timeout);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;  // unrecoverable; stop() will clean up
      }
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == wake_fd) {
          std::uint64_t drained = 0;
          (void)!::read(wake_fd, &drained, sizeof drained);
          continue;
        }
        if (fd == listen_fd) {
          accept_clients();
          continue;
        }
        auto it = connections.find(fd);
        if (it == connections.end()) continue;  // dropped earlier this wave
        if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
          drop_connection(fd, "peer hung up");
          continue;
        }
        if ((events[i].events & EPOLLOUT) != 0) flush_outbuf(it->second);
        if ((events[i].events & EPOLLIN) != 0) handle_readable(fd);
      }
      flush_pending();  // replies to this wave's control frames
      const bool due = config.tick_interval_ms == 0 ||
                       clock::now() >= next_tick;
      if (pending_events() > 0 && due) {
        run_tick();
        next_tick = clock::now() + interval;
      } else if (due) {
        next_tick = clock::now() + interval;
      }
    }
  }

  [[nodiscard]] std::size_t pending_events() const {
    std::size_t total = 0;
    for (const auto& [fd, conn] : connections) total += conn.events.size();
    return total;
  }

  void accept_clients() {
    for (;;) {
      sockaddr_in peer{};
      socklen_t len = sizeof peer;
      const int fd =
          ::accept4(listen_fd, reinterpret_cast<sockaddr*>(&peer), &len,
                    SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        return;  // transient accept failure; keep serving
      }
      if (connections.size() >= config.max_connections) {
        c_rejected->add(1);
        ::close(fd);
        continue;
      }
      set_nonblocking_checks(fd);
      char ip[INET_ADDRSTRLEN] = "?";
      (void)inet_ntop(AF_INET, &peer.sin_addr, ip, sizeof ip);
      Connection conn;
      conn.fd = fd;
      conn.peer = std::string(ip) + ":" + std::to_string(ntohs(peer.sin_port));
      conn.decoder = FrameDecoder(conn.peer);
      connections.emplace(fd, std::move(conn));
      epoll_add(fd, EPOLLIN);
      c_accepted->add(1);
      g_open->add(1);
      open_count.fetch_add(1);
    }
  }

  void handle_readable(int fd) {
    auto it = connections.find(fd);
    if (it == connections.end()) return;
    Connection& conn = it->second;
    std::uint8_t buf[64 * 1024];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n > 0) {
        c_bytes_in->add(static_cast<std::uint64_t>(n));
        try {
          conn.decoder.feed({buf, static_cast<std::size_t>(n)});
          if (!drain_decoder(conn)) return;  // connection dropped
        } catch (const ProtocolError& err) {
          protocol_failure(fd, err.what());
          return;
        }
        if (conn.paused) return;  // stop reading until the next tick
        continue;
      }
      if (n == 0) {
        drop_connection(fd, "peer closed");
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      drop_connection(fd, "read error");
      return;
    }
  }

  /// Pop complete frames until the decoder runs dry or the event queue
  /// fills. Returns false when the connection was dropped. Throws
  /// ProtocolError upward for malformed bytes.
  bool drain_decoder(Connection& conn) {
    while (!conn.paused) {
      std::optional<Frame> frame = conn.decoder.next();
      if (!frame.has_value()) return true;
      if (!process_frame(conn, *frame)) return false;
    }
    return true;
  }

  bool process_frame(Connection& conn, const Frame& frame) {
    const auto kind_index = static_cast<std::uint16_t>(frame.kind);
    c_frames_in[kind_index]->add(1);
    h_frame_in->observe(
        static_cast<double>(frame.payload.size() + kFrameHeaderSize));

    if (!conn.hello_done) {
      if (frame.kind != FrameKind::kHello) {
        protocol_failure(conn.fd, "expected hello from " + conn.peer +
                                      ", got " + frame_kind_name(frame.kind));
        return false;
      }
      const HelloMsg hello = decode_hello(frame);
      if (hello.protocol_version != kNetVersion) {
        send_and_drop(conn,
                      ErrorMsg{.code = 1,
                               .message = "unsupported protocol version " +
                                          std::to_string(
                                              hello.protocol_version)},
                      "version mismatch");
        return false;
      }
      conn.hello_done = true;
      send(conn, HelloAckMsg{.protocol_version = kNetVersion,
                             .generation = group.generation(),
                             .server_name = config.server_name});
      return true;
    }

    switch (frame.kind) {
      case FrameKind::kOpenSession: {
        const OpenSessionMsg msg = decode_open_session(frame);
        OpenAckMsg ack{.token = msg.token, .ok = false, .error = ""};
        if (conn.sessions.contains(msg.token)) {
          ack.error = "token already open";
        } else {
          try {
            const aps::serve::SessionId sid = group.open_session(
                msg.patient_id, msg.monitor, msg.patient_index);
            conn.sessions.emplace(msg.token, sid);
            if (listfile) {
              listfile->record_open({.key = sid,
                                     .patient_id = msg.patient_id,
                                     .monitor = msg.monitor,
                                     .patient_index = msg.patient_index});
            }
            ack.ok = true;
          } catch (const aps::serve::ShedError& err) {
            // Overload, not failure: typed reject so the client backs
            // off and retries; the connection stays up.
            send(conn,
                 RejectMsg{.token = msg.token,
                           .seq = 0,
                           .reason = static_cast<std::uint8_t>(err.reason()),
                           .retry_after_ms = err.retry_after_ms(),
                           .message = err.what()});
            return true;
          } catch (const std::exception& err) {
            ack.error = err.what();
          }
        }
        send(conn, ack);
        return true;
      }
      case FrameKind::kTick: {
        const TickMsg msg = decode_tick(frame);
        // A non-finite tick still queues, so its reject keeps its place
        // among the connection's replies.
        conn.events.push_back({.kind = observation_finite(msg.obs)
                                           ? PendingEvent::Kind::kTick
                                           : PendingEvent::Kind::kInvalidTick,
                               .token = msg.token,
                               .seq = msg.seq,
                               .obs = msg.obs});
        maybe_pause(conn);
        return true;
      }
      case FrameKind::kCloseSession: {
        const CloseSessionMsg msg = decode_close_session(frame);
        conn.events.push_back({.kind = PendingEvent::Kind::kClose,
                               .token = msg.token,
                               .seq = 0,
                               .obs = {}});
        maybe_pause(conn);
        return true;
      }
      case FrameKind::kError: {
        // Client signalled an error; its side of the conversation is over.
        drop_connection(conn.fd, "client error frame");
        return false;
      }
      default:
        protocol_failure(conn.fd, "unexpected " +
                                      std::string(frame_kind_name(frame.kind)) +
                                      " frame from client " + conn.peer);
        return false;
    }
  }

  void maybe_pause(Connection& conn) {
    if (conn.paused || conn.events.size() < config.max_queued_events) return;
    conn.paused = true;
    c_pauses->add(1);
    update_interest(conn);
  }

  // ---- Tick: drain queues through the group --------------------------------

  // Batch bookkeeping points at connections directly: nothing drops a
  // connection between draining the queues and queueing the replies
  // (send() only appends), so the pointers outlive both reply loops.

  /// One tick's place in the batch's reply order. A fed tick indexes its
  /// input; an invalid one (input == kNotFed) is answered with a reject.
  struct BatchSlot {
    static constexpr std::size_t kNotFed = static_cast<std::size_t>(-1);
    Connection* conn = nullptr;
    std::uint64_t token = 0;
    std::uint64_t seq = 0;
    std::size_t input = kNotFed;
  };

  struct PendingClose {
    Connection* conn = nullptr;
    std::uint64_t token = 0;
    aps::serve::SessionId session = 0;
  };

  void run_tick() {
    std::vector<aps::serve::SessionInput> inputs;
    std::vector<BatchSlot> slots;
    std::vector<PendingClose> closes;

    for (auto& [fd, conn] : connections) {
      if (inputs.size() >= kMaxBatch) break;
      while (!conn.events.empty() && inputs.size() < kMaxBatch) {
        PendingEvent& ev = conn.events.front();
        const auto sit = conn.sessions.find(ev.token);
        if (sit == conn.sessions.end()) {
          c_drop_closed->add(1);  // event arrived after the token's close
        } else if (ev.kind == PendingEvent::Kind::kTick) {
          // NOT recorded to the listfile yet: admission may shed this
          // tick, and shed ticks must stay out of the record so replay
          // reproduces exactly the served stream.
          slots.push_back({.conn = &conn,
                           .token = ev.token,
                           .seq = ev.seq,
                           .input = inputs.size()});
          inputs.push_back({sit->second, ev.obs});
        } else if (ev.kind == PendingEvent::Kind::kInvalidTick) {
          c_drop_invalid->add(1);
          slots.push_back({.conn = &conn, .token = ev.token, .seq = ev.seq});
        } else {
          // Unmap the token now so ticks queued behind the close are
          // dropped instead of fed to a closing session; the engine
          // close itself waits until after the batch below feeds the
          // ticks queued ahead of it.
          closes.push_back(
              {.conn = &conn, .token = ev.token, .session = sit->second});
          conn.sessions.erase(sit);
        }
        conn.events.pop_front();
      }
    }

    std::vector<aps::monitor::Decision> decisions(inputs.size());
    std::vector<aps::serve::TickOutcome> outcomes(inputs.size());
    if (!inputs.empty()) {
      group.feed(inputs, decisions, outcomes);
      c_batches->add(1);
      h_batch->observe(static_cast<double>(inputs.size()));
    }
    std::uint64_t served = 0;
    for (const BatchSlot& slot : slots) {
      if (slot.input == BatchSlot::kNotFed) {
        send(*slot.conn,
             RejectMsg{.token = slot.token,
                       .seq = slot.seq,
                       .reason = static_cast<std::uint8_t>(
                           aps::serve::RejectReason::kInvalidObservation),
                       .retry_after_ms = 0,
                       .message = "tick rejected: non-finite observation"});
        continue;
      }
      const std::size_t i = slot.input;
      if (!outcomes[i].served()) {
        // Shed tick: typed reject (seq echoed so the client can match
        // it) instead of a decision; nothing reaches the listfile.
        send(*slot.conn,
             RejectMsg{.token = slot.token,
                       .seq = slot.seq,
                       .reason = static_cast<std::uint8_t>(outcomes[i].reason),
                       .retry_after_ms =
                           group.admission().config().retry_after_ms,
                       .message = "tick shed: tenant over quota"});
        continue;
      }
      ++served;
      if (listfile) {
        // Served ticks only, adjacent to their decisions, in batch
        // order — the replayed stream is exactly the served stream.
        listfile->record_tick({.key = inputs[i].session,
                               .seq = slot.seq,
                               .obs = inputs[i].obs});
        listfile->record_decision({.key = inputs[i].session,
                                   .seq = slot.seq,
                                   .decision = decisions[i]});
      }
      send(*slot.conn, DecisionMsg{.token = slot.token,
                                   .seq = slot.seq,
                                   .decision = decisions[i]});
    }
    c_ticks->add(served);

    for (const auto& close : closes) {
      const aps::serve::SessionStats st = group.stats(close.session);
      group.close_session(close.session);
      if (listfile) listfile->record_close({.key = close.session});
      send(*close.conn, CloseAckMsg{.token = close.token,
                                    .cycles = st.cycles,
                                    .alarms = st.alarms});
    }

    // Resume paused connections; their decoders may hold buffered frames
    // that arrived before the pause took effect.
    std::vector<int> resumed;
    for (auto& [fd, conn] : connections) {
      if (conn.paused && conn.events.size() < config.max_queued_events) {
        conn.paused = false;
        update_interest(conn);
        resumed.push_back(fd);
      }
    }
    for (const int fd : resumed) {
      auto it = connections.find(fd);
      if (it == connections.end()) continue;
      try {
        (void)drain_decoder(it->second);
      } catch (const ProtocolError& err) {
        protocol_failure(fd, err.what());
      }
    }
    flush_pending();  // one write per connection for the whole batch
  }

  // ---- Writes --------------------------------------------------------------
  //
  // Replies are only appended here; sockets are written by flush_pending()
  // once per epoll wave and once per tick, so a batch's frames leave in one
  // send() per connection. A connection is never dropped while a caller
  // holds a reference to it: the slow-consumer bound is enforced at the
  // flush, after the decision loop.

  /// Encode `msg` in place at the end of the connection's outbuf.
  template <WireMessage Msg>
  void send(Connection& conn, const Msg& msg) {
    const std::size_t before = conn.outbuf.size();
    append_frame(conn.outbuf, msg);
    c_frames_out[static_cast<std::uint16_t>(Msg::kKind)]->add(1);
    h_frame_out->observe(static_cast<double>(conn.outbuf.size() - before));
    if (!conn.dirty) {
      conn.dirty = true;
      dirty.push_back(conn.fd);
    }
  }

  /// Write every connection with appended frames; drop those whose
  /// unsent backlog still exceeds the slow-consumer bound.
  void flush_pending() {
    for (const int fd : dirty) {
      auto it = connections.find(fd);
      if (it == connections.end()) continue;  // dropped since appending
      Connection& conn = it->second;
      conn.dirty = false;
      flush_outbuf(conn);
      if (conn.outbuf.size() - conn.out_pos > kMaxOutbufBytes) {
        drop_connection(fd, "slow consumer");
      }
    }
    dirty.clear();
  }

  void flush_outbuf(Connection& conn) {
    while (conn.out_pos < conn.outbuf.size()) {
      const ssize_t n =
          ::send(conn.fd, conn.outbuf.data() + conn.out_pos,
                 conn.outbuf.size() - conn.out_pos, MSG_NOSIGNAL);
      if (n > 0) {
        c_writes->add(1);
        c_bytes_out->add(static_cast<std::uint64_t>(n));
        conn.out_pos += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      // Peer vanished; reads will notice via EPOLLHUP. Drop the backlog.
      conn.out_pos = 0;
      conn.outbuf.clear();
      break;
    }
    if (conn.out_pos >= conn.outbuf.size()) {
      conn.outbuf.clear();
      conn.out_pos = 0;
      if (conn.want_write) {
        conn.want_write = false;
        update_interest(conn);
      }
    } else if (conn.out_pos > (1u << 20)) {
      // Compact occasionally so the buffer does not grow monotonically.
      conn.outbuf.erase(conn.outbuf.begin(),
                        conn.outbuf.begin() +
                            static_cast<std::ptrdiff_t>(conn.out_pos));
      conn.out_pos = 0;
      if (!conn.want_write) {
        conn.want_write = true;
        update_interest(conn);
      }
    } else if (!conn.want_write) {
      conn.want_write = true;
      update_interest(conn);
    }
  }

  // ---- Teardown ------------------------------------------------------------

  /// Last words: queue `msg` behind whatever the connection still owes,
  /// make one best-effort write, then drop it.
  template <WireMessage Msg>
  void send_and_drop(Connection& conn, const Msg& msg,
                     const std::string& reason) {
    send(conn, msg);
    flush_outbuf(conn);
    drop_connection(conn.fd, reason);
  }

  void protocol_failure(int fd, const std::string& reason) {
    c_protocol_errors->add(1);
    auto it = connections.find(fd);
    if (it == connections.end()) return;
    // Best effort: tell the peer why before dropping it.
    send_and_drop(it->second, ErrorMsg{.code = 2, .message = reason}, reason);
  }

  void drop_connection(int fd, const std::string& /*reason*/) {
    auto it = connections.find(fd);
    if (it == connections.end()) return;
    Connection& conn = it->second;
    if (!conn.events.empty()) {
      c_drop_disconnect->add(conn.events.size());
    }
    for (const auto& [token, sid] : conn.sessions) {
      group.close_session(sid);
      if (listfile) listfile->record_close({.key = sid});
    }
    if (epoll_fd >= 0) {
      (void)epoll_ctl(epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    }
    ::close(fd);
    connections.erase(it);
    c_closed->add(1);
    g_open->add(-1);
    open_count.fetch_sub(1);
  }
};

IngestServer::IngestServer(aps::serve::EngineGroup& group, ServerConfig config)
    : impl_(std::make_unique<Impl>(group, std::move(config))) {}

IngestServer::~IngestServer() {
  if (impl_) impl_->shutdown();
}

void IngestServer::start() { impl_->start(); }

void IngestServer::stop() { impl_->shutdown(); }

std::uint16_t IngestServer::port() const { return impl_->bound_port; }

std::size_t IngestServer::open_connections() const {
  return impl_->open_count.load();
}

ServerStats IngestServer::stats() const {
  const auto& reg = impl_->registry;
  ServerStats s;
  s.accepted = reg.counter_value("net_connections_total",
                                 {{"state", "accepted"}});
  s.closed = reg.counter_value("net_connections_total",
                               {{"state", "closed"}});
  s.rejected = reg.counter_value("net_connections_total",
                                 {{"state", "rejected"}});
  s.protocol_errors = reg.counter_value("net_protocol_errors_total");
  s.frames_dropped =
      reg.counter_value("net_frames_dropped_total",
                        {{"reason", "disconnect"}}) +
      reg.counter_value("net_frames_dropped_total",
                        {{"reason", "closed_session"}}) +
      reg.counter_value("net_frames_dropped_total",
                        {{"reason", "invalid_observation"}});
  s.ticks_fed = reg.counter_value("net_ticks_total");
  s.batches = reg.counter_value("net_tick_batches_total");
  s.backpressure_pauses =
      reg.counter_value("net_backpressure_pauses_total");
  s.bytes_in = reg.counter_value("net_bytes_in_total");
  s.bytes_out = reg.counter_value("net_bytes_out_total");
  s.writes = reg.counter_value("net_writes_total");
  return s;
}

}  // namespace aps::net
