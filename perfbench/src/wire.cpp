#include "wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>

#include "inputs.h"
#include "io/artifact_io.h"
#include "layers.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serve/group.h"

namespace perfbench {

namespace {

using aps::monitor::Decision;
using aps::monitor::Observation;

constexpr std::uint16_t kUnanswered = 0xFFFF;
constexpr std::uint16_t kRejected = 0xFFFE;
constexpr std::size_t kReadChunk = 64 * 1024;
/// Loopback connections the generator multiplexes every session over.
constexpr std::size_t kConnections = 4;

/// Decisions are kept as 16-bit codes (alarm, predicted hazard, rule id)
/// so a run's decision log stays a few bytes per tick.
[[nodiscard]] bool pack_decision(const Decision& d, std::uint16_t& out) {
  const int rule = d.rule_id + 1;
  const auto hazard = static_cast<unsigned>(d.predicted);
  if (rule < 0 || rule > 0x3FE || hazard > 7) return false;
  out = static_cast<std::uint16_t>((d.alarm ? 1u : 0u) | (hazard << 1) |
                                   (static_cast<unsigned>(rule) << 4));
  return true;
}

/// One session slot of the fleet: a fixed monitor kind on a fixed
/// connection. Churn replaces the slot's incarnation (a new session with
/// a new token and patient id); the slot keeps its place in the schedule.
struct Slot {
  std::uint32_t kind = 0;
  std::uint32_t conn = 0;
  std::uint32_t order_pos = 0;  ///< position in the per-round tick order
  std::uint32_t inc = 0;        ///< current incarnation
};

/// One opened session. Its token is its index; its observation stream is
/// trace `trace` replayed from step `offset`, one step per tick.
struct Incarnation {
  std::uint32_t slot = 0;
  std::uint32_t trace = 0;
  std::uint32_t offset = 0;
  std::int32_t patient_index = 0;
  std::uint64_t sent = 0;  ///< next seq
  /// decisions[seq]: the packed decision received for (token, seq).
  std::vector<std::uint16_t> decisions;
  // Due-time mapping inside the current phase: seq s is the slot's
  // (base_round + s - base_seq)-th tick of phase `phase`.
  std::uint32_t phase = 0;
  std::uint64_t base_round = 0;
  std::uint64_t base_seq = 0;
  bool acked = false;
};

struct PhaseSpec {
  /// Open loop: ticks are due at this fleet-wide rate (ticks/s).
  double rate = 0.0;
  double duration_s = 0.0;
  double churn_per_s = 0.0;
  /// Closed loop instead when > 0: keep this many ticks outstanding and
  /// send the next one as soon as a decision comes back.
  std::size_t in_flight = 0;
};

/// Wait, up to `max_wait_s`, until the hypervisor stops stealing CPU time:
/// spin one thread for 0.25 s and read the VM's steal time over it; a
/// probe that lost more than 2% is a busy host, so sleep 0.5 s and probe
/// again. Returns the seconds waited.
double wait_for_quiet_host(double max_wait_s) {
  const auto t0 = Clock::now();
  for (;;) {
    const double steal0 = steal_seconds();
    const auto p0 = Clock::now();
    volatile double sink = 0.0;
    while (seconds_since(p0) < 0.25) sink = sink + 1.0;
    const double stolen = steal_seconds() - steal0;
    if (steal0 < 0.0 || stolen <= 0.02 * 0.25 || seconds_since(t0) >= max_wait_s) {
      return seconds_since(t0);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
  }
}

/// Sub-window length: ticks are binned by due time into slices this long.
constexpr double kSliceS = 0.5;

/// One slice of a phase. Its samples are reduced to percentiles (and
/// freed) once every tick due in it has had time to be answered, so the
/// generator's memory does not grow with the offered rate.
struct Slice {
  std::vector<float> latency_ms;   ///< due -> decision received
  std::vector<float> lateness_ms;  ///< due -> handed to the socket layer
  double steal_s = 0.0;  ///< hypervisor steal over the slice (all CPUs)
  double cpu_s = 0.0;    ///< CPU time of this process over the slice
  std::uint64_t delivered = 0;  ///< decisions received during the slice
  bool reduced = false;
  std::size_t samples = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
  double lateness_p99 = 0.0;

  void reduce() {
    if (reduced) return;
    reduced = true;
    samples = latency_ms.size();
    std::vector<double> values(latency_ms.begin(), latency_ms.end());
    p50 = median(values);
    p90 = percentile(values, 90.0);
    tail = supported_tail(values, tail_pct);
    lateness_p99 = percentile(
        std::vector<double>(lateness_ms.begin(), lateness_ms.end()), 99.0);
    std::vector<float>().swap(latency_ms);
    std::vector<float>().swap(lateness_ms);
  }
};

struct PhaseResult {
  double rate = 0.0;
  std::uint64_t planned = 0;
  std::uint64_t sent = 0;
  std::vector<Slice> slices;
  std::uint64_t late_answers = 0;   ///< latency above the limit
  std::uint64_t late_sends = 0;     ///< sent later than a quarter of the limit
  double max_lateness_ms = 0.0;
  std::size_t max_unsent_bytes = 0;
};

struct Conn {
  int fd = -1;
  aps::net::FrameDecoder decoder{"server"};
  std::vector<std::uint8_t> out;
  std::size_t out_pos = 0;
  [[nodiscard]] std::size_t unsent() const { return out.size() - out_pos; }
};

/// Open-loop load generator: one thread, non-blocking sockets, sessions
/// multiplexed over a few connections by token. Decisions are paired with
/// ticks by (token, seq) only, never by arrival order.
class Generator {
 public:
  Generator(const WireInputs& inputs, const std::vector<std::string>& kinds,
            std::vector<Slot> slots, std::vector<std::uint32_t> order,
            std::uint64_t seed, std::uint16_t port, double limit_ms)
      : inputs_(inputs),
        kinds_(kinds),
        slots_(std::move(slots)),
        order_(std::move(order)),
        rng_(seed ^ 0x636875726eull),
        limit_ms_(limit_ms) {
    for (std::size_t c = 0; c < kConnections; ++c) connect_one(port);
  }
  ~Generator() {
    for (auto& conn : conns_) {
      if (conn.fd >= 0) ::close(conn.fd);
    }
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Open one session per slot, pipelined on every connection, and wait
  /// for every OpenAck.
  void open_fleet() {
    for (std::uint32_t s = 0; s < slots_.size(); ++s) {
      slots_[s].inc = new_incarnation(s);
    }
    flush_all();
    const auto t0 = Clock::now();
    while (acks_ < incs_.size()) {
      if (seconds_since(t0) > 120.0) {
        throw std::runtime_error("session opens not acknowledged");
      }
      wait_io(1000000);
    }
  }

  /// Sequential open round trips of sessions that carry no ticks (their
  /// token stays unused afterwards); returns the median in ms.
  double open_rtt_ms(std::size_t count) {
    std::vector<double> rtts;
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t before = acks_;
      const auto t0 = Clock::now();
      (void)new_incarnation(static_cast<std::uint32_t>(i % slots_.size()));
      flush_all();
      while (acks_ == before) {
        if (seconds_since(t0) > 30.0) {
          throw std::runtime_error("session open not acknowledged");
        }
        wait_io(1000000);
      }
      rtts.push_back(seconds_since(t0) * 1e3);
    }
    return median(rtts);
  }

  PhaseResult run_phase(const PhaseSpec& spec) {
    PhaseResult result;
    const bool closed = spec.in_flight > 0;
    result.rate = spec.rate;
    result.planned = closed ? UINT64_MAX
                            : static_cast<std::uint64_t>(spec.rate * spec.duration_s);
    closed_loop_ = closed;
    result.slices.resize(static_cast<std::size_t>(
        std::ceil(spec.duration_s / kSliceS)) + 1);
    phase_ = &result;
    ++phase_id_;
    for (auto& inc : incs_) {
      inc.phase = phase_id_;
      inc.base_round = 0;
      inc.base_seq = inc.sent;
    }
    const std::size_t n = slots_.size();
    const double tick_ns = closed ? 0.0 : 1e9 / spec.rate;
    const double churn_ns =
        spec.churn_per_s > 0.0 ? 1e9 / spec.churn_per_s : 0.0;
    double next_churn_ns = churn_ns;
    std::uint64_t g = 0;
    start_ = Clock::now() + std::chrono::milliseconds(2);
    const double drain_limit_ns = (spec.duration_s + 30.0) * 1e9;
    // Steal and the process's CPU time are read at every slice boundary;
    // slice k's are the differences across it.
    std::size_t boundary = 0;
    double steal_mark = steal_seconds();
    double cpu_mark = process_cpu_seconds();
    // A slice is reduced once its last tick is overdue by twice the limit.
    const double grace_ns = 2.0 * limit_ms_ * 1e6;
    std::size_t reduced = 0;
    for (;;) {
      const double now_ns = since_start_ns();
      while (boundary < result.slices.size() &&
             now_ns >= static_cast<double>(boundary + 1) * kSliceS * 1e9) {
        const double steal = steal_seconds();
        const double cpu = process_cpu_seconds();
        result.slices[boundary].steal_s = std::max(0.0, steal - steal_mark);
        result.slices[boundary].cpu_s = cpu - cpu_mark;
        steal_mark = steal;
        cpu_mark = cpu;
        ++boundary;
      }
      while (reduced < boundary &&
             now_ns >= static_cast<double>(reduced + 1) * kSliceS * 1e9 + grace_ns) {
        result.slices[reduced++].reduce();
      }
      if (closed && g < result.planned && now_ns >= spec.duration_s * 1e9) {
        result.planned = g;
      }
      std::size_t burst = 0;
      while (g < result.planned && burst < 512 &&
             (closed ? outstanding_ < spec.in_flight
                     : static_cast<double>(g) * tick_ns <= now_ns)) {
        emit(g, tick_ns, now_ns);
        ++g;
        ++burst;
      }
      while (churn_ns > 0.0 && g < result.planned && next_churn_ns <= now_ns) {
        churn(g, n);
        next_churn_ns += churn_ns;
      }
      flush_all();
      const std::size_t unsent = unsent_bytes();
      result.max_unsent_bytes = std::max(result.max_unsent_bytes, unsent);
      if (g == result.planned) {
        if (outstanding_ == 0) break;
        // Still unanswered after the drain: the reference check counts
        // those ticks as failed.
        if (now_ns > drain_limit_ns) break;
        wait_io(1000000);
        continue;
      }
      // Sleep in ppoll until a reply arrives or the next tick is nearly
      // due; the last stretch before a due time polls without sleeping,
      // so a timer wake-up does not make the tick late. The socket is only
      // read when ppoll reports it readable: busy recv() calls would
      // contend with the server's sends for the socket lock.
      if (closed) {
        wait_io(1000000);
        continue;
      }
      const double wait_ns = static_cast<double>(g) * tick_ns - since_start_ns();
      wait_io(wait_ns > 60000.0 ? static_cast<long>(std::min(wait_ns - 50000.0, 1e6))
                                : 0);
    }
    phase_ = nullptr;
    const double steal = steal_seconds();
    if (boundary < result.slices.size()) {
      result.slices[boundary].steal_s = std::max(0.0, steal - steal_mark);
      result.slices[boundary].cpu_s = process_cpu_seconds() - cpu_mark;
    }
    for (auto& slice : result.slices) slice.reduce();
    return result;
  }

  [[nodiscard]] const std::vector<Incarnation>& incarnations() const {
    return incs_;
  }
  [[nodiscard]] const std::vector<std::string>& kinds() const { return kinds_; }
  [[nodiscard]] const std::vector<Slot>& slots() const { return slots_; }
  [[nodiscard]] std::uint64_t rejected() const { return rejected_; }
  [[nodiscard]] std::uint64_t bad_frames() const { return bad_frames_; }
  [[nodiscard]] std::uint64_t churned() const { return churned_; }
  [[nodiscard]] std::uint64_t close_acks() const { return close_acks_; }

  /// The observation a session sees at `seq`: its trace step, stamped with
  /// a session-local clock.
  [[nodiscard]] Observation observation(const Incarnation& inc,
                                        std::uint64_t seq) const {
    const auto& trace = inputs_.traces[inc.trace];
    Observation obs = trace[(inc.offset + seq) % trace.size()];
    obs.time_min = 5.0 * static_cast<double>(seq);
    return obs;
  }

  [[nodiscard]] static std::string patient_id(std::size_t token) {
    return "patient-" + std::to_string(token);
  }

 private:
  void connect_one(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      ::close(fd);
      throw std::runtime_error(std::string("connect: ") + std::strerror(errno));
    }
    const int one = 1;
    (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    (void)fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
    Conn& conn = conns_.emplace_back();
    conn.fd = fd;
    append(conn, aps::net::encode(aps::net::HelloMsg{
                     .protocol_version = aps::net::kNetVersion,
                     .client_name = "perfbench"}));
    flush(conn);
    const auto t0 = Clock::now();
    while (!conn_hello_done_[conns_.size() - 1]) {
      if (seconds_since(t0) > 30.0) throw std::runtime_error("no hello ack");
      wait_io(1000000);
    }
  }

  std::uint32_t new_incarnation(std::uint32_t slot) {
    const auto token = static_cast<std::uint32_t>(incs_.size());
    Incarnation& inc = incs_.emplace_back();
    inc.slot = slot;
    inc.trace = static_cast<std::uint32_t>(rng_.below(inputs_.traces.size()));
    inc.offset = static_cast<std::uint32_t>(
        rng_.below(inputs_.traces[inc.trace].size()));
    inc.patient_index = inputs_.trace_patient[inc.trace];
    inc.phase = phase_id_;
    append(conns_[slots_[slot].conn],
           aps::net::encode(aps::net::OpenSessionMsg{
               .token = token,
               .patient_id = patient_id(token),
               .monitor = kinds_[slots_[slot].kind],
               .patient_index = inc.patient_index}));
    return token;
  }

  /// Close the slot's session and open a fresh one in its place; the
  /// slot's next tick goes to the new token with seq 0.
  void churn(std::uint64_t g, std::size_t n) {
    const auto s = static_cast<std::uint32_t>(rng_.below(n));
    Slot& slot = slots_[s];
    append(conns_[slot.conn],
           aps::net::encode(aps::net::CloseSessionMsg{.token = slot.inc}));
    slot.inc = new_incarnation(s);
    Incarnation& inc = incs_[slot.inc];
    const std::uint64_t pos = slot.order_pos;
    inc.base_round = g <= pos ? 0 : (g - pos + n - 1) / n;
    inc.base_seq = 0;
    ++churned_;
  }

  void emit(std::uint64_t g, double tick_ns, double now_ns) {
    const std::size_t n = slots_.size();
    const Slot& slot = slots_[order_[g % n]];
    Incarnation& inc = incs_[slot.inc];
    const std::uint64_t seq = inc.sent++;
    inc.decisions.push_back(kUnanswered);
    append(conns_[slot.conn],
           aps::net::encode(aps::net::TickMsg{
               .token = slot.inc, .seq = seq, .obs = observation(inc, seq)}));
    ++outstanding_;
    ++phase_->sent;
    if (closed_loop_) return;
    const double due_ns = static_cast<double>(g) * tick_ns;
    const double lateness_ms = std::max(0.0, now_ns - due_ns) * 1e-6;
    Slice& slice = slice_of(due_ns);
    if (!slice.reduced) slice.lateness_ms.push_back(static_cast<float>(lateness_ms));
    phase_->max_lateness_ms = std::max(phase_->max_lateness_ms, lateness_ms);
    if (lateness_ms > 0.25 * limit_ms_) ++phase_->late_sends;
  }

  void append(Conn& conn, const aps::net::Frame& frame) {
    const std::vector<std::uint8_t> bytes = aps::net::encode_frame(frame);
    conn.out.insert(conn.out.end(), bytes.begin(), bytes.end());
  }

  void flush(Conn& conn) {
    while (conn.out_pos < conn.out.size()) {
      const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_pos,
                               conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_pos += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      throw std::runtime_error("send failed: server closed the connection");
    }
    if (conn.out_pos == conn.out.size()) {
      conn.out.clear();
      conn.out_pos = 0;
    } else if (conn.out_pos > (1u << 20)) {
      conn.out.erase(conn.out.begin(),
                     conn.out.begin() + static_cast<std::ptrdiff_t>(conn.out_pos));
      conn.out_pos = 0;
    }
  }

  void flush_all() {
    for (auto& conn : conns_) flush(conn);
  }

  [[nodiscard]] std::size_t unsent_bytes() const {
    std::size_t total = 0;
    for (const auto& conn : conns_) total += conn.unsent();
    return total;
  }

  /// ppoll every connection for up to `timeout_ns`, then read the ones
  /// that are readable.
  void wait_io(long timeout_ns) {
    pollfd fds[kConnections];
    const std::size_t count = conns_.size();
    for (std::size_t c = 0; c < count; ++c) {
      fds[c].fd = conns_[c].fd;
      fds[c].events = static_cast<short>(
          POLLIN | (conns_[c].unsent() > 0 ? POLLOUT : 0));
      fds[c].revents = 0;
    }
    const timespec ts{.tv_sec = timeout_ns / 1000000000L,
                      .tv_nsec = timeout_ns % 1000000000L};
    if (::ppoll(fds, count, &ts, nullptr) <= 0) return;
    for (std::size_t c = 0; c < count; ++c) {
      if ((fds[c].revents & (POLLIN | POLLERR | POLLHUP)) != 0) receive(c);
    }
  }

  void receive(std::size_t c) {
    std::uint8_t buf[kReadChunk];
    Conn& conn = conns_[c];
    for (;;) {
      const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
      if (n > 0) {
        conn.decoder.feed({buf, static_cast<std::size_t>(n)});
        const double now_ns = since_start_ns();
        while (std::optional<aps::net::Frame> frame = conn.decoder.next()) {
          on_frame(c, *frame, now_ns);
        }
        if (static_cast<std::size_t>(n) < sizeof buf) return;
        continue;
      }
      if (n == 0) throw std::runtime_error("server closed a connection");
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
    }
  }

  void on_frame(std::size_t conn, const aps::net::Frame& frame, double now_ns) {
    using aps::net::FrameKind;
    switch (frame.kind) {
      case FrameKind::kDecision: {
        const auto msg = aps::net::decode_decision(frame);
        if (msg.token >= incs_.size() || msg.seq >= incs_[msg.token].sent) {
          ++bad_frames_;
          return;
        }
        Incarnation& inc = incs_[msg.token];
        std::uint16_t code = 0;
        if (inc.decisions[msg.seq] != kUnanswered ||
            !pack_decision(msg.decision, code)) {
          ++bad_frames_;
          return;
        }
        inc.decisions[msg.seq] = code;
        --outstanding_;
        if (phase_ != nullptr) ++slice_of(now_ns).delivered;
        if (phase_ != nullptr && !closed_loop_ && inc.phase == phase_id_ &&
            msg.seq >= inc.base_seq) {
          const std::uint64_t round = inc.base_round + (msg.seq - inc.base_seq);
          const std::uint64_t g =
              round * slots_.size() + slots_[inc.slot].order_pos;
          const double due_ns = static_cast<double>(g) * 1e9 / phase_->rate;
          const double latency_ms = (now_ns - due_ns) * 1e-6;
          Slice& slice = slice_of(due_ns);
          if (!slice.reduced) {
            slice.latency_ms.push_back(static_cast<float>(latency_ms));
          }
          if (latency_ms > limit_ms_) ++phase_->late_answers;
        }
        return;
      }
      case FrameKind::kHelloAck:
        conn_hello_done_[conn] = true;
        return;
      case FrameKind::kOpenAck: {
        const auto ack = aps::net::decode_open_ack(frame);
        if (!ack.ok || ack.token >= incs_.size() || incs_[ack.token].acked) {
          ++bad_frames_;
          return;
        }
        incs_[ack.token].acked = true;
        ++acks_;
        return;
      }
      case FrameKind::kCloseAck:
        ++close_acks_;
        return;
      case FrameKind::kReject: {
        // Admission is off, so any reject is a failed tick (or open).
        const auto reject = aps::net::decode_reject(frame);
        ++rejected_;
        if (reject.token < incs_.size() &&
            reject.seq < incs_[reject.token].sent &&
            incs_[reject.token].decisions[reject.seq] == kUnanswered) {
          incs_[reject.token].decisions[reject.seq] = kRejected;
          --outstanding_;
        }
        return;
      }
      default:
        ++bad_frames_;
        return;
    }
  }

  [[nodiscard]] Slice& slice_of(double due_ns) {
    const auto k = static_cast<std::size_t>(due_ns * 1e-9 / kSliceS);
    return phase_->slices[std::min(k, phase_->slices.size() - 1)];
  }

  [[nodiscard]] double since_start_ns() const {
    return std::chrono::duration<double, std::nano>(Clock::now() - start_)
        .count();
  }

  const WireInputs& inputs_;
  std::vector<std::string> kinds_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> order_;
  InputRng rng_;
  double limit_ms_ = 0.0;
  std::vector<Conn> conns_;
  bool conn_hello_done_[kConnections] = {};
  std::vector<Incarnation> incs_;
  std::size_t acks_ = 0;
  std::uint64_t outstanding_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t bad_frames_ = 0;
  std::uint64_t churned_ = 0;
  std::uint64_t close_acks_ = 0;
  std::uint32_t phase_id_ = 0;
  PhaseResult* phase_ = nullptr;
  bool closed_loop_ = false;
  Clock::time_point start_ = Clock::now();
};

[[nodiscard]] long online_cpus() { return std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)); }

/// The serving plane under test: bundle loaded from disk into a 2-replica
/// group behind the TCP ingest server. Members are declared in
/// construction order so destruction stops the server before the group.
struct Plane {
  std::unique_ptr<aps::serve::EngineGroup> group;
  std::unique_ptr<aps::net::IngestServer> server;
  double load_ms = 0.0;

  /// The server holds a reference to the group: stop it first.
  void reset() {
    server.reset();
    group.reset();
  }
};

Plane make_plane(const std::string& bundle_path, const std::string& listfile) {
  Plane plane;
  const auto t0 = Clock::now();
  const aps::core::ArtifactBundle bundle = aps::io::load_bundle(bundle_path);
  plane.load_ms = seconds_since(t0) * 1e3;
  aps::serve::GroupConfig group_config;
  group_config.replicas = 2;
  group_config.engine.threads = 1;
  plane.group = std::make_unique<aps::serve::EngineGroup>(group_config);
  plane.group->register_bundle(bundle);
  aps::net::ServerConfig server_config;
  server_config.listfile = listfile;
  plane.server =
      std::make_unique<aps::net::IngestServer>(*plane.group, server_config);
  plane.server->start();
  return plane;
}

/// Counter/histogram readings of the serving registry at one instant.
struct RegistryReading {
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t ticks = 0;
  std::uint64_t batches = 0;
  std::uint64_t pauses = 0;
  std::uint64_t group_backpressure = 0;
  std::uint64_t degraded = 0;
  std::uint64_t shed = 0;
  aps::obs::HistogramSnapshot batch_sizes;
};

RegistryReading read_registry(const aps::obs::Registry& registry) {
  RegistryReading r;
  for (const auto& sample : registry.scrape().samples) {
    if (sample.name == "net_bytes_in_total") r.bytes_in += sample.counter;
    if (sample.name == "net_bytes_out_total") r.bytes_out += sample.counter;
    if (sample.name == "net_ticks_total") r.ticks += sample.counter;
    if (sample.name == "net_tick_batches_total") r.batches += sample.counter;
    if (sample.name == "net_backpressure_pauses_total") r.pauses += sample.counter;
    if (sample.name == "serve_group_backpressure_total") {
      r.group_backpressure += sample.counter;
    }
    if (sample.name == "serve_degraded_ticks_total") r.degraded += sample.counter;
    if (sample.name == "serve_shed_total") r.shed += sample.counter;
    if (sample.name == "net_tick_batch_size") r.batch_sizes = sample.histogram;
  }
  return r;
}

/// Histogram of what was observed between two snapshots of one series.
aps::obs::HistogramSnapshot histogram_delta(const aps::obs::HistogramSnapshot& a,
                                            const aps::obs::HistogramSnapshot& b) {
  aps::obs::HistogramSnapshot d = b;
  if (a.counts.size() == b.counts.size()) {
    for (std::size_t i = 0; i < d.counts.size(); ++i) d.counts[i] -= a.counts[i];
    d.count -= a.count;
    d.sum -= a.sum;
  }
  return d;
}

/// What the server did during one timed phase: registry readings at its
/// ends and the CPU time of every thread but the generator's.
struct ServerLoad {
  RegistryReading before;
  RegistryReading after;
  double cpu_s = 0.0;

  [[nodiscard]] double ticks() const {
    return static_cast<double>(after.ticks - before.ticks);
  }
  [[nodiscard]] double cpu_us_per_tick() const {
    return ticks() > 0.0 ? cpu_s * 1e6 / ticks() : 0.0;
  }
  /// Ticks per group feed, from the net_ticks_total and
  /// net_tick_batches_total counters.
  [[nodiscard]] double mean_batch() const {
    const auto batches = static_cast<double>(after.batches - before.batches);
    return batches > 0.0 ? ticks() / batches : 0.0;
  }
};

struct ReferenceCheck {
  std::uint64_t compared = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t unanswered = 0;
  std::uint64_t rejected = 0;
  std::uint64_t alarms = 0;
};

/// Feed every session's stream, in seq order, to a fresh reference group
/// loaded from the same bundle file, and compare each decision with the
/// one received over the wire for the same (token, seq).
ReferenceCheck check_against_reference(const Generator& gen,
                                       const std::string& bundle_path) {
  // The timed phases are over, so the reference may use every CPU.
  aps::serve::GroupConfig config;
  config.replicas = static_cast<std::size_t>(online_cpus());
  config.engine.threads = 1;
  aps::serve::EngineGroup reference(config);
  reference.register_bundle(aps::io::load_bundle(bundle_path));
  const auto& incs = gen.incarnations();
  std::vector<aps::serve::SessionId> ids(incs.size(), 0);
  std::uint64_t rounds = 0;
  for (std::size_t t = 0; t < incs.size(); ++t) {
    if (incs[t].sent == 0) continue;
    ids[t] = reference.open_session(
        Generator::patient_id(t),
        gen.kinds()[gen.slots()[incs[t].slot].kind], incs[t].patient_index);
    rounds = std::max(rounds, incs[t].sent);
  }
  ReferenceCheck check;
  std::vector<aps::serve::SessionInput> batch;
  std::vector<std::uint32_t> tokens;
  std::vector<Decision> decisions;
  for (std::uint64_t j = 0; j < rounds; ++j) {
    batch.clear();
    tokens.clear();
    for (std::size_t t = 0; t < incs.size(); ++t) {
      if (incs[t].sent <= j) continue;
      batch.push_back({ids[t], gen.observation(incs[t], j)});
      tokens.push_back(static_cast<std::uint32_t>(t));
    }
    decisions.assign(batch.size(), {});
    reference.feed(batch, decisions);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::uint16_t got = incs[tokens[i]].decisions[j];
      std::uint16_t want = 0;
      ++check.compared;
      if (decisions[i].alarm) ++check.alarms;
      if (got == kUnanswered) {
        ++check.unanswered;
      } else if (got == kRejected) {
        ++check.rejected;
      } else if (!pack_decision(decisions[i], want) || got != want) {
        ++check.mismatches;
      }
    }
  }
  return check;
}

/// A slice is clean when the hypervisor stole at most this much CPU time
/// (all CPUs together) during it: under 1% of a 4-CPU VM's half second.
constexpr double kCleanStealS = 0.02;
/// Clean slices a latency figure needs before it ignores the others.
constexpr std::size_t kMinCleanSlices = 6;

/// Latency of a phase from its slices. The benchmark runs on shared VMs
/// whose hypervisor steals CPU time in bursts lasting from seconds to
/// minutes; in a slice with steal the same server answers up to 20-60x
/// slower (measured: p50 0.045 ms in slices with at most one clock tick
/// stolen, 0.3-1.2 ms where 15-30 were). The gated p50 is therefore the
/// lower quartile over the clean slices of each slice's p50 — or, with
/// fewer than kMinCleanSlices clean slices, over the half of the slices
/// with the least steal; p90 and the tail are the medians over the same
/// slices. All slices' medians are reported beside them.
struct WindowStats {
  double p50 = 0.0;
  double p90 = 0.0;
  double tail = 0.0;
  double all_p50 = 0.0;     ///< median over every slice
  double all_tail = 0.0;
  double tail_pct = 0.0;    ///< percentile the slice tails use
  double lateness_p99 = 0.0;
  double steal_s = 0.0;     ///< steal over the phase, all CPUs
  std::size_t slices = 0;
  std::size_t used = 0;     ///< slices the gated figures come from
  std::size_t clean = 0;    ///< slices with at most kCleanStealS stolen
  std::size_t samples = 0;
  std::size_t min_slice_samples = 0;
};

WindowStats window_stats(const PhaseResult& phase) {
  WindowStats stats;
  std::vector<Slice> slices;
  for (const Slice& slice : phase.slices) {
    if (slice.samples > 0) slices.push_back(slice);
  }
  stats.slices = slices.size();
  if (slices.empty()) return stats;
  std::vector<std::size_t> order(slices.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return slices[a].steal_s < slices[b].steal_s;
  });
  stats.clean = static_cast<std::size_t>(std::count_if(
      slices.begin(), slices.end(),
      [](const Slice& s) { return s.steal_s <= kCleanStealS; }));
  stats.used = stats.clean >= kMinCleanSlices
                   ? stats.clean
                   : std::max<std::size_t>((slices.size() + 1) / 2, 1);
  std::vector<double> p50s, p90s, tails, all_p50s, all_tails, lateness;
  stats.min_slice_samples = slices.front().samples;
  stats.tail_pct = 99.0;
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const Slice& slice = slices[order[rank]];
    all_p50s.push_back(slice.p50);
    all_tails.push_back(slice.tail);
    lateness.push_back(slice.lateness_p99);
    stats.samples += slice.samples;
    stats.steal_s += slice.steal_s;
    stats.min_slice_samples = std::min(stats.min_slice_samples, slice.samples);
    stats.tail_pct = std::min(stats.tail_pct, slice.tail_pct);
    if (rank < stats.used) {
      p50s.push_back(slice.p50);
      p90s.push_back(slice.p90);
      tails.push_back(slice.tail);
    }
  }
  // Lower quartile: contention the steal counter does not show (shared
  // caches, memory bandwidth) still slows whole runs of slices.
  stats.p50 = percentile(p50s, 25.0);
  stats.p90 = median(p90s);
  stats.tail = median(tails);
  stats.all_p50 = median(all_p50s);
  stats.all_tail = median(all_tails);
  stats.lateness_p99 = median(lateness);
  return stats;
}

/// Saturation throughput of a closed-loop phase of `duration_s`:
/// decisions delivered per second in the slices between the first (the
/// ramp) and the end of sending (the drain), taken like the latency
/// figures — the median over the clean slices, or over the least-stolen
/// half when fewer than kMinCleanSlices are clean. Each slice's rate is
/// per second of steal-corrected time, as the design throughput is: the
/// stolen share of the time the process's CPUs wanted to run is
/// stolen / (cpu + stolen). In a steal burst no slice is clean, and the
/// least-stolen ones still read 15-35% low on the ML fleet.
double saturation_rate(const PhaseResult& phase, double duration_s,
                       std::size_t& used, double& steal_s) {
  const auto full = std::min(phase.slices.size(),
                             static_cast<std::size_t>(duration_s / kSliceS));
  std::vector<const Slice*> slices;
  for (std::size_t i = 1; i < full; ++i) slices.push_back(&phase.slices[i]);
  if (slices.empty() && !phase.slices.empty()) {
    slices.push_back(&phase.slices.front());
  }
  steal_s = 0.0;
  for (const Slice* slice : slices) steal_s += slice->steal_s;
  std::stable_sort(slices.begin(), slices.end(), [](const Slice* a, const Slice* b) {
    return a->steal_s < b->steal_s;
  });
  const auto clean = static_cast<std::size_t>(std::count_if(
      slices.begin(), slices.end(),
      [](const Slice* s) { return s->steal_s <= kCleanStealS; }));
  used = clean >= kMinCleanSlices ? clean : (slices.size() + 1) / 2;
  std::vector<double> rates;
  for (std::size_t i = 0; i < used && i < slices.size(); ++i) {
    const Slice& slice = *slices[i];
    const double scale =
        slice.cpu_s > 0.0 ? (slice.cpu_s + slice.steal_s) / slice.cpu_s : 1.0;
    rates.push_back(static_cast<double>(slice.delivered) * scale / kSliceS);
  }
  return median(rates);
}

}  // namespace

RunResult run_wire(const WireConfig& config) {
  RunResult result;
  std::filesystem::create_directories(config.work_dir);
  const std::string bundle_path = config.work_dir + "/bundle.aps";
  const std::string listfile_path =
      config.listfile ? config.work_dir + "/wire.listfile" : std::string();

  // ---- Inputs (not timed as set-up: the program receives only these) ---
  WireInputs inputs;
  double save_ms = 0.0;
  {
    aps::ThreadPool pool;
    const auto t0 = Clock::now();
    const bool ml_fleet = std::any_of(
        config.mix.begin(), config.mix.end(), [](const std::string& kind) {
          return kind == "dt" || kind == "mlp" || kind == "lstm";
        });
    inputs = make_wire_inputs(config.seed, config.traces, ml_fleet, pool);
    result.note(format("inputs: %zu traces (%zu hazardous), bundle built in %.2f s",
                       inputs.traces.size(), inputs.hazardous_traces,
                       seconds_since(t0)));
    std::vector<double> saves;
    for (int i = 0; i < 3; ++i) {
      const auto s0 = Clock::now();
      aps::io::save_bundle(inputs.bundle, bundle_path);
      saves.push_back(seconds_since(s0) * 1e3);
    }
    save_ms = median(saves);
    inputs.bundle = {};  // the server loads its own copy from the file
  }
  // rss_mb is the peak of serving alone: building the inputs (campaign,
  // training on a thread pool) peaks higher than a small fleet does.
  reset_peak_rss();

  // Fleet: equal shares of each kind, connection by slot, seeded tick order.
  const std::size_t n = config.sessions;
  std::vector<Slot> slots(n);
  std::vector<std::uint32_t> order(n);
  for (std::size_t s = 0; s < n; ++s) {
    slots[s].kind = static_cast<std::uint32_t>(s % config.mix.size());
    slots[s].conn = static_cast<std::uint32_t>(s % kConnections);
    order[s] = static_cast<std::uint32_t>(s);
  }
  InputRng order_rng(config.seed ^ 0x6f72646572ull);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[order_rng.below(i)]);
  }
  for (std::size_t pos = 0; pos < n; ++pos) {
    slots[order[pos]].order_pos = static_cast<std::uint32_t>(pos);
  }

  // ---- Set-up: bundle load until every session is open over the wire ----
  std::vector<double> setups;
  std::vector<double> loads;
  Plane plane;
  std::unique_ptr<Generator> gen;
  // The first set-up builds the plane the timed phases measure; the other
  // set-ups run after them, so their threads' allocations do not count in
  // the serving RSS.
  const auto set_up = [&](Plane& p, std::unique_ptr<Generator>& g) {
    const auto t0 = Clock::now();
    p = make_plane(bundle_path, listfile_path);
    g = std::make_unique<Generator>(inputs, config.mix, slots, order,
                                    config.seed, p.server->port(),
                                    config.limit_ms);
    g->open_fleet();
    setups.push_back(seconds_since(t0));
    loads.push_back(p.load_ms);
  };
  set_up(plane, gen);

  // ---- Timed phases ------------------------------------------------------
  aps::obs::Registry& registry = plane.group->registry();
  const double budget = config.seconds;
  const bool saturate = config.in_flight > 0;
  const double window_s = saturate ? 0.5 * budget : budget;
  // Runs one phase and records what the server did meanwhile.
  const auto timed_phase = [&](const PhaseSpec& spec, ServerLoad& load) {
    load.before = read_registry(registry);
    const double cpu0 = process_cpu_seconds();
    const double gen_cpu0 = thread_cpu_seconds();
    PhaseResult phase = gen->run_phase(spec);
    const double gen_cpu = thread_cpu_seconds() - gen_cpu0;
    load.cpu_s = (process_cpu_seconds() - cpu0) - gen_cpu;
    load.after = read_registry(registry);
    return std::pair{std::move(phase), gen_cpu};
  };

  // Warm-up: fills LSTM windows and caches before anything is timed.
  (void)gen->run_phase({.rate = config.rate,
                        .duration_s = std::min(1.0, 0.1 * budget),
                        .churn_per_s = config.churn_per_s});

  // The latency window starts once the host is quiet (or after 6 s).
  const double waited_s = wait_for_quiet_host(6.0);
  ServerLoad window_load;
  const auto [window, gen_cpu] = timed_phase(
      {.rate = config.rate, .duration_s = window_s, .churn_per_s = config.churn_per_s},
      window_load);
  const WindowStats stats = window_stats(window);
  result.note(format("latency window: waited %.1f s for a quiet host; %zu "
                     "of %zu slices clean (%.2f s stolen); server %.2f "
                     "cores, generator %.2f cores; %.2f ticks per group feed",
                     waited_s, stats.clean, stats.slices, stats.steal_s,
                     window_load.cpu_s / window_s, gen_cpu / window_s,
                     window_load.mean_batch()));
  const double p50 = stats.p50;
  const double tail = stats.tail;
  const double late_threshold = 0.25 * config.limit_ms;
  result.note(format(
      "latency window: %.0f ticks/s offered for %.1f s over loopback TCP "
      "(127.0.0.1, not a real link), %zu answers in %zu slices of %.1f s "
      "(>= %zu each); from %zu %s slices: p50 %.3f ms, p90 %.3f ms, p%.0f "
      "%.3f ms; over all slices: p50 %.3f ms, p%.0f %.3f ms (limit %.1f "
      "ms, %.2f s stolen); %ju answered over the limit",
      config.rate, window_s, stats.samples, stats.slices, kSliceS,
      stats.min_slice_samples, stats.used,
      stats.clean >= kMinCleanSlices ? "clean" : "least-stolen", p50,
      stats.p90, stats.tail_pct, tail,
      stats.all_p50, stats.tail_pct, stats.all_tail, config.limit_ms,
      stats.steal_s, static_cast<std::uintmax_t>(window.late_answers)));
  result.note(format(
      "generator: lateness p99 %.3f ms (median over slices), max %.3f ms, "
      "%ju of %ju ticks sent more than %.2f ms late, peak send backlog %zu "
      "bytes",
      stats.lateness_p99, window.max_lateness_ms,
      static_cast<std::uintmax_t>(window.late_sends),
      static_cast<std::uintmax_t>(window.sent), late_threshold,
      window.max_unsent_bytes));
  if (window.late_sends * 100 > window.sent) {
    result.fail("generator fell behind the offered rate (more than 1% of "
                "ticks sent late); latency would be the generator's, not the "
                "server's");
  }

  // Capacity: saturate the server with a fixed number of ticks in flight
  // and count what it delivers. By Little's law the latency at saturation
  // is in_flight / capacity, which is printed beside the limit.
  double capacity = 0.0;
  ServerLoad sat_load;
  if (saturate) {
    const double sat_waited_s = wait_for_quiet_host(6.0);
    const auto [sat, sat_gen_cpu] = timed_phase({.rate = config.rate,
                                                 .duration_s = 0.5 * budget,
                                                 .churn_per_s = config.churn_per_s,
                                                 .in_flight = config.in_flight},
                                                sat_load);
    std::size_t used = 0;
    double stolen = 0.0;
    capacity = saturation_rate(sat, 0.5 * budget, used, stolen);
    const double queue_ms =
        capacity > 0.0 ? static_cast<double>(config.in_flight) / capacity * 1e3
                       : 0.0;
    result.note(format(
        "capacity: %.0f ticks/s delivered with %zu ticks in flight (waited "
        "%.1f s for a quiet host; median of %zu least-stolen 0.5 s slices, "
        "steal-corrected, %.2f s stolen), so about %.1f ms "
        "per tick at saturation (limit %.1f ms); server %.2f cores, "
        "generator %.2f cores; %.1f ticks per group feed",
        capacity, config.in_flight, sat_waited_s, used, stolen, queue_ms,
        config.limit_ms,
        sat_load.cpu_s / (0.5 * budget), sat_gen_cpu / (0.5 * budget),
        sat_load.mean_batch()));
    if (queue_ms > config.limit_ms) {
      // A slow host, not a wrong output: report it beside the figure.
      result.note("note: the saturation latency exceeds the limit on this "
                  "host, so this capacity is not within the limit");
    }
  }

  // ---- Stop the plane, then check every decision ------------------------
  const std::uint64_t rejected = gen->rejected();
  const std::uint64_t bad_frames = gen->bad_frames();
  result.note(format("churn: %ju sessions closed and reopened, %ju close acks",
                     static_cast<std::uintmax_t>(gen->churned()),
                     static_cast<std::uintmax_t>(gen->close_acks())));
  const double open_rtt_ms = config.trace ? gen->open_rtt_ms(64) : 0.0;
  // Peak RSS of serving (set-up and timed phases, with the inputs the
  // generator holds); the remaining set-ups and the correctness check
  // below are the harness's own work.
  const double rss_mb = peak_rss_mb();
  plane.server->stop();
  for (int rep = 1; rep < config.setup_reps; ++rep) {
    Plane extra;
    std::unique_ptr<Generator> extra_gen;
    set_up(extra, extra_gen);
    extra_gen.reset();
    extra.reset();
  }
  result.note(format("set-up: %zu reps, median %.3f s (bundle load %.2f ms)",
                     setups.size(), median(setups), median(loads)));

  // ---- Per-layer measurements (traced run only) ------------------------
  if (config.trace) {
    const RegistryReading& before = window_load.before;
    const RegistryReading& after = window_load.after;
    const RegistryReading& last = saturate ? sat_load.after : after;
    const double ticks = std::max(window_load.ticks(), 1.0);
    // The batch histogram's first bucket spans 0-16 ticks, too coarse for
    // the window's feeds of a tick or two; its percentiles come from the
    // saturation phase, the window's batch size from the counters.
    const ServerLoad& batch_load = saturate ? sat_load : window_load;
    const auto batches =
        histogram_delta(batch_load.before.batch_sizes, batch_load.after.batch_sizes);
    WireLayerContext layers{
        .inputs = inputs,
        .bundle_path = bundle_path,
        .work_dir = config.work_dir,
        .mix = config.mix,
        .sessions = config.sessions,
        .listfile = config.listfile,
        .rate = config.rate,
        .churn_per_s = config.churn_per_s,
        .wire_p50_ms = p50,
        .server_cpu_us_per_tick = window_load.cpu_us_per_tick(),
        .batch_mean = window_load.mean_batch(),
        .sat_server_cpu_us_per_tick = sat_load.cpu_us_per_tick(),
        .sat_batch_mean = sat_load.mean_batch(),
        .batch_p50 = batches.percentile(50.0),
        .batch_p99 = batches.percentile(99.0),
        .bundle_load_ms = median(loads),
        .bundle_save_ms = save_ms,
        .open_rtt_ms = open_rtt_ms,
        .replica_imbalance = 0.0,
        .net_bytes_per_tick =
            static_cast<double>((after.bytes_in - before.bytes_in) +
                                (after.bytes_out - before.bytes_out)) /
            ticks,
        .backpressure_per_kt =
            static_cast<double>(after.pauses - before.pauses) * 1000.0 / ticks,
        .group_backpressure = after.group_backpressure - before.group_backpressure,
        .degraded = last.degraded,
        .shed = last.shed,
    };
    std::vector<std::size_t> per_replica(plane.group->replicas(), 0);
    for (const auto& slot : gen->slots()) {
      ++per_replica[plane.group->replica_of(Generator::patient_id(slot.inc))];
    }
    const double mean_sessions =
        static_cast<double>(gen->slots().size()) /
        static_cast<double>(per_replica.size());
    layers.replica_imbalance =
        static_cast<double>(*std::max_element(per_replica.begin(),
                                              per_replica.end())) /
        mean_sessions;
    result.note(format("traced window: %ju ticks in %ju batches, server CPU "
                       "%.2f us/tick; saturation: %.0f ticks, server CPU %.2f "
                       "us/tick", static_cast<std::uintmax_t>(after.ticks - before.ticks),
                       static_cast<std::uintmax_t>(after.batches - before.batches),
                       layers.server_cpu_us_per_tick, sat_load.ticks(),
                       layers.sat_server_cpu_us_per_tick));
    measure_wire_layers(layers, result);
  }

  const auto check_t0 = Clock::now();
  const ReferenceCheck check = check_against_reference(*gen, bundle_path);
  const double check_s = seconds_since(check_t0);
  gen.reset();
  plane.reset();
  if (!listfile_path.empty()) std::filesystem::remove(listfile_path);

  const std::uint64_t late = window.late_answers;
  result.attempted = check.compared;
  result.failed = check.mismatches + check.unanswered + check.rejected + late;
  result.note(format(
      "correctness: %ju decisions compared with a reference EngineGroup by "
      "(token, seq): %ju differ, %ju unanswered, %ju rejected, %ju later "
      "than the limit in the latency window, %ju malformed replies; alarm "
      "rate %.2f%%; checked in %.1f s",
      static_cast<std::uintmax_t>(check.compared),
      static_cast<std::uintmax_t>(check.mismatches),
      static_cast<std::uintmax_t>(check.unanswered),
      static_cast<std::uintmax_t>(rejected), static_cast<std::uintmax_t>(late),
      static_cast<std::uintmax_t>(bad_frames),
      check.compared > 0 ? 100.0 * static_cast<double>(check.alarms) /
                               static_cast<double>(check.compared)
                         : 0.0,
      check_s));
  if (bad_frames > 0) result.fail("server sent malformed or duplicate replies");
  if (result.failed > 0) result.fail("some ticks failed");

  if (!config.trace) {
    result.metric("throughput_per_s", capacity, "1/s");
    result.metric("setup_s", median(setups), "s");
    result.metric("rss_mb", rss_mb, "MB");
  }
  return result;
}

}  // namespace perfbench
