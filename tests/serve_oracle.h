// Differential serving oracle: a seeded generator of serving operation
// sequences, a scalar reference model, a runner that diffs a serving
// target against the reference op by op, and a shrinker that cuts a
// failing sequence down to a minimal reproducer.
//
// The reference is the simplest server that can be right: one
// monitor::Monitor per session, built from the same bundle factories the
// engine registers, fed one input at a time in batch order. A degraded
// tick is answered by the session's scalar twin (the engine's default
// lstm -> dt map) while the primary observes and discards. Targets are a
// MonitorEngine (f64 or f32), EngineGroups of any replica count, and a
// group behind the TCP ingest door whose recorded listfile is replayed at
// the end. Ops a target's plane does not carry (reload over the wire, say)
// are skipped for that target.
//
// Test-only: nothing here is linked into the aps library.
// serve_oracle_test parameterizes the runner over the targets, and
// bench_serve_throughput times Reference as its scalar baseline.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/monitor_factory.h"
#include "net/client.h"
#include "net/listfile.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serve/group.h"
#include "synthetic_util.h"

namespace aps::oracle {

using serve::SessionId;
using serve::SessionInput;
using serve::SessionStats;

template <class... Args>
std::string str(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

class Reference {
 public:
  /// Later opens build from this bundle; open sessions keep their monitors.
  void register_bundle(const core::ArtifactBundle& bundle) {
    factories_.clear();
    for (const auto& name : core::bundle_monitor_names(bundle)) {
      factories_[name] = core::factory_from_bundle(bundle, name);
    }
  }
  SessionId open_session(const std::string& monitor_name, int patient_index) {
    Session session{factories_.at(monitor_name)(patient_index), nullptr, {}};
    const std::string twin(serve::kDegradeTo);
    if (monitor_name == serve::kDegradeFrom && factories_.count(twin) != 0) {
      session.twin = factories_.at(twin)(patient_index);
    }
    sessions_.push_back(std::move(session));
    return static_cast<SessionId>(sessions_.size() - 1);
  }
  void close_session(SessionId id) { sessions_.at(id) = Session{}; }
  void reset_session(SessionId id) {
    sessions_.at(id).primary->reset();
    if (sessions_[id].twin != nullptr) sessions_[id].twin->reset();
  }
  [[nodiscard]] SessionStats stats(SessionId id) const {
    return sessions_.at(id).stats;
  }
  /// decisions[i] answers inputs[i]; inputs apply one at a time in order.
  /// Returns how many a degrade twin answered.
  std::size_t feed(std::span<const SessionInput> inputs,
                   std::span<monitor::Decision> decisions,
                   bool degraded = false) {
    std::size_t twin_answered = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      Session& s = sessions_.at(inputs[i].session);
      decisions[i] = s.primary->observe(inputs[i].obs);
      if (degraded && s.twin != nullptr) {
        decisions[i] = s.twin->observe(inputs[i].obs);
        ++twin_answered;
      }
      ++s.stats.cycles;
      if (decisions[i].alarm) ++s.stats.alarms;
    }
    return twin_answered;
  }

 private:
  struct Session {
    std::unique_ptr<monitor::Monitor> primary;
    std::unique_ptr<monitor::Monitor> twin;
    SessionStats stats;
  };
  std::map<std::string, sim::MonitorFactory> factories_;
  std::vector<Session> sessions_;
};

// ---- Operation sequences ---------------------------------------------------

enum class OpKind : std::uint8_t {
  kOpen, kClose, kFeed, kReset, kReload, kRestore, kDegrade, kShed
};

struct Input {
  std::uint32_t slot = 0;
  monitor::Observation obs;
  bool hostile = false;  ///< a non-finite, huge or subnormal field
};

/// Slots name sessions; each open takes a fresh slot, never reused.
struct Op {
  OpKind kind = OpKind::kFeed;
  std::uint32_t slot = 0;     ///< open / close / reset
  std::string monitor;        ///< open
  int patient_index = 0;      ///< open
  std::vector<Input> inputs;  ///< feed
};
using Ops = std::vector<Op>;

/// Every third slot belongs to the "bulk" tenant, whose quota is empty:
/// its ticks are shed while a group sheds. The rest are "care" (unlimited).
inline bool bulk(std::uint32_t slot) { return slot % 3 == 0; }
inline std::string patient(std::uint32_t slot) {
  return std::string(bulk(slot) ? "bulk/p" : "care/p")
      .append(std::to_string(slot));
}

inline bool finite(const monitor::Observation& o) {
  for (const double v : {o.time_min, o.bg, o.bg_rate, o.iob, o.iob_rate,
                         o.commanded_rate, o.previous_rate, o.basal_rate,
                         o.isf}) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

inline Ops generate(std::uint64_t seed, std::size_t length = 200) {
  static const char* const kKinds[] = {"guideline", "cawot", "cawt",
                                       "dt",        "mlp",   "lstm"};
  const double kHostile[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             1e300, -1e300, 5e-324, -0.0};
  Rng rng(seed);
  Ops ops;
  std::vector<std::uint32_t> live;
  std::uint32_t next_slot = 0;
  double clock = 0.0;
  const auto draw = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(n) - 1));
  };
  // Each sequence opens with a burst of one kind: a shard of 8-32 lanes.
  const char* const burst_kind = kKinds[draw(std::size(kKinds))];
  int burst = rng.uniform_int(8, 32);
  while (ops.size() < length) {
    const double roll = rng.uniform(0.0, 1.0);
    Op op;
    if (burst > 0 || live.empty() || (roll < 0.14 && live.size() < 20)) {
      op.kind = OpKind::kOpen;
      op.slot = next_slot++;
      op.monitor = burst-- > 0 ? burst_kind : kKinds[draw(std::size(kKinds))];
      op.patient_index = rng.uniform_int(0, 3);
      live.push_back(op.slot);
    } else if (roll < 0.20) {
      op.kind = OpKind::kClose;
      op.slot = live[draw(live.size())];
      std::erase(live, op.slot);
    } else if (roll < 0.22) {
      op.kind = OpKind::kReset;
      op.slot = live[draw(live.size())];
    } else if (roll < 0.32) {
      constexpr OpKind kRare[] = {OpKind::kReload, OpKind::kRestore,
                                  OpKind::kDegrade, OpKind::kDegrade,
                                  OpKind::kShed};
      op.kind = kRare[draw(std::size(kRare))];
    } else {
      // Usually every live session once, in shuffled order; sometimes a
      // subset; sometimes extra inputs for a session in the same batch.
      std::vector<std::uint32_t> slots = live;
      std::shuffle(slots.begin(), slots.end(), rng.engine());
      if (rng.bernoulli(0.3)) slots.resize(1 + draw(slots.size()));
      for (int extra = rng.uniform_int(0, 3); extra > 0; --extra) {
        slots.insert(slots.begin() + static_cast<std::ptrdiff_t>(
                                         draw(slots.size() + 1)),
                     live[draw(live.size())]);
      }
      clock += 5.0;
      for (const std::uint32_t slot : slots) {
        Input in{slot, testutil::synth_observation(rng, clock)};
        if (rng.bernoulli(0.03)) {
          double* fields[] = {&in.obs.bg,  &in.obs.bg_rate, &in.obs.iob,
                              &in.obs.isf, &in.obs.iob_rate,
                              &in.obs.commanded_rate};
          *fields[draw(std::size(fields))] = kHostile[draw(std::size(kHostile))];
          in.hostile = true;
        }
        op.inputs.push_back(in);
      }
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

/// Generation g's bundle: the tiny test bundle, and on odd generations the
/// same models with shifted per-patient rule thresholds, so a reload
/// changes what new rule sessions decide.
inline const core::ArtifactBundle& generation_bundle(int g) {
  static const core::ArtifactBundle shifted = [] {
    core::ArtifactBundle b = testutil::tiny_bundle();
    for (auto& thresholds : b.artifacts.patient_thresholds) {
      for (auto& [param, value] : thresholds) value += 3.0;
    }
    for (auto& guideline : b.artifacts.guideline_configs) {
      guideline.lambda10 += 15.0;
      guideline.lambda90 -= 20.0;
    }
    return b;
  }();
  return g % 2 == 0 ? testutil::tiny_bundle() : shifted;
}

// ---- Targets ---------------------------------------------------------------

/// Totals since the target was (re)built; a restore builds a fresh one.
struct Counters {
  std::uint64_t cycles = 0;
  std::uint64_t alarms = 0;
  std::uint64_t degraded = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;  ///< non-finite ticks refused at the door
  bool operator==(const Counters&) const = default;
};

/// What a target's serving plane carries; the runner skips other ops.
struct Caps {
  bool reload = true, reset = true, restore = true, degrade = true;
  bool shed = false;
  bool hostile = true;  ///< false: hostile inputs are left out
  bool door = false;    ///< non-finite ticks are refused, never fed
};

class Target {
 public:
  virtual ~Target() = default;
  virtual void reload(const core::ArtifactBundle& bundle) = 0;
  /// nullopt when admission refused the open.
  virtual std::optional<SessionId> open(const std::string& patient_id,
                                        const std::string& monitor_name,
                                        int patient_index) = 0;
  virtual SessionStats close(SessionId id) = 0;
  virtual void reset(SessionId) {}
  virtual void feed(std::span<const SessionInput> inputs,
                    std::span<monitor::Decision> decisions,
                    std::span<serve::TickOutcome> outcomes) = 0;
  /// Serve the next feed degraded / put the group into kShed.
  virtual void degrade() {}
  virtual void shed() {}
  /// Snapshot every session in `ids` into a fresh instance; remaps ids.
  virtual void restore(std::vector<SessionId>&) {}
  virtual SessionStats stats(SessionId id) = 0;
  virtual Counters counters() = 0;
  /// End-of-run checks (the listfile replay); empty = clean.
  virtual std::string finish(const Counters&) { return {}; }
};

/// A group target's p99 admission thresholds: far above any real feed,
/// over a one-tick window, so one synthetic slow tick sets the rung and
/// the next non-empty feed steps it down.
constexpr double kDegradeUs = 1e9;
constexpr double kShedUs = 2e9;

/// A MonitorEngine or an EngineGroup, built by make(registry, builds): a
/// restore builds the next instance (builds + 1), e.g. at another
/// precision or replica count, and restores every session into it.
template <class Plane>
class PlaneTarget : public Target {
 public:
  using Make =
      std::function<std::unique_ptr<Plane>(obs::Registry*, int builds)>;
  explicit PlaneTarget(Make make) : make_(std::move(make)) {
    build(generation_bundle(0));
  }
  void reload(const core::ArtifactBundle& bundle) override {
    bundle_ = &bundle;
    plane_->register_bundle(bundle);
  }
  std::optional<SessionId> open(const std::string& patient_id,
                                const std::string& monitor_name,
                                int patient_index) override {
    try {
      return plane_->open_session(patient_id, monitor_name, patient_index);
    } catch (const serve::ShedError&) {
      return std::nullopt;
    }
  }
  SessionStats close(SessionId id) override {
    const SessionStats stats = plane_->stats(id);
    plane_->close_session(id);
    return stats;
  }
  void reset(SessionId id) override { plane_->reset_session(id); }
  /// Engines take the SoA feed a replica worker runs, degraded for the
  /// one feed after degrade().
  void feed(std::span<const SessionInput> inputs,
            std::span<monitor::Decision> decisions,
            std::span<serve::TickOutcome> outcomes) override {
    if constexpr (kGroup) {
      plane_->feed(inputs, decisions, outcomes);
    } else {
      const auto got = testutil::feed(*plane_, inputs,
                                      std::exchange(degrade_, false)
                                          ? serve::FeedMode::kDegraded
                                          : serve::FeedMode::kNormal);
      std::copy(got.begin(), got.end(), decisions.begin());
    }
  }
  /// Groups degrade and shed through their admission ladder: one tick as
  /// slow as kDegradeUs..kShedUs (inside the shed rung's hysteresis band,
  /// so it never steps a shedding group down) or past kShedUs.
  void degrade() override {
    if constexpr (kGroup) {
      plane_->admission().observe_tick(1.5 * kDegradeUs);
    } else {
      degrade_ = true;
    }
  }
  void shed() override {
    if constexpr (kGroup) plane_->admission().observe_tick(1.5 * kShedUs);
  }
  void restore(std::vector<SessionId>& ids) override {
    std::vector<serve::SessionSnapshot> snaps;
    for (const SessionId id : ids) snaps.push_back(plane_->snapshot(id));
    build(*bundle_);
    for (std::size_t k = 0; k < ids.size(); ++k) {
      ids[k] = plane_->restore(snaps[k]);
    }
  }
  SessionStats stats(SessionId id) override { return plane_->stats(id); }
  Counters counters() override {
    Counters c{plane_->total_cycles(),
               registry_->counter_value("serve_alarms_total"),
               plane_->latency().degraded_ticks};
    if constexpr (kGroup) c.shed = plane_->admission().shed_ticks_total();
    return c;
  }

 private:
  static constexpr bool kGroup = std::is_same_v<Plane, serve::EngineGroup>;
  void build(const core::ArtifactBundle& bundle) {
    plane_.reset();
    registry_ = std::make_unique<obs::Registry>();
    plane_ = make_(registry_.get(), builds_++);
    reload(bundle);
    degrade_ = false;
  }

  Make make_;
  int builds_ = 0;
  bool degrade_ = false;
  const core::ArtifactBundle* bundle_ = nullptr;
  std::unique_ptr<obs::Registry> registry_;
  std::unique_ptr<Plane> plane_;
};

/// An engine at `precision`; with `alternate`, each restore flips the
/// fresh engine's precision (snapshots cross precision modes).
inline std::unique_ptr<Target> engine_target(monitor::Precision precision,
                                             bool alternate = false) {
  return std::make_unique<PlaneTarget<serve::MonitorEngine>>(
      [=](obs::Registry* registry, int builds) {
        const auto other = precision == monitor::Precision::kF32
                               ? monitor::Precision::kF64
                               : monitor::Precision::kF32;
        return std::make_unique<serve::MonitorEngine>(serve::EngineConfig{
            .registry = registry,
            .precision = alternate && builds % 2 == 1 ? other : precision});
      });
}

/// A group with admission on (one-tick dwell, so the ladder steps down a
/// rung per non-empty feed; an empty quota for "bulk"). Each restore moves
/// the sessions to a group one replica larger, or back: a resized ring.
inline std::unique_ptr<Target> group_target(std::size_t replicas) {
  return std::make_unique<PlaneTarget<serve::EngineGroup>>(
      [=](obs::Registry* registry, int builds) {
        serve::GroupConfig config{.replicas = replicas + builds % 2,
                                  .engine = {.registry = registry}};
        config.admission.degrade_p99_us = kDegradeUs;
        config.admission.shed_p99_us = kShedUs;
        config.admission.latency_window = 1;
        config.admission.min_dwell_ticks = 1;
        config.admission.tenant_quotas = {
            {"bulk", {.ticks_per_sec = 1e-6, .burst = 1e-6}}};
        return std::make_unique<serve::EngineGroup>(config);
      });
}

/// A two-replica group behind the TCP door, driven by one loopback client
/// (session id = client token). finish() replays the run's own listfile
/// into a fresh three-replica group, telemetry off, in five-tick batches.
class TcpTarget final : public Target {
 public:
  TcpTarget()
      : listfile_((std::filesystem::temp_directory_path() /
                   ("aps_oracle_" + std::to_string(::getpid()) + "_" +
                    std::to_string(runs_++) + ".listfile"))
                      .string()),
        group_({.replicas = 2, .engine = {.registry = &registry_}}) {
    group_.register_bundle(generation_bundle(0));
    server_ = std::make_unique<net::IngestServer>(
        group_, net::ServerConfig{.listfile = listfile_,
                                  .registry = &registry_});
    server_->start();
    client_ = std::make_unique<net::BlockingClient>("127.0.0.1",
                                                    server_->port(), "oracle");
  }
  ~TcpTarget() override { std::filesystem::remove(listfile_); }
  void reload(const core::ArtifactBundle&) override {}
  std::optional<SessionId> open(const std::string& patient_id,
                                const std::string& monitor_name,
                                int patient_index) override {
    const auto token = static_cast<SessionId>(patients_.size());
    client_->open_session(token, patient_id, monitor_name, patient_index);
    patients_.push_back(patient_id);
    seqs_.push_back(0);
    return token;
  }
  SessionStats close(SessionId id) override {
    const net::CloseAckMsg ack = client_->close_session(id);
    return {ack.cycles, ack.alarms};
  }
  void feed(std::span<const SessionInput> inputs,
            std::span<monitor::Decision> decisions,
            std::span<serve::TickOutcome> outcomes) override {
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t> at;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const std::uint64_t seq = seqs_[inputs[i].session]++;
      at[{inputs[i].session, seq}] = i;
      client_->send_tick(inputs[i].session, seq, inputs[i].obs);
    }
    for (std::size_t n = 0; n < inputs.size(); ++n) {
      const net::TickReply reply = client_->recv_reply();
      if (reply.served) {
        decisions[at.at({reply.decision.token, reply.decision.seq})] =
            reply.decision.decision;
      } else {
        outcomes[at.at({reply.reject.token, reply.reject.seq})].reason =
            static_cast<serve::RejectReason>(reply.reject.reason);
      }
    }
  }
  SessionStats stats(SessionId id) override {
    return group_.stats(group_.find_session(patients_.at(id)).value());
  }
  Counters counters() override {
    return {group_.total_cycles(),
            registry_.counter_value("serve_alarms_total"), 0, 0,
            registry_.counter_value("net_frames_dropped_total",
                                    {{"reason", "invalid_observation"}})};
  }
  std::string finish(const Counters& served) override {
    client_.reset();
    server_->stop();
    serve::EngineGroup fresh({.replicas = 3, .engine = {.telemetry = false}});
    fresh.register_bundle(generation_bundle(0));
    const net::ReplayResult r =
        net::replay_listfile(listfile_, fresh, {.max_batch = 5});
    if (r.mismatches == 0 && r.unmatched == 0 && r.ticks == served.cycles &&
        r.compared == served.cycles) {
      return {};
    }
    return str("listfile replay: ", r.ticks, " ticks, ", r.compared,
               " compared, ", r.mismatches, " mismatches, ", r.unmatched,
               " unmatched; live served ", served.cycles);
  }

 private:
  static inline int runs_ = 0;
  std::string listfile_;
  obs::Registry registry_;
  serve::EngineGroup group_;
  std::unique_ptr<net::IngestServer> server_;
  std::unique_ptr<net::BlockingClient> client_;
  std::vector<std::string> patients_;  ///< per token
  std::vector<std::uint64_t> seqs_;    ///< next tick seq per token
};

// ---- Runner and shrinker ---------------------------------------------------

struct Spec {
  std::string name;
  Caps caps;
  std::function<std::unique_ptr<Target>()> make;
};

inline std::string show(const SessionStats& s) {
  return str(s.cycles, " cycles/", s.alarms, " alarms");
}
inline std::string show(const monitor::Decision& d) {
  return str(d.alarm ? "alarm" : "quiet", " predicted ",
             static_cast<int>(d.predicted), " rule ", d.rule_id);
}
inline std::string show(const Counters& c) {
  return str(c.cycles, " cycles, ", c.alarms, " alarms, ", c.degraded,
             " degraded, ", c.shed, " shed, ", c.rejected, " rejected");
}

/// Runs `ops` against a fresh target and the reference side by side.
/// Returns the first divergence ("op <i>: ..."), or "" when none.
inline std::string run(const Ops& ops, const Spec& spec) {
  const Caps& caps = spec.caps;
  std::unique_ptr<Target> target;
  Reference ref;
  std::map<std::uint32_t, std::pair<SessionId, SessionId>> live;  // t, ref
  Counters want;
  int generation = 0;
  int rung = 0;  ///< admission ladder: 1 degrades the next feed, 2 sheds
  std::size_t i = 0;
  const auto reconcile = [&]() -> std::string {
    for (const auto& [slot, ids] : live) {
      const SessionStats got = target->stats(ids.first);
      const SessionStats exp = ref.stats(ids.second);
      if (got.cycles != exp.cycles || got.alarms != exp.alarms) {
        return str("stats of ", patient(slot), ": ", show(got),
                   ", reference ", show(exp));
      }
    }
    const Counters got = target->counters();
    if (got == want) return {};
    return "counters: " + show(got) + "; reference " + show(want);
  };
  const auto feed = [&](const Op& op) -> std::string {
    std::vector<SessionInput> inputs, ref_inputs;
    std::vector<serve::TickOutcome> expect;
    std::vector<std::uint32_t> slots;
    for (const Input& in : op.inputs) {
      const auto it = live.find(in.slot);
      if (it == live.end() || (in.hostile && !caps.hostile)) continue;
      inputs.push_back({it->second.first, in.obs});
      slots.push_back(in.slot);
      serve::TickOutcome outcome;
      if (caps.door && !finite(in.obs)) {
        outcome.reason = serve::RejectReason::kInvalidObservation;
      } else if (caps.shed && rung == 2 && bulk(in.slot)) {
        outcome.reason = serve::RejectReason::kOverQuotaTick;
      } else {
        ref_inputs.push_back({it->second.second, in.obs});
      }
      expect.push_back(outcome);
    }
    if (inputs.empty()) return {};
    std::vector<monitor::Decision> got(inputs.size()), exp(ref_inputs.size());
    std::vector<serve::TickOutcome> outcomes(inputs.size());
    target->feed(inputs, got, outcomes);
    const std::size_t degraded = ref.feed(ref_inputs, exp, rung >= 1);
    for (std::size_t k = 0, r = 0; k < inputs.size(); ++k) {
      const std::string at = str("input ", k, " (", patient(slots[k]), ")");
      if (outcomes[k].reason != expect[k].reason) {
        return str(at, " outcome ", static_cast<int>(outcomes[k].reason),
                   ", reference ", static_cast<int>(expect[k].reason));
      }
      if (!expect[k].served()) {
        ++(caps.door && !finite(inputs[k].obs) ? want.rejected : want.shed);
        continue;
      }
      if (!testutil::decisions_equal(got[k], exp[r])) {
        return str(at, " decision ", show(got[k]), ", reference ",
                   show(exp[r]));
      }
      ++want.cycles;
      if (exp[r++].alarm) ++want.alarms;
    }
    want.degraded += degraded;
    rung = std::max(rung - 1, 0);
    return {};
  };
  try {
    target = spec.make();
    ref.register_bundle(generation_bundle(0));
    for (; i < ops.size(); ++i) {
      const Op& op = ops[i];
      const auto it = live.find(op.slot);
      std::string failure;
      switch (op.kind) {
        case OpKind::kOpen: {
          if (it != live.end()) break;
          const bool refused = caps.shed && rung == 2;
          const auto id =
              target->open(patient(op.slot), op.monitor, op.patient_index);
          if (id.has_value() == refused) {
            failure = refused ? "open not refused while shedding"
                              : "open refused";
          } else if (id) {
            live[op.slot] = {*id,
                             ref.open_session(op.monitor, op.patient_index)};
          }
          break;
        }
        case OpKind::kClose: {
          if (it == live.end()) break;
          const SessionStats got = target->close(it->second.first);
          const SessionStats exp = ref.stats(it->second.second);
          if (got.cycles != exp.cycles || got.alarms != exp.alarms) {
            failure = str("close of ", patient(op.slot), ": ", show(got),
                          ", reference ", show(exp));
          }
          ref.close_session(it->second.second);
          live.erase(it);
          break;
        }
        case OpKind::kReset:
          if (!caps.reset || it == live.end()) break;
          target->reset(it->second.first);
          ref.reset_session(it->second.second);
          break;
        case OpKind::kReload:
          if (!caps.reload) break;
          generation ^= 1;
          target->reload(generation_bundle(generation));
          ref.register_bundle(generation_bundle(generation));
          break;
        case OpKind::kRestore: {
          if (!caps.restore) break;
          if (failure = reconcile(); !failure.empty()) break;
          std::vector<SessionId> ids;
          for (const auto& [slot, pair] : live) ids.push_back(pair.first);
          target->restore(ids);
          std::size_t k = 0;
          for (auto& [slot, pair] : live) pair.first = ids[k++];
          want = {};
          rung = 0;
          break;
        }
        case OpKind::kDegrade:
          if (!caps.degrade) break;
          target->degrade();
          rung = std::max(rung, 1);
          break;
        case OpKind::kShed:
          if (!caps.shed) break;
          target->shed();
          rung = 2;
          break;
        case OpKind::kFeed:
          failure = feed(op);
          break;
      }
      if (!failure.empty()) return str("op ", i, ": ", failure);
    }
    std::string failure = reconcile();
    if (failure.empty()) failure = target->finish(want);
    return failure.empty() ? failure : "end of run: " + failure;
  } catch (const std::exception& e) {
    return str("op ", i, ": exception: ", e.what());
  }
}

/// Greedy delta debugging: drop runs of ops, halving the run length, then
/// single inputs of feeds, until no removal keeps `fails` true.
inline Ops shrink(Ops ops, const std::function<bool(const Ops&)>& fails) {
  bool progress = true;
  const auto keep_if_failing = [&](Ops trial) {
    if (!fails(trial)) return false;
    ops = std::move(trial);
    return progress = true;
  };
  while (progress) {
    progress = false;
    for (std::size_t chunk = std::max<std::size_t>(ops.size() / 2, 1);
         chunk >= 1; chunk /= 2) {
      for (std::size_t at = 0; at < ops.size();) {
        Ops trial = ops;
        trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(at),
                    trial.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(at + chunk, trial.size())));
        if (!keep_if_failing(std::move(trial))) at += chunk;
      }
    }
    for (std::size_t o = 0; o < ops.size(); ++o) {
      for (std::size_t k = 0; ops[o].inputs.size() > 1 &&
                              k < ops[o].inputs.size();) {
        Ops trial = ops;
        trial[o].inputs.erase(trial[o].inputs.begin() +
                              static_cast<std::ptrdiff_t>(k));
        if (!keep_if_failing(std::move(trial))) ++k;
      }
    }
  }
  return ops;
}

/// One line per op; feeds list every input's full observation.
inline std::string describe(const Ops& ops) {
  static const char* const kNames[] = {"open",  "close",   "feed",
                                       "reset", "reload",  "restore",
                                       "degrade", "shed"};
  std::ostringstream os;
  os.precision(17);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    os << "  " << i << ": " << kNames[static_cast<int>(op.kind)];
    if (op.kind == OpKind::kOpen) {
      os << " " << patient(op.slot) << " " << op.monitor << " index "
         << op.patient_index;
    } else if (op.kind == OpKind::kClose || op.kind == OpKind::kReset) {
      os << " " << patient(op.slot);
    }
    for (const Input& in : op.inputs) {
      const monitor::Observation& o = in.obs;
      os << "\n     " << patient(in.slot) << " {t " << o.time_min << " bg "
         << o.bg << " bg_rate " << o.bg_rate << " iob " << o.iob
         << " iob_rate " << o.iob_rate << " cmd " << o.commanded_rate
         << " prev " << o.previous_rate << " action "
         << static_cast<int>(o.action) << " basal " << o.basal_rate
         << " isf " << o.isf << "}";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace aps::oracle
