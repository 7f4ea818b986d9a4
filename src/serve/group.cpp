#include "serve/group.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "io/artifact_io.h"

namespace aps::serve {

namespace {

/// Virtual nodes per replica on the consistent-hash ring: 64 keeps the
/// patient imbalance under a few percent at 100k sessions. The vnode
/// names ("replica-<r>#<v>") fix where every patient lands, and a
/// recorded listfile replays only onto the same placement.
constexpr std::size_t kVirtualNodes = 64;

}  // namespace

EngineGroup::EngineGroup(GroupConfig config) : config_(std::move(config)) {
  if (config_.replicas < 1 ||
      config_.replicas > (SessionId{1} << (32 - kReplicaShift)) - 1) {
    throw std::invalid_argument("EngineGroup: replicas must be in 1..255");
  }
  // One shared registry: the configured one, the global one (telemetry
  // on), or a group-owned one (telemetry off) — never one private
  // registry per replica, which would fracture the group-level series.
  EngineConfig engine_config = config_.engine;
  if (engine_config.registry == nullptr) {
    if (engine_config.telemetry) {
      registry_ = &aps::obs::Registry::global();
    } else {
      owned_registry_ = std::make_unique<aps::obs::Registry>();
      registry_ = owned_registry_.get();
    }
    engine_config.registry = registry_;
  } else {
    registry_ = engine_config.registry;
  }

  group_feeds_ = &registry_->counter("serve_group_feeds_total", {},
                                     "group-level feed fan-outs");
  admission_ =
      std::make_unique<AdmissionController>(config_.admission, *registry_);

  ring_.reserve(config_.replicas * kVirtualNodes);
  replicas_.reserve(config_.replicas);
  for (std::size_t r = 0; r < config_.replicas; ++r) {
    auto replica = std::make_unique<Replica>();
    replica->engine = std::make_unique<MonitorEngine>(engine_config);
    const std::string label = std::to_string(r);
    replica->sessions_gauge = &registry_->gauge(
        "serve_replica_sessions", {{"replica", label}},
        "sessions owned by the replica");
    for (std::size_t v = 0; v < kVirtualNodes; ++v) {
      const std::string vnode =
          "replica-" + label + "#" + std::to_string(v);
      ring_.emplace_back(ring_hash(vnode), static_cast<std::uint32_t>(r));
    }
    replicas_.push_back(std::move(replica));
  }
  std::sort(ring_.begin(), ring_.end());
  for (auto& replica : replicas_) {
    replica->worker = std::thread([this, r = replica.get()] {
      worker_loop(*r);
    });
  }
}

EngineGroup::~EngineGroup() { shutdown(); }

void EngineGroup::shutdown() {
  std::call_once(shutdown_once_, [this] {
    // Raise stop UNDER the group lock: an in-flight feed() finishes its
    // whole fan-out + barrier first (so every filled slot has run and
    // reported completion), and any feed that arrives later sees stop_
    // before filling any slot and fails with ShutdownError. By
    // construction no slot holds an unrun job when the workers are told
    // to exit — no job is ever abandoned half-delivered.
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_.store(true, std::memory_order_release);
    }
    for (auto& replica : replicas_) {
      replica->pushed.fetch_add(1, std::memory_order_release);
      replica->pushed.notify_all();
    }
    for (auto& replica : replicas_) {
      if (replica->worker.joinable()) replica->worker.join();
    }
  });
}

std::size_t EngineGroup::replica_of(std::string_view patient_id) const {
  const std::uint64_t h = ring_hash(patient_id);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const std::pair<std::uint64_t, std::uint32_t>& node,
         std::uint64_t key) { return node.first < key; });
  if (it == ring_.end()) it = ring_.begin();  // ring wrap
  return it->second;
}

void EngineGroup::worker_loop(Replica& replica) {
  // Every bump of the push ticket is one filled slot or the shutdown, and
  // `seen` is the last ticket handled: a replica a feed skipped is never
  // woken, and a wake never re-runs a slot it already ran. The stop check
  // cannot skip a filled slot: stop_ is raised under mu_, which the feed
  // that filled the slot holds until this worker reports completion.
  std::uint64_t seen = 0;
  for (;;) {
    replica.pushed.wait(seen, std::memory_order_acquire);
    seen = replica.pushed.load(std::memory_order_acquire);
    if (stop_.load(std::memory_order_acquire)) return;
    run_job(replica);
  }
}

void EngineGroup::run_job(Replica& replica) {
  try {
    replica.engine->feed(replica.local_sessions, replica.local_obs,
                         replica.local_decisions, mode_);
  } catch (...) {
    // The feed clears replica.error before filling the slot and reads it
    // after the barrier, so this write never races.
    replica.error = std::current_exception();
  }
  pending_.fetch_sub(1, std::memory_order_release);
  pending_.notify_one();
}

void EngineGroup::register_monitor(const std::string& name,
                                   aps::sim::MonitorFactory factory,
                                   int cohort) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& replica : replicas_) {
    replica->engine->register_monitor(name, factory, cohort);
  }
}

void EngineGroup::register_bundle(const aps::core::ArtifactBundle& bundle) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& replica : replicas_) replica->engine->register_bundle(bundle);
}

void EngineGroup::register_bundle_file(const std::string& path) {
  // One read, outside the lock; a corrupt file throws before any replica
  // changes, so replica generations never drift apart.
  register_bundle(aps::io::load_bundle(path));
}

std::vector<std::string> EngineGroup::registered_monitors() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return replicas_.front()->engine->registered_monitors();
}

std::uint64_t EngineGroup::generation() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return replicas_.front()->engine->generation();
}

EngineGroup::Replica& EngineGroup::checked_replica(SessionId id) const {
  const std::uint32_t r = replica_of_session(id);
  if (r >= replicas_.size()) {
    throw std::out_of_range("session id " + std::to_string(id) +
                            " names replica " + std::to_string(r) +
                            " of a " + std::to_string(replicas_.size()) +
                            "-replica group");
  }
  return *replicas_[r];
}

void EngineGroup::record_tenant(Replica& replica, SessionId local,
                                std::string_view patient_id) {
  if (!admission_->enabled()) return;
  const std::uint32_t tenant = admission_->tenant_index(tenant_of(patient_id));
  if (replica.tenant_of_local.size() <= local) {
    replica.tenant_of_local.resize(local + 1, 0);
  }
  replica.tenant_of_local[local] = tenant;
}

SessionId EngineGroup::open_session(const std::string& patient_id,
                                    const std::string& monitor_name,
                                    int patient_index) {
  if (!admission_->admit_open(tenant_of(patient_id))) {
    throw ShedError(RejectReason::kOverloadOpen,
                    admission_->config().retry_after_ms,
                    "open rejected: serving plane is shedding load");
  }
  const std::lock_guard<std::mutex> lock(mu_);
  const std::size_t r = replica_of(patient_id);
  Replica& replica = *replicas_[r];
  const SessionId local =
      replica.engine->open_session(patient_id, monitor_name, patient_index);
  if (local > kLocalMask) {
    replica.engine->close_session(local);
    throw std::length_error("replica " + std::to_string(r) +
                            " exhausted its 2^24 session-id space");
  }
  record_tenant(replica, local, patient_id);
  replica.sessions_gauge->set(
      static_cast<double>(replica.engine->session_count()));
  return (static_cast<SessionId>(r) << kReplicaShift) | local;
}

void EngineGroup::close_session(SessionId id) {
  const std::lock_guard<std::mutex> lock(mu_);
  Replica& replica = checked_replica(id);
  replica.engine->close_session(id & kLocalMask);
  replica.sessions_gauge->set(
      static_cast<double>(replica.engine->session_count()));
}

std::optional<SessionId> EngineGroup::find_session(
    const std::string& patient_id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::size_t r = replica_of(patient_id);
  const auto local = replicas_[r]->engine->find_session(patient_id);
  if (!local) return std::nullopt;
  return (static_cast<SessionId>(r) << kReplicaShift) | *local;
}

std::size_t EngineGroup::session_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t count = 0;
  for (const auto& replica : replicas_) {
    count += replica->engine->session_count();
  }
  return count;
}

void EngineGroup::feed(std::span<const SessionInput> inputs,
                       std::span<aps::monitor::Decision> decisions,
                       std::span<TickOutcome> outcomes) {
  if (decisions.size() != inputs.size()) {
    throw std::invalid_argument(
        "feed: decisions span size " + std::to_string(decisions.size()) +
        " does not match inputs size " + std::to_string(inputs.size()));
  }
  if (!outcomes.empty() && outcomes.size() != inputs.size()) {
    throw std::invalid_argument(
        "feed: outcomes span size " + std::to_string(outcomes.size()) +
        " does not match inputs size " + std::to_string(inputs.size()));
  }
  if (inputs.empty()) return;
  const std::lock_guard<std::mutex> lock(mu_);
  if (stop_.load(std::memory_order_acquire)) throw ShutdownError();
  group_feeds_->add(1);
  const auto tick_start = std::chrono::steady_clock::now();
  for (auto& outcome : outcomes) outcome = TickOutcome{};

  // Admission ladder: the state read once here governs the whole batch.
  // kDegrade serves everything FeedMode::kDegraded; kShed additionally
  // drops inputs of over-quota tenants (never in-quota ones) before any
  // of them reach a replica.
  const OverloadState adm_state =
      admission_->enabled() ? admission_->state() : OverloadState::kHealthy;
  feed_shed_.assign(inputs.size(), 0);
  if (adm_state == OverloadState::kShed) {
    feed_tenants_.resize(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const Replica& replica = checked_replica(inputs[i].session);
      const SessionId local = inputs[i].session & kLocalMask;
      feed_tenants_[i] = local < replica.tenant_of_local.size()
                             ? replica.tenant_of_local[local]
                             : 0;
    }
    // Bulk-charge each tenant's bucket once per batch, then grant serves
    // in batch order so a partially-admitted tenant keeps its earliest
    // ticks (per-session streams stay prefix-consistent).
    std::unordered_map<std::uint32_t, std::size_t> grant;
    for (const std::uint32_t t : feed_tenants_) ++grant[t];
    for (auto& [tenant, count] : grant) {
      count = admission_->admit_ticks(tenant, count);
    }
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      std::size_t& remaining = grant[feed_tenants_[i]];
      if (remaining > 0) {
        --remaining;
        continue;
      }
      feed_shed_[i] = 1;
      decisions[i] = aps::monitor::Decision{};
      if (!outcomes.empty()) {
        outcomes[i].reason = RejectReason::kOverQuotaTick;
      }
    }
  }

  // Partition admitted inputs by owning replica, preserving batch order
  // within each partition (session input order = batch order, exactly
  // like a single engine). Replica ids are validated before any slot is
  // filled.
  for (auto& replica : replicas_) {
    replica->local_sessions.clear();
    replica->local_obs.clear();
    replica->global_index.clear();
    replica->error = nullptr;
  }
  for (std::uint32_t i = 0; i < inputs.size(); ++i) {
    Replica& replica = checked_replica(inputs[i].session);
    if (feed_shed_[i] != 0) continue;
    replica.local_sessions.push_back(inputs[i].session & kLocalMask);
    replica.local_obs.push_back(inputs[i].obs);
    replica.global_index.push_back(i);
  }

  // One job per replica that owns an input: fill its slot, then bump its
  // ticket. A replica without inputs is not woken.
  pending_.store(static_cast<std::size_t>(std::count_if(
                     replicas_.begin(), replicas_.end(),
                     [](const auto& replica) {
                       return !replica->local_sessions.empty();
                     })),
                 std::memory_order_relaxed);
  mode_ = adm_state == OverloadState::kHealthy ? FeedMode::kNormal
                                               : FeedMode::kDegraded;
  for (auto& replica : replicas_) {
    if (replica->local_sessions.empty()) continue;
    replica->local_decisions.resize(replica->local_sessions.size());
    replica->pushed.fetch_add(1, std::memory_order_release);
    replica->pushed.notify_one();
  }

  // Barrier: every job reports completion through pending_.
  for (std::size_t p = pending_.load(std::memory_order_acquire); p != 0;
       p = pending_.load(std::memory_order_acquire)) {
    pending_.wait(p, std::memory_order_acquire);
  }

  for (auto& replica : replicas_) {
    if (replica->error != nullptr) std::rethrow_exception(replica->error);
  }
  // Deterministic merge: each decision lands at its input index, so the
  // result is independent of replica count and worker scheduling.
  for (const auto& replica : replicas_) {
    for (std::size_t j = 0; j < replica->global_index.size(); ++j) {
      decisions[replica->global_index[j]] = replica->local_decisions[j];
    }
  }

  if (admission_->enabled()) {
    const double tick_us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - tick_start)
            .count();
    admission_->observe_tick(tick_us);
  }
}

void EngineGroup::reset_session(SessionId id) {
  const std::lock_guard<std::mutex> lock(mu_);
  checked_replica(id).engine->reset_session(id & kLocalMask);
}

SessionSnapshot EngineGroup::snapshot(SessionId id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return checked_replica(id).engine->snapshot(id & kLocalMask);
}

SessionId EngineGroup::restore(const SessionSnapshot& snap) {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::size_t r = replica_of(snap.patient_id);
  Replica& replica = *replicas_[r];
  const SessionId local = replica.engine->restore(snap);
  if (local > kLocalMask) {
    replica.engine->close_session(local);
    throw std::length_error("replica " + std::to_string(r) +
                            " exhausted its 2^24 session-id space");
  }
  record_tenant(replica, local, snap.patient_id);
  replica.sessions_gauge->set(
      static_cast<double>(replica.engine->session_count()));
  return (static_cast<SessionId>(r) << kReplicaShift) | local;
}

SessionStats EngineGroup::stats(SessionId id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return checked_replica(id).engine->stats(id & kLocalMask);
}

std::uint64_t EngineGroup::total_cycles() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t cycles = 0;
  for (const auto& replica : replicas_) {
    cycles += replica->engine->total_cycles();
  }
  return cycles;
}

LatencySummary EngineGroup::latency() const {
  const std::lock_guard<std::mutex> lock(mu_);
  // Replica 0's percentiles already read the SHARED serve_tick_latency_us
  // series (one registry across the group), so only the exact totals and
  // the per-shard union need merging.
  LatencySummary summary = replicas_.front()->engine->latency();
  std::unordered_set<std::string> seen;
  for (const auto& shard : summary.shards) seen.insert(shard.shard);
  for (std::size_t r = 1; r < replicas_.size(); ++r) {
    const LatencySummary part = replicas_[r]->engine->latency();
    summary.ticks += part.ticks;
    summary.cycles += part.cycles;
    summary.degraded_ticks += part.degraded_ticks;
    summary.seconds += part.seconds;
    for (const auto& shard : part.shards) {
      if (seen.insert(shard.shard).second) summary.shards.push_back(shard);
    }
  }
  return summary;
}

void EngineGroup::reset_latency() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& replica : replicas_) replica->engine->reset_latency();
}

}  // namespace aps::serve
