// Replica-sharded serving: an EngineGroup partitions sessions across N
// MonitorEngine replicas by consistent hashing on patient id.
//
// Topology: each replica owns its own engine (shard tables, sessions,
// latency series), ONE job slot and ONE dedicated worker thread that runs
// the slot; the worker is the replica's only thread (engines spawn none),
// so a group of N adds exactly N threads. Frontend threads never run model
// code — a group feed() partitions the tick batch by owning replica, fills
// the slot of every replica that owns an input, and blocks until each of
// those workers reports completion; decisions are then merged back to the
// caller's indices. Per-session results are invariant to the replica
// count: sessions are independent streams, a session's inputs all land on
// its owning replica in batch order, and every decision is written at its
// fixed input index. The differential oracle (tests/serve_oracle.h) pins
// groups of 1, 2 and 8 replicas to the same scalar reference as a single
// engine.
//
// Thread model: one group mutex guards every public entry that reaches a
// replica engine, and a feed holds it from fan-out through the barrier;
// workers only run jobs a feed handed them, so while the lock is free
// every worker is idle. A register_* call thus reaches every replica as
// one step. One slot per replica is all a feed needs: it hands each
// replica at most one job and waits for it, so a second job never queues
// behind the first. The slot and the feed's FeedMode are written under
// the lock, then published by bumping the replica's push ticket; the
// worker's completion count orders the results back. The ring is
// immutable, so replica_of() and replicas() take no lock. The group's
// AdmissionController keeps its own mutex: open_session() consults it
// before taking the group lock, and its state may be read from any thread.
//
// Overload: one policy decides which model answers. While the admission
// ladder (admission.h) sits at kDegrade or kShed, a feed serves every
// replica FeedMode::kDegraded: sessions whose shard carries a degrade
// twin (lstm -> dt) are answered by the cheap twin while the primary
// monitor ingests the observation, so control ticks are never missed and
// the primary stream resumes bit-identically. Degraded cycles surface in
// serve_degraded_ticks_total and LatencySummary::degraded_ticks. The
// ladder reads each feed's wall latency, which includes every replica's
// pickup lag.
//
// Session ids encode the owning replica in the top bits
// ((replica << 24) | engine-local id), so routing a frame or a close is
// one shift — no group-level session table exists.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/admission.h"
#include "serve/engine.h"

namespace aps::serve {

/// Thrown by feed() once shutdown() has begun: the caller's tick was NOT
/// handed to any replica (nothing partial happened) and the group is
/// quiescing.
class ShutdownError : public std::runtime_error {
 public:
  ShutdownError() : std::runtime_error("EngineGroup is shut down") {}
};

struct GroupConfig {
  /// Engine replicas (1..255; the replica index lives in the session id's
  /// top 8 bits).
  std::size_t replicas = 2;
  /// Admission control policy (disabled by default; see admission.h).
  AdmissionConfig admission = {};
  /// Configuration for every replica engine. When `registry` is null the
  /// group shares one registry across all replicas (the global one, or a
  /// group-owned one with telemetry off) so group-level series aggregate.
  EngineConfig engine = {};
};

/// FNV-1a 64-bit hash — placement must be stable across runs and standard
/// libraries (std::hash is not), so record/replay and multi-process
/// deployments agree on session ownership.
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Ring position for a key: FNV-1a plus a splitmix64 avalanche finalizer.
/// Raw FNV-1a leaves keys that share a long prefix and differ in a short
/// numeric suffix — exactly the "patient-<n>" id shape — clustered within
/// ~127 * prime of each other (the final byte is one xor-multiply from the
/// output), which collapses whole cohorts onto a handful of ring points
/// and can starve replicas. The finalizer disperses every cluster across
/// the full 64-bit ring; measured imbalance at 100k ids over 64 vnodes is
/// under 1.25x.
[[nodiscard]] constexpr std::uint64_t ring_hash(std::string_view s) {
  std::uint64_t h = fnv1a64(s);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

class EngineGroup {
 public:
  /// Bits of a group SessionId holding the engine-local id; the replica
  /// index occupies the bits above.
  static constexpr std::uint32_t kReplicaShift = 24;
  static constexpr SessionId kLocalMask = (SessionId{1} << kReplicaShift) - 1;

  explicit EngineGroup(GroupConfig config = {});
  ~EngineGroup();
  EngineGroup(const EngineGroup&) = delete;
  EngineGroup& operator=(const EngineGroup&) = delete;

  /// Quiesce the group: any in-flight feed completes its barrier, later
  /// feeds fail cleanly with ShutdownError (nothing handed off), and every
  /// worker joins with its slot already run. Idempotent and safe to race
  /// with concurrent feeds — the destructor calls it, but calling it earlier
  /// lets tests exercise the feed-while-shutting-down path with the group
  /// object still alive.
  void shutdown();

  // -- Topology --

  [[nodiscard]] std::size_t replicas() const { return replicas_.size(); }
  /// Owning replica for a patient id (consistent-hash ring lookup).
  [[nodiscard]] std::size_t replica_of(std::string_view patient_id) const;
  [[nodiscard]] static std::uint32_t replica_of_session(SessionId id) {
    return id >> kReplicaShift;
  }
  // -- Monitor registry (forwarded to every replica under the group lock;
  //    generations stay in lockstep because every replica sees the same
  //    register_* sequence) --

  void register_monitor(const std::string& name,
                        aps::sim::MonitorFactory factory, int cohort = -1);
  void register_bundle(const aps::core::ArtifactBundle& bundle);
  /// Load a bundle file once, then register it on every replica. A
  /// corrupt/truncated file throws io::IoError before any replica changes.
  void register_bundle_file(const std::string& path);
  [[nodiscard]] std::vector<std::string> registered_monitors() const;
  [[nodiscard]] std::uint64_t generation() const;

  // -- Session registry --

  SessionId open_session(const std::string& patient_id,
                         const std::string& monitor_name,
                         int patient_index = 0);
  void close_session(SessionId id);
  [[nodiscard]] std::optional<SessionId> find_session(
      const std::string& patient_id) const;
  [[nodiscard]] std::size_t session_count() const;

  // -- Streaming --

  /// Fan a tick batch out to the owning replicas (parallel workers) and
  /// merge decisions deterministically: decisions[i] answers inputs[i]
  /// regardless of replica count or worker scheduling.
  /// Session ids must be group ids from THIS group; per-replica input
  /// order (and thus multi-input-per-session semantics) follows batch
  /// order. A replica failure (unknown session) is rethrown here after
  /// all replicas finish their partition. When given, outcomes[i] says
  /// whether inputs[i] was served or shed (and why); it must match
  /// `inputs` in size or be empty. A shed input's decision is the default
  /// no-alarm Decision — check the outcome first. Shedding only happens
  /// with admission enabled and the group in kShed.
  void feed(std::span<const SessionInput> inputs,
            std::span<aps::monitor::Decision> decisions,
            std::span<TickOutcome> outcomes = {});
  void reset_session(SessionId id);

  // -- Snapshot / restore --

  [[nodiscard]] SessionSnapshot snapshot(SessionId id) const;
  /// Restore routes by the snapshot's patient id, so a session always
  /// lands on its ring-owned replica (a group restored elsewhere keeps
  /// identical placement).
  SessionId restore(const SessionSnapshot& snap);

  // -- Introspection --

  [[nodiscard]] SessionStats stats(SessionId id) const;
  [[nodiscard]] std::uint64_t total_cycles() const;
  /// Merged latency summary: exact totals (ticks/cycles/degraded/seconds)
  /// are summed across replicas; percentiles read the shared
  /// serve_tick_latency_us series, which every replica reports into.
  [[nodiscard]] LatencySummary latency() const;
  void reset_latency();
  /// The registry every replica (and the group's own series) reports into.
  [[nodiscard]] aps::obs::Registry& registry() const { return *registry_; }
  /// The group's admission controller (always constructed; no-op unless
  /// GroupConfig::admission sets a p99 threshold).
  [[nodiscard]] AdmissionController& admission() const { return *admission_; }

 private:
  /// A replica's job slot is its scratch buffers (guarded by mu_), which
  /// hold the whole partition; the feed's mode_ says how to serve it.
  /// Completion is reported through the group's pending_ counter.
  struct Replica {
    std::unique_ptr<MonitorEngine> engine;
    /// Push ticket: one bump per filled slot, plus one at shutdown.
    std::atomic<std::uint64_t> pushed{0};
    std::thread worker;
    // Per-feed scratch, valid while a job for this replica is in flight
    // (mu_ serializes group feeds).
    std::vector<SessionId> local_sessions;  ///< engine-LOCAL ids
    std::vector<aps::monitor::Observation> local_obs;
    std::vector<aps::monitor::Decision> local_decisions;
    std::vector<std::uint32_t> global_index;  ///< input index per local row
    std::exception_ptr error;
    aps::obs::Gauge* sessions_gauge = nullptr;
    /// Tenant index (AdmissionController::tenant_index) per engine-local
    /// session id; written at open/restore, read by feed's shed pre-pass.
    /// Guarded by mu_. Only maintained when admission is enabled.
    std::vector<std::uint32_t> tenant_of_local;
  };

  [[nodiscard]] Replica& checked_replica(SessionId id) const;
  void worker_loop(Replica& replica);
  void run_job(Replica& replica);
  void record_tenant(Replica& replica, SessionId local,
                     std::string_view patient_id);

  GroupConfig config_;
  std::unique_ptr<aps::obs::Registry> owned_registry_;
  aps::obs::Registry* registry_ = nullptr;
  std::unique_ptr<AdmissionController> admission_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;  ///< sorted
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::atomic<bool> stop_{false};
  std::once_flag shutdown_once_;
  /// The group lock: guards every replica engine, the replicas' scratch
  /// and tenant tables, and the feed scratch below (see the thread model).
  mutable std::mutex mu_;
  /// Jobs of the in-flight feed not yet finished; workers decrement it,
  /// the feed's barrier waits for zero.
  std::atomic<std::size_t> pending_{0};
  /// How the in-flight feed serves every replica; written by feed() under
  /// mu_ before any ticket bump, read by workers after their acquire.
  FeedMode mode_ = FeedMode::kNormal;
  aps::obs::Counter* group_feeds_ = nullptr;
  // Feed-local scratch for the shed pre-pass (guarded by mu_).
  std::vector<std::uint32_t> feed_tenants_;  ///< tenant index per input
  std::vector<std::uint8_t> feed_shed_;      ///< 1 = input shed this feed
};

}  // namespace aps::serve
