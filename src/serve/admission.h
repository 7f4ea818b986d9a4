// Admission control for the replica-sharded serving plane: the policy
// layer that turns overload from an opaque stall into a measured,
// tenant-fair degradation ladder. Three pieces:
//
//   * per-tenant token buckets — a tenant is the patient-id prefix before
//     the first '/' ("clinic-7/patient-42" -> "clinic-7"; ids without a
//     prefix share the "default" tenant). Buckets refill continuously at
//     TenantQuota::ticks_per_sec up to `burst`; a tenant whose bucket runs
//     dry is *over quota*. Quotas are a protection mechanism, not a calm-
//     weather rate limit: they only bite at the top of the ladder.
//
//   * a global overload state machine, healthy -> degrade -> shed, driven
//     by one signal the group observes every tick: the p99 tick latency
//     over a sliding window of recent ticks. A group tick's latency runs
//     from the start of the feed through its barrier, so it already holds
//     every replica's pickup lag. Escalation is immediate; de-escalation
//     steps down one rung at a time, only after `min_dwell_ticks`
//     consecutive ticks with the signal below `recover_ratio` of the
//     entry threshold (hysteresis, no flapping).
//
//   * a shed policy ordered by monitor cost. Rung 1 (degrade): every tick
//     is served FeedMode::kDegraded — LSTM lanes answer from their DT twin
//     while the primary stream ingests observations and resumes
//     bit-identically; nothing is dropped. Rung 2 (shed): new session
//     opens are rejected (ShedError -> a typed reject frame on the wire),
//     and ticks from over-quota tenants are dropped — never ticks from
//     in-quota tenants. Every shed is counted:
//
//       serve_overload_state                      gauge (0/1/2)
//       serve_overload_transitions_total{to=...}  counter
//       serve_shed_total{reason="open"|"tick", tenant=...}
//
// Thread model: state() is a relaxed atomic read (hot path); bucket and
// window mutation is mutex-guarded — opens are bookkeeping-rate and the
// group charges ticks once per (tenant, batch), not per input.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace aps::serve {

/// Tenant of a patient id: the prefix before the first '/' when present,
/// otherwise the shared "default" tenant. Used for quota buckets and the
/// `tenant` label on shed counters, so prefixes are expected to be a
/// small, bounded set (clinics, fleets), not per-patient.
[[nodiscard]] std::string_view tenant_of(std::string_view patient_id);

enum class OverloadState : std::uint8_t {
  kHealthy = 0,
  kDegrade = 1,  ///< serve every tick degraded (LSTM -> DT twin)
  kShed = 2,     ///< additionally reject opens + drop over-quota ticks
};

[[nodiscard]] const char* overload_state_name(OverloadState state);

/// Why an open or a tick was refused (mirrored on the wire as the typed
/// reject frame's code; values are part of the protocol).
enum class RejectReason : std::uint8_t {
  kNone = 0,           ///< not rejected (a served tick's outcome)
  kOverloadOpen = 1,   ///< new sessions rejected while shedding
  kOverQuotaTick = 2,  ///< tick dropped: tenant over its token bucket
  /// tick refused at the ingest door: a non-finite observation field
  kInvalidObservation = 3,
};

/// Per-input verdict from an admission-aware feed. A shed input carries a
/// default (no-alarm) Decision; consumers must check the outcome before
/// treating the decision as a served answer.
struct TickOutcome {
  RejectReason reason = RejectReason::kNone;
  [[nodiscard]] bool served() const { return reason == RejectReason::kNone; }
};

/// Thrown by EngineGroup::open_session when admission refuses the open.
/// Distinct from std::invalid_argument (caller error) so the front door
/// can answer with a typed reject frame + backoff hint instead of a
/// generic open failure.
class ShedError : public std::runtime_error {
 public:
  ShedError(RejectReason reason, std::uint32_t retry_after_ms,
            const std::string& what)
      : std::runtime_error(what),
        reason_(reason),
        retry_after_ms_(retry_after_ms) {}

  [[nodiscard]] RejectReason reason() const { return reason_; }
  [[nodiscard]] std::uint32_t retry_after_ms() const {
    return retry_after_ms_;
  }

 private:
  RejectReason reason_;
  std::uint32_t retry_after_ms_;
};

/// Token-bucket quota for one tenant. ticks_per_sec == 0 means unlimited
/// (the tenant is never over quota); burst == 0 defaults to one second of
/// refill (== ticks_per_sec).
struct TenantQuota {
  double ticks_per_sec = 0.0;
  double burst = 0.0;
};

struct AdmissionConfig {
  /// Quota for tenants without an explicit entry (0 = unlimited).
  TenantQuota default_quota = {};
  /// Per-tenant overrides, keyed by tenant name (see tenant_of).
  std::vector<std::pair<std::string, TenantQuota>> tenant_quotas;

  // -- Overload state machine signal ----------------------------------------
  /// p99 tick latency (us, over `latency_window` recent ticks) at which
  /// the group enters kDegrade / kShed. 0 turns that rung off. Both 0 (the
  /// default) turns admission off: the ladder never leaves kHealthy, so
  /// the group serves every tick on the primary monitors and no quota
  /// bites.
  double degrade_p99_us = 0.0;
  double shed_p99_us = 0.0;
  /// De-escalation hysteresis: the signal must sit below
  /// entry_threshold * recover_ratio ...
  double recover_ratio = 0.7;
  /// ... for this many consecutive ticks before stepping down one rung.
  std::uint32_t min_dwell_ticks = 16;
  /// Sliding window (ticks) for the p99 latency signal.
  std::size_t latency_window = 128;
  /// Backoff hint carried in ShedError (and the wire reject frame).
  std::uint32_t retry_after_ms = 250;
};

/// The policy object. One per EngineGroup; all methods are thread-safe.
class AdmissionController {
 public:
  AdmissionController(AdmissionConfig config, aps::obs::Registry& registry);

  /// True when either p99 threshold is set (see AdmissionConfig).
  [[nodiscard]] bool enabled() const {
    return config_.degrade_p99_us > 0.0 || config_.shed_p99_us > 0.0;
  }
  [[nodiscard]] const AdmissionConfig& config() const { return config_; }
  [[nodiscard]] OverloadState state() const {
    return state_.load(std::memory_order_relaxed);
  }

  /// Observe one group tick's wall latency. Drives the state machine (the
  /// group calls this under its lock, once per tick).
  void observe_tick(double tick_us);

  /// Stable dense index for a tenant (registers it on first use). The
  /// group stores this per session so the feed path never re-hashes
  /// patient ids.
  [[nodiscard]] std::uint32_t tenant_index(std::string_view tenant);

  /// Session-open admission. False (counted, per tenant) while shedding.
  [[nodiscard]] bool admit_open(std::string_view tenant);

  /// Charge `count` ticks to a tenant's bucket; returns how many are
  /// admitted. Everything is admitted below kShed; while shedding, a dry
  /// bucket sheds the remainder (counted per tenant). The group admits a
  /// batch's inputs in batch order, so within one feed the *first*
  /// admitted-count inputs of the tenant are served.
  [[nodiscard]] std::size_t admit_ticks(std::uint32_t tenant_index,
                                        std::size_t count);

  /// Totals for tests/benches (reads the registry-backed counters).
  [[nodiscard]] std::uint64_t shed_opens_total() const;
  [[nodiscard]] std::uint64_t shed_ticks_total() const;

 private:
  struct Tenant {
    std::string name;
    double rate = 0.0;   ///< tokens per second (0 = unlimited)
    double burst = 0.0;  ///< bucket depth
    double tokens = 0.0;
    std::chrono::steady_clock::time_point last_refill;
    aps::obs::Counter* shed_open = nullptr;
    aps::obs::Counter* shed_tick = nullptr;
  };

  /// Ladder rung implied by the p99 with thresholds scaled by `scale`
  /// (1.0 on entry; recover_ratio when testing for recovery).
  [[nodiscard]] int signal_level(double p99_us, double scale) const;
  Tenant& tenant_locked(std::string_view name);
  void refill_locked(Tenant& tenant, std::chrono::steady_clock::time_point now);
  void set_state_locked(OverloadState next);

  AdmissionConfig config_;
  aps::obs::Registry& registry_;
  std::atomic<OverloadState> state_{OverloadState::kHealthy};

  mutable std::mutex mu_;  ///< guards tenants + the latency window + dwell
  std::unordered_map<std::string, std::uint32_t> tenant_ids_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::vector<double> window_;  ///< ring buffer of recent tick latencies
  std::size_t window_pos_ = 0;
  std::size_t window_count_ = 0;
  std::vector<double> window_scratch_;  ///< reused for the p99 nth_element
  std::uint32_t dwell_ = 0;  ///< consecutive recovered ticks in this state

  aps::obs::Gauge* state_gauge_ = nullptr;
  aps::obs::Counter* to_healthy_ = nullptr;
  aps::obs::Counter* to_degrade_ = nullptr;
  aps::obs::Counter* to_shed_ = nullptr;
};

}  // namespace aps::serve
