#include "serve/engine.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "common/stats.h"
#include "io/artifact_io.h"
#include "ml/kernels/kernels.h"
#include "monitor/ml_monitor.h"

namespace aps::serve {

MonitorEngine::MonitorEngine(EngineConfig config) : config_(config) {
  if (config_.threads > 1) {
    throw std::invalid_argument(
        "MonitorEngine serves on its caller's thread (threads must be 0 or "
        "1, got " +
        std::to_string(config_.threads) +
        "); use an EngineGroup with more replicas to scale out");
  }
  if (config_.registry != nullptr) {
    registry_ = config_.registry;
  } else if (config_.telemetry) {
    registry_ = &aps::obs::Registry::global();
  } else {
    // Keep the opted-out engine's mandatory series out of the global
    // registry (the A/B baseline must not pollute process metrics).
    owned_registry_ = std::make_unique<aps::obs::Registry>();
    registry_ = owned_registry_.get();
  }
  const auto latency_spec = aps::obs::HistogramSpec::latency_us();
  metrics_.tick_latency = &registry_->histogram(
      "serve_tick_latency_us", latency_spec, {},
      "feed() wall time per tick");
  metrics_.ticks =
      &registry_->counter("serve_ticks_total", {}, "feed ticks served");
  metrics_.cycles = &registry_->counter("serve_cycles_total", {},
                                        "session-cycles served");
  metrics_.alarms = &registry_->counter("serve_alarms_total", {},
                                        "alarming decisions served");
  metrics_.sessions_opened = &registry_->counter(
      "serve_sessions_opened_total", {}, "open_session calls");
  metrics_.sessions_closed = &registry_->counter(
      "serve_sessions_closed_total", {}, "close_session calls");
  metrics_.sessions_restored = &registry_->counter(
      "serve_sessions_restored_total", {}, "snapshot restores");
  metrics_.session_resets = &registry_->counter(
      "serve_session_resets_total", {}, "reset_session calls");
  metrics_.reloads = &registry_->counter(
      "serve_reloads_total", {}, "register_monitor/register_bundle calls");
  metrics_.sessions_open =
      &registry_->gauge("serve_sessions_open", {}, "currently open sessions");
  metrics_.generation =
      &registry_->gauge("serve_generation", {}, "current model generation");
  metrics_.drift_alerts = &registry_->counter(
      "drift_alerts_total", {},
      "shard drift detectors entering the alerting state");
  metrics_.drift_samples = &registry_->counter(
      "drift_samples_total", {}, "observations folded into drift detectors");
  metrics_.degraded_ticks = &registry_->counter(
      "serve_degraded_ticks_total", {},
      "session-cycles answered by a degrade twin (kDegraded feeds)");
  // Which ML kernel backend this process dispatches to (scalar/avx2/neon);
  // a labeled flag gauge so dashboards can pivot on the backend string.
  registry_
      ->gauge("kernels_backend",
              {{"backend", aps::ml::kernels::backend_name()}},
              "active ML kernel backend (value is always 1)")
      .set(1.0);
  if (config_.telemetry) {
    const auto phase = [&](const char* name) {
      return &registry_->histogram("serve_phase_us", latency_spec,
                                   {{"phase", name}},
                                   "sharded tick phase wall time");
    };
    metrics_.phase_ingest = phase("ingest");
    metrics_.phase_dispatch = phase("dispatch");
    metrics_.phase_predict = phase("predict");
    metrics_.phase_merge = phase("merge");
  }
}

void MonitorEngine::bump_generation() {
  ++generation_;
  metrics_.reloads->add(1);
  metrics_.generation->set(static_cast<double>(generation_));
}

void MonitorEngine::register_monitor(const std::string& name,
                                     aps::sim::MonitorFactory factory,
                                     int cohort) {
  if (factory == nullptr) {
    throw std::invalid_argument("null factory for monitor '" + name + "'");
  }
  bump_generation();
  monitors_[name] = {std::move(factory), generation_, cohort, nullptr};
}

void MonitorEngine::register_bundle(const aps::core::ArtifactBundle& bundle) {
  // Build every factory before touching the registry so a throwing
  // construction leaves the current generation fully intact.
  std::vector<std::pair<std::string, aps::sim::MonitorFactory>> factories;
  for (const auto& name : aps::core::bundle_monitor_names(bundle)) {
    factories.emplace_back(name, aps::core::factory_from_bundle(bundle, name));
  }
  const int cohort = aps::core::bundle_cohort_size(bundle);
  bump_generation();
  for (auto& [name, factory] : factories) {
    monitors_[name] = {std::move(factory), generation_, cohort,
                       bundle.training_stats};
  }
}

void MonitorEngine::register_bundle_file(const std::string& path) {
  // load_bundle throws io::IoError on corruption/truncation — before any
  // registry mutation, so live sessions keep serving their generation.
  register_bundle(aps::io::load_bundle(path));
}

std::vector<std::string> MonitorEngine::registered_monitors() const {
  std::vector<std::string> names;
  names.reserve(monitors_.size());
  for (const auto& [name, entry] : monitors_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

std::uint64_t MonitorEngine::generation() const {
  return generation_;
}

const MonitorEngine::RegisteredMonitor& MonitorEngine::checked_monitor(
    const std::string& monitor_name, int patient_index) const {
  const auto it = monitors_.find(monitor_name);
  if (it == monitors_.end()) {
    throw std::invalid_argument("unknown monitor '" + monitor_name +
                                "' (register it first)");
  }
  const RegisteredMonitor& entry = it->second;
  if (patient_index < 0 ||
      (entry.cohort >= 0 && patient_index >= entry.cohort)) {
    throw std::out_of_range(
        "patient_index " + std::to_string(patient_index) +
        " outside the registered cohort of monitor '" + monitor_name + "'");
  }
  return entry;
}

void MonitorEngine::init_shard_telemetry(ServeShard& shard,
                                         const RegisteredMonitor& entry) {
  if (!config_.telemetry) return;
  aps::obs::Histogram* latency = &registry_->histogram(
      "serve_shard_tick_latency_us", aps::obs::HistogramSpec::latency_us(),
      {{"shard", shard.label()}}, "per-shard stretch wall time");
  registry_
      ->gauge("serve_shard_precision",
              {{"shard", shard.label()},
               {"precision",
                shard.precision() == aps::monitor::Precision::kF32 ? "f32"
                                                                   : "f64"}},
              "inference precision configured for the shard (always 1)")
      .set(1.0);
  aps::obs::Gauge* score = nullptr;
  std::unique_ptr<aps::obs::DriftDetector> drift;
  if (entry.stats != nullptr && !entry.stats->empty()) {
    score = &registry_->gauge(
        "serve_drift_score", {{"shard", shard.label()}},
        "input drift vs training stats (training-sigma units)");
    drift =
        std::make_unique<aps::obs::DriftDetector>(entry.stats, config_.drift);
  }
  shard.set_telemetry(latency, score, std::move(drift));
}

SessionId MonitorEngine::place_session(Session session,
                                       const aps::monitor::Monitor& prototype,
                                       const RegisteredMonitor& entry) {
  // The lane is placed before the session record is committed, so a
  // failure here leaves the registry and session table untouched.
  const std::uint64_t version = entry.version;
  const SessionId id = free_ids_.empty()
                           ? static_cast<SessionId>(sessions_.size())
                           : free_ids_.back();
  // First shard of this (name, generation) whose batch accepts the
  // prototype; a rejected prototype (same name, different model instance —
  // e.g. a snapshot restored across a reload) gets a sibling shard so it
  // still batches with its own kind.
  for (const auto& shard : shards_) {
    if (shard->monitor_name() != session.monitor_name ||
        shard->version() != version) {
      continue;
    }
    if (const auto added = shard->try_add_lane(prototype, id)) {
      session.shard = shard.get();
      session.lane = *added;
      break;
    }
  }
  if (session.shard == nullptr) {
    auto fresh = std::make_unique<ServeShard>(session.monitor_name, version,
                                              next_shard_ordinal_);
    // Degrade twin: if this is the degrade-from monitor AND the degrade-to
    // monitor exists at the SAME generation (one register_bundle call
    // registers both), the shard carries a twin batch so kDegraded ticks
    // can answer from the cheap kind. A missing or stale-generation
    // target simply leaves the shard non-degradable.
    if (session.monitor_name == kDegradeFrom) {
      const auto to_it = monitors_.find(std::string(kDegradeTo));
      if (to_it != monitors_.end() && to_it->second.version == version) {
        fresh->set_degrade_twin(to_it->second.factory(session.patient_index));
      }
    }
    fresh->set_precision(config_.precision);
    const auto added = fresh->try_add_lane(prototype, id);
    if (!added) {
      // A batch must accept its own prototype (shard.h invariant); a
      // Monitor whose make_batch() violates it is a programming error —
      // fail loudly instead of dereferencing an empty optional.
      throw std::logic_error("monitor '" + session.monitor_name +
                             "' produced a batch that rejects its own "
                             "prototype");
    }
    ++next_shard_ordinal_;
    init_shard_telemetry(*fresh, entry);
    session.shard = fresh.get();
    session.lane = *added;
    shards_.push_back(std::move(fresh));
  }
  if (!free_ids_.empty()) {
    free_ids_.pop_back();
    sessions_[id] = std::move(session);
  } else {
    sessions_.push_back(std::move(session));
  }
  by_patient_.emplace(sessions_[id].patient_id, id);
  ++open_count_;
  metrics_.sessions_open->set(static_cast<double>(open_count_));
  return id;
}

SessionId MonitorEngine::open_session(const std::string& patient_id,
                                      const std::string& monitor_name,
                                      int patient_index) {
  if (by_patient_.count(patient_id) != 0) {
    throw std::invalid_argument("patient '" + patient_id +
                                "' already has an open session");
  }
  const RegisteredMonitor& entry =
      checked_monitor(monitor_name, patient_index);
  // Build the monitor before any mutation: an unknown-cohort factory may
  // still reject the patient_index here.
  const std::unique_ptr<aps::monitor::Monitor> prototype =
      entry.factory(patient_index);
  Session session;
  session.patient_id = patient_id;
  session.monitor_name = monitor_name;
  session.patient_index = patient_index;
  session.open = true;
  metrics_.sessions_opened->add(1);
  return place_session(std::move(session), *prototype, entry);
}

MonitorEngine::Session& MonitorEngine::checked_session(SessionId id) {
  if (id >= sessions_.size() || !sessions_[id].open) {
    throw std::out_of_range("no open session with id " + std::to_string(id));
  }
  return sessions_[id];
}

const MonitorEngine::Session& MonitorEngine::checked_session(
    SessionId id) const {
  if (id >= sessions_.size() || !sessions_[id].open) {
    throw std::out_of_range("no open session with id " + std::to_string(id));
  }
  return sessions_[id];
}

void MonitorEngine::close_session(SessionId id) {
  Session& session = checked_session(id);
  by_patient_.erase(session.patient_id);
  ServeShard* shard = session.shard;
  // Swap-with-last lane compaction: the shard tells us which session moved
  // into the vacated lane so its index stays correct.
  if (const auto moved = shard->remove_lane(session.lane)) {
    sessions_[*moved].lane = session.lane;
  }
  if (shard->lanes() == 0) {
    std::erase_if(shards_, [shard](const std::unique_ptr<ServeShard>& s) {
      return s.get() == shard;
    });
  }
  session = Session{};  // releases the lane bookkeeping
  free_ids_.push_back(id);
  --open_count_;
  metrics_.sessions_closed->add(1);
  metrics_.sessions_open->set(static_cast<double>(open_count_));
}

std::optional<SessionId> MonitorEngine::find_session(
    const std::string& patient_id) const {
  const auto it = by_patient_.find(patient_id);
  if (it == by_patient_.end()) return std::nullopt;
  return it->second;
}

std::size_t MonitorEngine::session_count() const {
  return open_count_;
}

void MonitorEngine::record_latency(double seconds, std::size_t cycles) {
  ++latency_ticks_;
  latency_cycles_ += cycles;
  latency_seconds_ += seconds;
  metrics_.tick_latency->observe(seconds * 1e6);
  metrics_.ticks->add(1);
  metrics_.cycles->add(cycles);
}

LatencySummary MonitorEngine::latency() const {
  LatencySummary summary;
  summary.ticks = latency_ticks_;
  summary.cycles = latency_cycles_;
  summary.degraded_ticks = latency_degraded_;
  summary.seconds = latency_seconds_;
  // Empty-histogram contract (obs/metrics.h): percentiles of a series
  // with no observations are 0.0. Guard explicitly anyway so a summary
  // taken before the first tick is visibly all-zero by construction.
  const aps::obs::HistogramSnapshot snap = metrics_.tick_latency->snapshot();
  if (snap.count > 0) {
    summary.p50_us = snap.percentile(50.0);
    summary.p95_us = snap.percentile(95.0);
    summary.p99_us = snap.percentile(99.0);
    summary.max_us = snap.max;
  }
  // Per-shard breakdown; sibling shards share a label (same registry
  // series), so report each label once.
  std::unordered_set<std::string> seen;
  for (const auto& shard : shards_) {
    if (shard->latency_histogram() == nullptr ||
        !seen.insert(shard->label()).second) {
      continue;
    }
    const aps::obs::HistogramSnapshot h =
        shard->latency_histogram()->snapshot();
    if (h.count == 0) continue;
    summary.shards.push_back({shard->label(), h.count, h.percentile(50.0),
                              h.percentile(95.0), h.percentile(99.0), h.max});
  }
  return summary;
}

void MonitorEngine::reset_latency() {
  latency_ticks_ = 0;
  latency_cycles_ = 0;
  latency_degraded_ = 0;
  latency_seconds_ = 0.0;
  metrics_.tick_latency->reset();
  for (const auto& shard : shards_) {
    if (shard->latency_histogram() != nullptr) {
      shard->latency_histogram()->reset();
    }
  }
}

void MonitorEngine::feed(std::span<const SessionId> sessions,
                         std::span<const aps::monitor::Observation> obs,
                         std::span<aps::monitor::Decision> decisions,
                         FeedMode mode) {
  if (obs.size() != sessions.size() || decisions.size() != sessions.size()) {
    throw std::invalid_argument(
        "feed: span sizes differ (sessions " + std::to_string(sessions.size()) +
        ", obs " + std::to_string(obs.size()) + ", decisions " +
        std::to_string(decisions.size()) + ")");
  }
  if (sessions.empty()) return;

  // Validate up front so a bad id fails before any monitor state moves.
  for (const SessionId sid : sessions) (void)checked_session(sid);

  const auto t0 = std::chrono::steady_clock::now();
  feed_sharded(sessions, obs, decisions, mode);
  total_cycles_ += sessions.size();
  record_latency(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count(),
      sessions.size());
}

bool MonitorEngine::drift_tick_due() {
  const std::uint32_t every = std::max(1u, config_.drift.sample_every_ticks);
  return (drift_tick_++ % every) == 0;
}

/// Fold a stretch's observations into the shard's drift detector: strided
/// subsampling into a stack-local per-feature batch, one merge.
/// Purely observational — decisions are untouched.
void MonitorEngine::accumulate_drift(
    ServeShard& shard, std::span<const aps::monitor::Observation> obs) {
  aps::obs::DriftDetector* drift = shard.drift();
  if (drift == nullptr || obs.empty()) return;
  std::array<aps::obs::FeatureSummary, aps::monitor::kMlFeatureCount> batch{};
  std::array<double, aps::monitor::kMlFeatureCount> features{};
  const std::size_t stride = std::max<std::size_t>(1, drift->config().stride);
  std::uint64_t sampled = 0;
  for (std::size_t i = 0; i < obs.size(); i += stride) {
    aps::monitor::ml_features_into(obs[i], features);
    for (std::size_t f = 0; f < features.size(); ++f) {
      batch[f].add(features[f]);
    }
    ++sampled;
  }
  if (drift->merge(batch)) metrics_.drift_alerts->add(1);
  metrics_.drift_samples->add(sampled);
}

void MonitorEngine::feed_sharded(std::span<const SessionId> sessions,
                                 std::span<const aps::monitor::Observation> obs,
                                 std::span<aps::monitor::Decision> decisions,
                                 FeedMode mode) {
  const std::size_t n = sessions.size();
  const bool telemetry = config_.telemetry;
  // Detailed instrumentation — tracer spans, per-stretch latency clocks, and
  // drift feature extraction — is tick-sampled on one shared cadence
  // (DriftConfig::sample_every_ticks). Unsampled ticks pay only the
  // aggregate counters (alarms, session stats, the engine-level tick
  // latency), which is what keeps the telemetry overhead inside its <2%
  // budget now that the identity fast path makes a rule tick this cheap.
  const bool detailed = telemetry && drift_tick_due();
  aps::obs::Tracer* tracer = detailed ? &registry_->tracer() : nullptr;
  const bool drift_due = detailed;
  const bool degraded_mode = mode == FeedMode::kDegraded;
  std::uint64_t degraded = 0;

  // Round r of a session = its r-th input in this batch; rounds execute as
  // sequential lockstep ticks so multiple inputs for one session apply in
  // batch order, exactly like feeding them one at a time. The per-session
  // occurrence counters reset lazily via the feed epoch.
  bool single_round = true;
  {
    std::optional<aps::obs::Tracer::Scope> span;
    if (tracer != nullptr) {
      span.emplace(tracer, "serve.ingest", metrics_.phase_ingest);
    }
    ++feed_epoch_;
    if (feed_epoch_ == 0) {  // epoch wrapped: hard-reset the lazy counters
      std::fill(occ_epoch_.begin(), occ_epoch_.end(), 0);
      feed_epoch_ = 1;
    }
    occ_.resize(sessions_.size(), 0);
    occ_epoch_.resize(sessions_.size(), 0);
    round_of_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const SessionId sid = sessions[i];
      if (occ_epoch_[sid] != feed_epoch_) {
        occ_epoch_[sid] = feed_epoch_;
        occ_[sid] = 0;
      }
      round_of_[i] = occ_[sid]++;
      single_round = single_round && round_of_[i] == 0;
    }
  }

  // One shard stretch [b, e): a single batched call on `shard`, reading
  // observations from stretch_obs and writing decisions straight to
  // stretch_dec (+ the same range of lanes_flat_). Shared by the identity
  // fast path and the sorted general path; `src` maps stretch positions
  // back to input indices (nullptr = identity).
  const auto run_stretch = [&](ServeShard* shard, std::size_t b,
                               std::size_t e,
                               const aps::monitor::Observation* stretch_obs,
                               aps::monitor::Decision* stretch_dec,
                               const std::uint32_t* src) {
    const std::size_t count = e - b;
    const std::span<const std::size_t> lane_span(&lanes_flat_[b], count);
    const std::span<const aps::monitor::Observation> obs_span(
        stretch_obs + b, count);
    const std::span<aps::monitor::Decision> dec_span(stretch_dec + b, count);
    const auto c0 = detailed ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point{};
    if (degraded_mode && shard->can_degrade()) {
      shard->observe_lanes_degraded(lane_span, obs_span, dec_span);
      degraded += count;
    } else {
      shard->observe_lanes(lane_span, obs_span, dec_span);
    }
    if (detailed && shard->latency_histogram() != nullptr) {
      shard->latency_histogram()->observe(
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - c0)
              .count());
    }
    std::uint64_t alarms = 0;
    for (std::size_t kk = b; kk < e; ++kk) {
      const std::uint32_t i =
          src != nullptr ? src[kk] : static_cast<std::uint32_t>(kk);
      Session& session = sessions_[sessions[i]];
      ++session.stats.cycles;
      if (stretch_dec[kk].alarm) {
        ++session.stats.alarms;
        ++alarms;
      }
      if (src != nullptr) decisions[i] = stretch_dec[kk];
    }
    if (alarms > 0) metrics_.alarms->add(alarms);
    if (drift_due) accumulate_drift(*shard, obs_span);
  };

  // Detect the steady-state tick — one input per session, shard-contiguous
  // (ordinal-monotonic) — and serve it with ZERO payload movement: no
  // index sort, no observation gather, decisions written directly into the
  // caller's span. Only the lane lookup runs per input. Out-of-order or
  // multi-round batches fall back to the sort + gather + scatter path.
  bool already_grouped = true;
  {
    std::optional<aps::obs::Tracer::Scope> span;
    if (tracer != nullptr) {
      span.emplace(tracer, "serve.dispatch", metrics_.phase_dispatch);
    }
    for (std::size_t i = 1; i < n && already_grouped; ++i) {
      const std::uint32_t ra = round_of_[i - 1];
      const std::uint32_t rb = round_of_[i];
      if (ra != rb) {
        already_grouped = ra < rb;
        continue;
      }
      already_grouped = sessions_[sessions[i - 1]].shard->ordinal() <=
                        sessions_[sessions[i]].shard->ordinal();
    }
    lanes_flat_.resize(n);
    if (single_round && already_grouped) {
      for (std::size_t i = 0; i < n; ++i) {
        lanes_flat_[i] = sessions_[sessions[i]].lane;
      }
    } else {
      src_flat_.resize(n);
      for (std::uint32_t i = 0; i < n; ++i) src_flat_[i] = i;
      if (!already_grouped) {
        std::stable_sort(
            src_flat_.begin(), src_flat_.end(),
            [this, sessions](std::uint32_t a, std::uint32_t b) {
              if (round_of_[a] != round_of_[b]) {
                return round_of_[a] < round_of_[b];
              }
              return sessions_[sessions[a]].shard->ordinal() <
                     sessions_[sessions[b]].shard->ordinal();
            });
      }
      gather_obs_.resize(n);
      gather_decisions_.resize(n);
      for (std::size_t k = 0; k < n; ++k) {
        const std::uint32_t i = src_flat_[k];
        gather_obs_[k] = obs[i];
        lanes_flat_[k] = sessions_[sessions[i]].lane;
      }
    }
  }

  {
    std::optional<aps::obs::Tracer::Scope> span;
    if (tracer != nullptr) {
      span.emplace(tracer, "serve.predict", metrics_.phase_predict);
    }
    if (single_round && already_grouped) {
      // Identity fast path: one round over [0, n), observations and
      // decisions used in place.
      std::size_t lo = 0;
      while (lo < n) {
        ServeShard* shard = sessions_[sessions[lo]].shard;
        std::size_t hi = lo + 1;
        while (hi < n && sessions_[sessions[hi]].shard == shard) ++hi;
        run_stretch(shard, lo, hi, obs.data(), decisions.data(), nullptr);
        lo = hi;
      }
    } else {
      // Rounds run in order; within a round each shard stretch is one
      // batched call.
      std::size_t lo = 0;
      while (lo < n) {
        const std::uint32_t round = round_of_[src_flat_[lo]];
        ServeShard* shard = sessions_[sessions[src_flat_[lo]]].shard;
        std::size_t hi = lo + 1;
        while (hi < n && round_of_[src_flat_[hi]] == round &&
               sessions_[sessions[src_flat_[hi]]].shard == shard) {
          ++hi;
        }
        run_stretch(shard, lo, hi, gather_obs_.data(),
                    gather_decisions_.data(), src_flat_.data());
        lo = hi;
      }
    }
  }

  if (degraded > 0) {
    latency_degraded_ += degraded;
    metrics_.degraded_ticks->add(degraded);
  }

  if (drift_due) {
    // Merge: refresh each drifting shard's score gauge (sampled ticks
    // only, alongside the accumulation those scores reflect).
    std::optional<aps::obs::Tracer::Scope> span;
    if (tracer != nullptr) {
      span.emplace(tracer, "serve.merge", metrics_.phase_merge);
    }
    for (const auto& shard : shards_) {
      if (shard->drift() != nullptr && shard->drift_gauge() != nullptr) {
        shard->drift_gauge()->set(shard->drift()->score());
      }
    }
  }
}

void MonitorEngine::reset_session(SessionId id) {
  Session& session = checked_session(id);
  metrics_.session_resets->add(1);
  session.shard->reset_lane(session.lane);
}

SessionSnapshot MonitorEngine::snapshot(SessionId id) const {
  const Session& session = checked_session(id);
  SessionSnapshot snap;
  snap.patient_id = session.patient_id;
  snap.monitor_name = session.monitor_name;
  snap.patient_index = session.patient_index;
  snap.stats = session.stats;
  snap.monitor = session.shard->extract_lane(session.lane);
  return snap;
}

SessionId MonitorEngine::restore(const SessionSnapshot& snap) {
  if (snap.monitor == nullptr) {
    throw std::invalid_argument("cannot restore an empty snapshot");
  }
  if (by_patient_.count(snap.patient_id) != 0) {
    throw std::invalid_argument("patient '" + snap.patient_id +
                                "' already has an open session");
  }
  // The registry may have changed shape since the snapshot was taken
  // (different bundle, smaller cohort): fail loudly instead of serving a
  // session whose per-patient artifacts no longer exist.
  const RegisteredMonitor& entry =
      checked_monitor(snap.monitor_name, snap.patient_index);
  Session session;
  session.patient_id = snap.patient_id;
  session.monitor_name = snap.monitor_name;
  session.patient_index = snap.patient_index;
  session.stats = snap.stats;
  session.open = true;
  metrics_.sessions_restored->add(1);
  return place_session(std::move(session), *snap.monitor, entry);
}

SessionStats MonitorEngine::stats(SessionId id) const {
  return checked_session(id).stats;
}

std::uint64_t MonitorEngine::total_cycles() const {
  return total_cycles_;
}

}  // namespace aps::serve
