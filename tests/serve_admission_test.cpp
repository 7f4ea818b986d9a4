// Admission-control policy suite: tenant parsing, the overload state
// machine (immediate escalation, dwell-gated one-rung recovery with
// hysteresis), per-tenant token buckets that only bite while shedding,
// and the EngineGroup integration — in-quota tenants never lose a tick,
// over-quota tenants shed the excess with typed outcomes and per-tenant
// counters, opens are rejected with ShedError while shedding, and every
// served stream stays bit-identical to an unpressured reference monitor.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/monitor_factory.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/engine.h"
#include "serve/group.h"
#include "synthetic_util.h"

namespace {

using namespace aps;

constexpr int kCohort = 4;

using testutil::rule_bundle;

/// p99 thresholds far above any real feed, a one-tick window (the p99 is
/// the last tick) and a short dwell, so the state machine is walked with a
/// handful of synthetic tick latencies.
constexpr double kDegradeUs = 1e9;
constexpr double kShedUs = 2e9;

serve::AdmissionConfig fast_config() {
  serve::AdmissionConfig config;
  config.degrade_p99_us = kDegradeUs;
  config.shed_p99_us = kShedUs;
  config.recover_ratio = 0.7;
  config.min_dwell_ticks = 4;
  config.latency_window = 1;
  return config;
}

TEST(Admission, TenantIsThePatientIdPrefix) {
  EXPECT_EQ(serve::tenant_of("clinic-7/patient-42"), "clinic-7");
  EXPECT_EQ(serve::tenant_of("a/b/c"), "a");
  EXPECT_EQ(serve::tenant_of("patient-42"), "default");
  EXPECT_EQ(serve::tenant_of("/leading-slash"), "default");
  EXPECT_EQ(serve::tenant_of(""), "default");
}

TEST(Admission, EscalationIsImmediateRecoveryNeedsDwell) {
  obs::Registry registry;
  serve::AdmissionController adm(fast_config(), registry);
  ASSERT_EQ(adm.state(), serve::OverloadState::kHealthy);
  EXPECT_EQ(registry.gauge_value("serve_overload_state"), 0.0);

  // One bad tick escalates; a worse one escalates again, no dwell.
  adm.observe_tick(1.2 * kDegradeUs);
  EXPECT_EQ(adm.state(), serve::OverloadState::kDegrade);
  adm.observe_tick(1.1 * kShedUs);
  EXPECT_EQ(adm.state(), serve::OverloadState::kShed);
  EXPECT_EQ(registry.gauge_value("serve_overload_state"), 2.0);

  // Three calm ticks: dwell (4) not reached, still shedding.
  for (int i = 0; i < 3; ++i) adm.observe_tick(0.0);
  EXPECT_EQ(adm.state(), serve::OverloadState::kShed);

  // 1.5e9 us sits inside the hysteresis band (>= shed_p99_us *
  // recover_ratio = 1.4e9) — not an escalation, but it must reset the
  // dwell counter.
  adm.observe_tick(0.75 * kShedUs);
  for (int i = 0; i < 3; ++i) adm.observe_tick(0.0);
  EXPECT_EQ(adm.state(), serve::OverloadState::kShed);

  // Fourth consecutive calm tick: step down ONE rung, not straight home.
  adm.observe_tick(0.0);
  EXPECT_EQ(adm.state(), serve::OverloadState::kDegrade);
  for (int i = 0; i < 4; ++i) adm.observe_tick(0.0);
  EXPECT_EQ(adm.state(), serve::OverloadState::kHealthy);
  EXPECT_EQ(registry.gauge_value("serve_overload_state"), 0.0);

  EXPECT_EQ(registry.counter_value("serve_overload_transitions_total",
                                   {{"to", "degrade"}}),
            2u);  // healthy->degrade and shed->degrade
  EXPECT_EQ(registry.counter_value("serve_overload_transitions_total",
                                   {{"to", "shed"}}),
            1u);
  EXPECT_EQ(registry.counter_value("serve_overload_transitions_total",
                                   {{"to", "healthy"}}),
            1u);
}

TEST(Admission, P99OverTheWindowDrivesTheLadder) {
  obs::Registry registry;
  auto config = fast_config();
  config.degrade_p99_us = 100.0;
  config.shed_p99_us = 10000.0;
  config.latency_window = 8;
  serve::AdmissionController adm(config, registry);

  adm.observe_tick(50.0);
  EXPECT_EQ(adm.state(), serve::OverloadState::kHealthy);
  // The p99 rank floors, so one outlier in a 2-sample window is not yet
  // the p99 — a single slow tick cannot flap the ladder.
  adm.observe_tick(500.0);
  EXPECT_EQ(adm.state(), serve::OverloadState::kHealthy);
  adm.observe_tick(500.0);  // p99 of the window is now 500us
  EXPECT_EQ(adm.state(), serve::OverloadState::kDegrade);
  for (int i = 0; i < 3; ++i) adm.observe_tick(20000.0);
  EXPECT_EQ(adm.state(), serve::OverloadState::kShed);
}

TEST(Admission, BucketsOnlyBiteWhileShedding) {
  obs::Registry registry;
  auto config = fast_config();
  // Effectively no refill during the test: the burst is the whole budget.
  config.tenant_quotas = {{"bulk", {.ticks_per_sec = 1e-6, .burst = 4.0}}};
  serve::AdmissionController adm(config, registry);

  const auto bulk = adm.tenant_index("bulk");
  const auto care = adm.tenant_index("care");  // default quota: unlimited

  // Healthy and degraded states admit everything — quotas are an overload
  // protection, not a calm-weather rate limit.
  EXPECT_EQ(adm.admit_ticks(bulk, 100), 100u);
  adm.observe_tick(1.2 * kDegradeUs);
  ASSERT_EQ(adm.state(), serve::OverloadState::kDegrade);
  EXPECT_EQ(adm.admit_ticks(bulk, 100), 100u);
  EXPECT_TRUE(adm.admit_open("bulk"));

  adm.observe_tick(1.1 * kShedUs);
  ASSERT_EQ(adm.state(), serve::OverloadState::kShed);

  // Shedding: the bucket holds 4 tokens; 10 requested -> 4 admitted in
  // batch order, 6 shed and counted against the tenant.
  EXPECT_EQ(adm.admit_ticks(bulk, 10), 4u);
  EXPECT_EQ(adm.admit_ticks(bulk, 10), 0u);
  EXPECT_EQ(registry.counter_value(
                "serve_shed_total", {{"reason", "tick"}, {"tenant", "bulk"}}),
            16u);

  // The unlimited tenant is never shed, even at the top of the ladder.
  EXPECT_EQ(adm.admit_ticks(care, 100), 100u);
  EXPECT_EQ(registry.counter_value(
                "serve_shed_total", {{"reason", "tick"}, {"tenant", "care"}}),
            0u);

  // Opens are refused (and counted) only while shedding.
  EXPECT_FALSE(adm.admit_open("care"));
  EXPECT_EQ(registry.counter_value(
                "serve_shed_total", {{"reason", "open"}, {"tenant", "care"}}),
            1u);
  EXPECT_EQ(adm.shed_opens_total(), 1u);
  EXPECT_EQ(adm.shed_ticks_total(), 16u);
}

TEST(Admission, DisabledControllerAdmitsEverything) {
  // The p99 thresholds are the switch: both 0 (the default) is off, even
  // with a quota that would shed at the top of the ladder.
  obs::Registry registry;
  serve::AdmissionConfig config;
  config.latency_window = 1;
  config.tenant_quotas = {{"bulk", {.ticks_per_sec = 1e-6, .burst = 1.0}}};
  serve::AdmissionController adm(config, registry);
  EXPECT_FALSE(adm.enabled());
  const auto bulk = adm.tenant_index("bulk");
  adm.observe_tick(1e12);
  EXPECT_EQ(adm.state(), serve::OverloadState::kHealthy);
  EXPECT_TRUE(adm.admit_open("bulk"));
  EXPECT_EQ(adm.admit_ticks(bulk, 10), 10u);
  EXPECT_EQ(adm.shed_opens_total(), 0u);
  EXPECT_EQ(adm.shed_ticks_total(), 0u);
  EXPECT_EQ(registry.counter_value("serve_overload_transitions_total",
                                   {{"to", "shed"}}),
            0u);
}

TEST(Admission, EachThresholdTurnsOnOnlyItsRung) {
  // Degrade threshold alone: admission is on, but the ladder tops out at
  // kDegrade, so opens and quota-bound ticks still pass.
  {
    obs::Registry registry;
    auto config = fast_config();
    config.shed_p99_us = 0.0;
    config.tenant_quotas = {{"bulk", {.ticks_per_sec = 1e-6, .burst = 1.0}}};
    serve::AdmissionController adm(config, registry);
    EXPECT_TRUE(adm.enabled());
    const auto bulk = adm.tenant_index("bulk");
    adm.observe_tick(1e12);
    EXPECT_EQ(adm.state(), serve::OverloadState::kDegrade);
    EXPECT_TRUE(adm.admit_open("bulk"));
    EXPECT_EQ(adm.admit_ticks(bulk, 10), 10u);
  }
  // Shed threshold alone: one slow tick goes straight to kShed, and the
  // quota and the open gate bite.
  {
    obs::Registry registry;
    auto config = fast_config();
    config.degrade_p99_us = 0.0;
    config.tenant_quotas = {{"bulk", {.ticks_per_sec = 1e-6, .burst = 1.0}}};
    serve::AdmissionController adm(config, registry);
    EXPECT_TRUE(adm.enabled());
    const auto bulk = adm.tenant_index("bulk");
    adm.observe_tick(1.1 * kShedUs);
    EXPECT_EQ(adm.state(), serve::OverloadState::kShed);
    EXPECT_FALSE(adm.admit_open("bulk"));
    EXPECT_EQ(adm.admit_ticks(bulk, 10), 1u);
  }
}

TEST(AdmissionGroup, InQuotaTenantsNeverLoseATickWhileShedding) {
  serve::GroupConfig config;
  config.replicas = 2;
  config.engine.telemetry = false;  // group-owned registry, isolated counts
  config.admission = fast_config();
  config.admission.min_dwell_ticks = 2;
  config.admission.retry_after_ms = 125;
  config.admission.tenant_quotas = {
      {"bulk", {.ticks_per_sec = 1e-6, .burst = 2.0}}};
  serve::EngineGroup group(config);
  const auto bundle = rule_bundle();
  group.register_bundle(bundle);

  const std::vector<std::string> monitors = {"cawt", "guideline", "cawot"};
  struct Session {
    serve::SessionId id = 0;
    std::vector<monitor::Observation> stream;
    std::unique_ptr<monitor::Monitor> reference;  ///< fed served ticks only
    std::size_t next = 0;                         ///< stream cursor
  };
  auto open_tenant = [&](const std::string& tenant,
                         std::size_t count) -> std::vector<Session> {
    std::vector<Session> sessions;
    for (std::size_t s = 0; s < count; ++s) {
      const std::string& name = monitors[s % monitors.size()];
      const int index = static_cast<int>(s) % kCohort;
      Session session;
      session.id = group.open_session(tenant + "/p" + std::to_string(s),
                                      name, index);
      session.stream = testutil::synth_stream(
          64, 6100 + static_cast<std::uint64_t>(s) +
                  (tenant == "bulk" ? 1000 : 0));
      session.reference = core::factory_from_bundle(bundle, name)(index);
      sessions.push_back(std::move(session));
    }
    return sessions;
  };
  auto care = open_tenant("care", 4);
  auto bulk = open_tenant("bulk", 4);

  // One admission-aware feed cycle over every session of both tenants;
  // references advance only on served ticks so a shed mid-stream must not
  // desync the later decisions (the "no tick silently lost" property).
  std::size_t care_shed = 0, bulk_shed = 0;
  auto cycle = [&] {
    std::vector<serve::SessionInput> batch;
    std::vector<Session*> slots;
    for (auto* sessions : {&care, &bulk}) {
      for (auto& session : *sessions) {
        batch.push_back({session.id, session.stream[session.next]});
        slots.push_back(&session);
      }
    }
    std::vector<monitor::Decision> decisions(batch.size());
    std::vector<serve::TickOutcome> outcomes(batch.size());
    group.feed(batch, decisions, outcomes);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Session& session = *slots[i];
      if (outcomes[i].served()) {
        const auto expected =
            session.reference->observe(session.stream[session.next]);
        ASSERT_TRUE(testutil::decisions_equal(decisions[i], expected))
            << "input " << i;
      } else {
        EXPECT_EQ(outcomes[i].reason, serve::RejectReason::kOverQuotaTick);
        // A shed slot carries the default no-alarm decision.
        EXPECT_FALSE(decisions[i].alarm);
        EXPECT_EQ(decisions[i].rule_id, -1);
        // Batch order is all care slots, then all bulk slots.
        if (i < care.size()) {
          ++care_shed;
        } else {
          ++bulk_shed;
        }
      }
      ++session.next;
    }
  };

  // Healthy: everything is served.
  for (int k = 0; k < 3; ++k) cycle();
  EXPECT_EQ(care_shed + bulk_shed, 0u);

  // Force the top of the ladder with one tick slower than kShedUs.
  group.admission().observe_tick(1.1 * kShedUs);
  ASSERT_EQ(group.admission().state(), serve::OverloadState::kShed);

  // Opens are rejected with the typed error and the backoff hint.
  try {
    (void)group.open_session("care/late", "cawt", 0);
    FAIL() << "open during shed was not rejected";
  } catch (const serve::ShedError& err) {
    EXPECT_EQ(err.reason(), serve::RejectReason::kOverloadOpen);
    EXPECT_EQ(err.retry_after_ms(), 125u);
  }
  EXPECT_EQ(group.registry().counter_value(
                "serve_shed_total", {{"reason", "open"}, {"tenant", "care"}}),
            1u);

  // Shedding: bulk's bucket holds 2 tokens, so exactly 2 of its 4 ticks
  // are served this cycle; care (unlimited) never loses one. The feed's
  // own observe_tick sees a fast tick, so re-arm the ladder each cycle.
  cycle();
  EXPECT_EQ(care_shed, 0u);
  EXPECT_EQ(bulk_shed, 2u);
  group.admission().observe_tick(1.1 * kShedUs);
  cycle();  // bucket dry: all 4 bulk ticks shed
  EXPECT_EQ(care_shed, 0u);
  EXPECT_EQ(bulk_shed, 6u);
  EXPECT_EQ(group.registry().counter_value(
                "serve_shed_total", {{"reason", "tick"}, {"tenant", "bulk"}}),
            6u);
  EXPECT_EQ(group.registry().counter_value(
                "serve_shed_total", {{"reason", "tick"}, {"tenant", "care"}}),
            0u);

  // Recovery: calm feeds walk the ladder back down (dwell = 2 per rung),
  // after which bulk is served in full again and — because its reference
  // monitors only saw the served observations — every post-recovery
  // decision still matches, proving the shed ticks never half-advanced a
  // stream.
  while (group.admission().state() != serve::OverloadState::kHealthy) {
    cycle();
  }
  const auto sheds_at_recovery = care_shed + bulk_shed;
  for (int k = 0; k < 3; ++k) cycle();
  EXPECT_EQ(care_shed + bulk_shed, sheds_at_recovery);
  EXPECT_EQ(group.registry().gauge_value("serve_overload_state"), 0.0);
  // And opens work again.
  EXPECT_NO_THROW((void)group.open_session("care/late", "cawt", 0));
}

TEST(AdmissionGroup, OutcomeSpanMustMatchTheBatch) {
  serve::GroupConfig config;
  config.replicas = 1;
  config.engine.telemetry = false;
  serve::EngineGroup group(config);
  group.register_bundle(rule_bundle());
  const auto id = group.open_session("p0", "cawt", 0);
  const auto stream = testutil::synth_stream(1, 77);
  std::vector<serve::SessionInput> batch = {{id, stream[0]}};
  std::vector<monitor::Decision> decisions(1);
  std::vector<serve::TickOutcome> outcomes(2);
  EXPECT_THROW(group.feed(batch, decisions, outcomes),
               std::invalid_argument);
}

TEST(AdmissionGroup, EmptyLatencySummaryIsZeroNotNaN) {
  // Pins the HistogramSnapshot empty-percentile contract at the consumer:
  // a group that has never served a tick reports hard zeros, not NaN.
  serve::GroupConfig config;
  config.replicas = 1;
  config.engine.telemetry = false;
  serve::EngineGroup group(config);
  group.register_bundle(rule_bundle());
  const auto summary = group.latency();
  EXPECT_EQ(summary.ticks, 0u);
  EXPECT_EQ(summary.p50_us, 0.0);
  EXPECT_EQ(summary.p95_us, 0.0);
  EXPECT_EQ(summary.p99_us, 0.0);
  EXPECT_EQ(summary.max_us, 0.0);
  EXPECT_FALSE(std::isnan(summary.p99_us));
}

}  // namespace
