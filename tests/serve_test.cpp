// MonitorEngine: the session registry, snapshot machinery, hot reload,
// latency summaries and telemetry must behave. That multi-session
// streaming is indistinguishable from one scalar monitor per session fed
// sequentially is serve_oracle_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "monitor/ml_monitor.h"
#include "serve/engine.h"
#include "synthetic_util.h"

namespace {

using namespace aps;

using testutil::rule_bundle;

TEST(ServeEngine, RegistryOpensFindsAndCloses) {
  serve::MonitorEngine engine;
  engine.register_bundle(rule_bundle());

  const auto alice = engine.open_session("alice", "cawt", 0);
  const auto bob = engine.open_session("bob", "guideline", 1);
  EXPECT_EQ(engine.session_count(), 2u);
  EXPECT_EQ(engine.find_session("alice"), alice);
  EXPECT_EQ(engine.find_session("bob"), bob);
  EXPECT_FALSE(engine.find_session("carol").has_value());

  EXPECT_THROW((void)engine.open_session("alice", "cawt", 0),
               std::invalid_argument);
  EXPECT_THROW((void)engine.open_session("carol", "no-such-monitor", 0),
               std::invalid_argument);
  // patient_index outside the bundle's cohort must throw, not read OOB.
  EXPECT_THROW((void)engine.open_session("carol", "cawt", 99),
               std::out_of_range);
  EXPECT_THROW((void)engine.open_session("carol", "cawot", -1),
               std::out_of_range);

  engine.close_session(alice);
  EXPECT_EQ(engine.session_count(), 1u);
  EXPECT_FALSE(engine.find_session("alice").has_value());
  // The name is free again and the slot is recycled.
  EXPECT_NO_THROW((void)engine.open_session("alice", "cawt", 2));
}

TEST(ServeEngine, FeedNamingAClosedSessionThrowsAndMovesNothing) {
  // A batch naming an open session and a closed one throws before any
  // input is processed: the open session's cycles, the engine's total and
  // the open session's next decisions all match a twin engine that never
  // saw the batch. The LSTM's window makes a swallowed input visible.
  serve::MonitorEngine engine;
  serve::MonitorEngine twin;
  engine.register_bundle(testutil::tiny_bundle());
  twin.register_bundle(testutil::tiny_bundle());
  const auto open = engine.open_session("open", "lstm", 0);
  const auto closed = engine.open_session("closed", "cawt", 1);
  const auto twin_open = twin.open_session("open", "lstm", 0);
  const auto stream = testutil::synth_stream(16, 47);
  const auto tick = [&](serve::MonitorEngine& e, serve::SessionId id,
                        std::size_t k) {
    const serve::SessionInput input{id, stream[k]};
    return testutil::feed(e, {&input, 1})[0];
  };
  for (std::size_t k = 0; k < 4; ++k) {
    (void)tick(engine, open, k);
    (void)tick(twin, twin_open, k);
  }
  engine.close_session(closed);

  const std::vector<serve::SessionInput> batch = {{open, stream[4]},
                                                  {closed, stream[4]}};
  EXPECT_THROW((void)testutil::feed(engine, batch), std::out_of_range);
  EXPECT_EQ(engine.stats(open).cycles, twin.stats(twin_open).cycles);
  EXPECT_EQ(engine.total_cycles(), twin.total_cycles());
  for (std::size_t k = 4; k < stream.size(); ++k) {
    EXPECT_TRUE(testutil::decisions_equal(tick(engine, open, k),
                                          tick(twin, twin_open, k)))
        << "cycle " << k;
  }
}

TEST(ServeEngine, RejectsAThreadPoolSize) {
  // An engine serves on its caller's thread; parallelism is replicas.
  EXPECT_NO_THROW(serve::MonitorEngine({.threads = 1}));
  EXPECT_THROW(serve::MonitorEngine({.threads = 2}), std::invalid_argument);
}

TEST(ServeEngine, SnapshotCarriesTheSessionIntoAFreshEngine) {
  // Identity and stats travel with a snapshot; that the restored stream
  // continues bit-identically is serve_oracle_test's restore op.
  const auto bundle = rule_bundle(2);
  serve::MonitorEngine engine;
  engine.register_bundle(bundle);
  const auto id = engine.open_session("snap", "guideline", 1);
  for (const auto& obs : testutil::synth_stream(60, 123)) {
    const serve::SessionInput input{id, obs};
    (void)testutil::feed(engine, {&input, 1});
  }

  const serve::SessionSnapshot snap = engine.snapshot(id);
  EXPECT_EQ(snap.patient_id, "snap");
  EXPECT_EQ(snap.monitor_name, "guideline");
  EXPECT_EQ(snap.patient_index, 1);
  EXPECT_EQ(snap.stats.cycles, 60u);

  // The restoring engine must know the monitor (restore validates the name
  // and patient_index against its registry before recreating the session).
  serve::MonitorEngine fresh;
  fresh.register_bundle(bundle);
  const auto restored = fresh.restore(snap);
  EXPECT_EQ(fresh.find_session("snap"), restored);
  EXPECT_EQ(fresh.stats(restored).cycles, 60u);
  EXPECT_THROW((void)fresh.restore(snap), std::invalid_argument);
}

TEST(ServeEngine, RestoreRejectsStaleRegistry) {
  // A snapshot taken against one registry shape must not crash an engine
  // whose registry has since changed: unknown monitor names and
  // out-of-cohort patient indices surface as clear errors.
  serve::MonitorEngine engine;
  engine.register_bundle(rule_bundle(4));
  const auto id = engine.open_session("pat", "cawt", 3);
  for (const auto& obs : testutil::synth_stream(20, 5)) {
    const serve::SessionInput input{id, obs};
    (void)testutil::feed(engine, {&input, 1});
  }
  const serve::SessionSnapshot snap = engine.snapshot(id);

  // Empty registry: the monitor name no longer exists.
  serve::MonitorEngine empty;
  EXPECT_THROW((void)empty.restore(snap), std::invalid_argument);

  // Registered, but the cohort shrank below the snapshot's patient_index.
  serve::MonitorEngine small;
  small.register_bundle(rule_bundle(2));
  EXPECT_THROW((void)small.restore(snap), std::out_of_range);

  // A matching registry restores fine (and the original keeps serving).
  serve::MonitorEngine fresh;
  fresh.register_bundle(rule_bundle(4));
  EXPECT_NO_THROW((void)fresh.restore(snap));
  EXPECT_EQ(engine.stats(id).cycles, 20u);
}

namespace {

/// Fixed-decision monitor for generation tests: old and new registrations
/// are distinguishable by whether they alarm.
class FixedMonitor final : public monitor::Monitor {
 public:
  explicit FixedMonitor(bool alarm) : alarm_(alarm) {}
  void reset() override {}
  [[nodiscard]] monitor::Decision observe(
      const monitor::Observation&) override {
    monitor::Decision d;
    d.alarm = alarm_;
    if (alarm_) d.predicted = HazardType::kH1TooMuchInsulin;
    return d;
  }
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] std::unique_ptr<monitor::Monitor> clone() const override {
    return std::make_unique<FixedMonitor>(alarm_);
  }

 private:
  bool alarm_;
  std::string name_ = "fixed";
};

}  // namespace

TEST(ServeEngine, HotReloadKeepsLiveSessionsOnTheirGeneration) {
  serve::MonitorEngine engine;
  engine.register_monitor("m", [](int) {
    return std::make_unique<FixedMonitor>(false);
  });
  const auto gen1 = engine.generation();
  const auto old_session = engine.open_session("old", "m", 0);

  // Re-register "m" with a distinguishable new generation.
  engine.register_monitor("m", [](int) {
    return std::make_unique<FixedMonitor>(true);
  });
  EXPECT_GT(engine.generation(), gen1);
  const auto new_session = engine.open_session("new", "m", 0);

  // Live sessions keep the generation they opened with; new sessions pick
  // up the reloaded model — in one mixed feed batch.
  const std::vector<serve::SessionInput> batch = {{old_session, {}},
                                                  {new_session, {}}};
  const auto decisions = testutil::feed(engine, batch);
  EXPECT_FALSE(decisions[0].alarm) << "old session jumped generations";
  EXPECT_TRUE(decisions[1].alarm) << "new session missed the reload";
}

TEST(ServeEngine, LatencySummaryCountsTicksAndCycles) {
  serve::MonitorEngine engine;
  engine.register_bundle(rule_bundle(2));
  const auto a = engine.open_session("a", "cawt", 0);
  const auto b = engine.open_session("b", "guideline", 1);

  const auto stream = testutil::synth_stream(30, 3);
  for (const auto& obs : stream) {
    const std::vector<serve::SessionInput> batch = {{a, obs}, {b, obs}};
    (void)testutil::feed(engine, batch);
  }
  const serve::LatencySummary summary = engine.latency();
  EXPECT_EQ(summary.ticks, stream.size());
  EXPECT_EQ(summary.cycles, 2 * stream.size());
  EXPECT_GT(summary.seconds, 0.0);
  EXPECT_GT(summary.cycles_per_sec(), 0.0);
  EXPECT_LE(summary.p50_us, summary.p95_us);
  EXPECT_LE(summary.p95_us, summary.p99_us);

  engine.reset_latency();
  EXPECT_EQ(engine.latency().ticks, 0u);
  EXPECT_EQ(engine.total_cycles(), 2 * stream.size())
      << "latency reset must not clear served-cycle accounting";
}

TEST(ServeEngine, TelemetryCountersTrackEngineLifecycle) {
  // A private registry isolates the series this engine emits from the
  // process-global one other tests (and the sim layer) write into.
  obs::Registry registry;
  serve::MonitorEngine engine({.registry = &registry});
  engine.register_bundle(rule_bundle(2));
  EXPECT_EQ(registry.counter_value("serve_reloads_total"), 1u);
  EXPECT_EQ(registry.gauge_value("serve_generation"),
            static_cast<double>(engine.generation()));

  const auto a = engine.open_session("a", "cawt", 0);
  const auto b = engine.open_session("b", "guideline", 1);
  EXPECT_EQ(registry.counter_value("serve_sessions_opened_total"), 2u);
  EXPECT_EQ(registry.gauge_value("serve_sessions_open"), 2.0);

  const auto stream = testutil::synth_stream(25, 11);
  for (const auto& obs : stream) {
    const std::vector<serve::SessionInput> batch = {{a, obs}, {b, obs}};
    (void)testutil::feed(engine, batch);
  }
  EXPECT_EQ(registry.counter_value("serve_ticks_total"), stream.size());
  EXPECT_EQ(registry.counter_value("serve_cycles_total"), 2 * stream.size());

  engine.reset_session(a);
  EXPECT_EQ(registry.counter_value("serve_session_resets_total"), 1u);

  const serve::SessionSnapshot snap = engine.snapshot(b);
  engine.close_session(b);
  EXPECT_EQ(registry.counter_value("serve_sessions_closed_total"), 1u);
  EXPECT_EQ(registry.gauge_value("serve_sessions_open"), 1.0);
  (void)engine.restore(snap);
  EXPECT_EQ(registry.counter_value("serve_sessions_restored_total"), 1u);
  EXPECT_EQ(registry.gauge_value("serve_sessions_open"), 2.0);

  // A hot reload bumps the reload counter and the generation gauge.
  engine.register_bundle(rule_bundle(2));
  EXPECT_EQ(registry.counter_value("serve_reloads_total"), 2u);
  EXPECT_EQ(registry.gauge_value("serve_generation"),
            static_cast<double>(engine.generation()));

  // The tick latency histogram carries every feed() call and shows up in
  // both expositions.
  const std::string prom = registry.scrape_prometheus();
  EXPECT_NE(prom.find("serve_tick_latency_us_count"), std::string::npos);
  EXPECT_NE(prom.find("serve_shard_tick_latency_us"), std::string::npos);
  EXPECT_NE(prom.find("serve_phase_us"), std::string::npos);
  const std::string json = registry.scrape_json();
  EXPECT_NE(json.find("\"serve_tick_latency_us\""), std::string::npos);
}

TEST(ServeEngine, TelemetryOffUsesPrivateRegistryAndStaysCorrect) {
  // telemetry=false must not leak serving series into the global registry,
  // and decisions must stay identical to the telemetry=true engine.
  const auto bundle = rule_bundle(2);
  const auto before =
      obs::Registry::global().counter_value("serve_ticks_total");
  serve::MonitorEngine quiet({.telemetry = false});
  quiet.register_bundle(bundle);
  serve::MonitorEngine loud;
  loud.register_bundle(bundle);

  const auto qa = quiet.open_session("a", "cawt", 0);
  const auto la = loud.open_session("a", "cawt", 0);
  for (const auto& obs : testutil::synth_stream(40, 21)) {
    const serve::SessionInput q{qa, obs};
    const serve::SessionInput l{la, obs};
    EXPECT_TRUE(testutil::decisions_equal(testutil::feed(quiet, {&q, 1})[0],
                                          testutil::feed(loud, {&l, 1})[0]));
  }
  EXPECT_EQ(obs::Registry::global().counter_value("serve_ticks_total"),
            before + 40)
      << "only the telemetry=true engine reports into the global registry";
  // The mandatory series still exist on the quiet engine's own registry.
  EXPECT_EQ(quiet.registry().counter_value("serve_ticks_total"), 40u);
}

TEST(ServeEngine, DriftAlertsFireOnDistributionShiftOnly) {
  // Seed the bundle with training-time feature stats, then stream (a) data
  // from the training distribution and (b) a shifted distribution: only
  // the shift may raise drift_alerts_total.
  core::ArtifactBundle bundle = rule_bundle(2);
  {
    const auto train = testutil::synth_stream(4000, 404);
    std::vector<double> rows;
    rows.reserve(train.size() * monitor::kMlFeatureCount);
    for (const auto& obs : train) {
      const auto features = monitor::ml_features(obs);
      rows.insert(rows.end(), features.begin(), features.end());
    }
    bundle.training_stats = std::make_shared<const obs::TrainingStats>(
        obs::training_stats_from_samples(monitor::kMlFeatureCount, rows));
  }
  // 8 sessions x 60 ticks with independent streams = 480 distinct draws;
  // the 256-sample gate then sits at ~8 standard errors of the training
  // mean, so the unshifted run stays deterministically below threshold.
  // sample_every_ticks = 1: this suite feeds only 60 ticks, so the
  // production default (temporal sampling every 16th tick) would starve
  // the 256-sample gate.
  const obs::DriftConfig drift = {.min_samples = 256,
                                  .threshold = 0.5,
                                  .clear_factor = 0.8,
                                  .stride = 1,
                                  .sample_every_ticks = 1};

  const auto run = [&](bool shifted) {
    auto registry = std::make_unique<obs::Registry>();
    serve::MonitorEngine engine({.registry = registry.get(), .drift = drift});
    engine.register_bundle(bundle);
    std::vector<serve::SessionId> ids;
    std::vector<std::vector<monitor::Observation>> streams;
    for (int s = 0; s < 8; ++s) {
      ids.push_back(
          engine.open_session(std::string("p").append(std::to_string(s)),
                              "guideline", s % 2));
      streams.push_back(
          testutil::synth_stream(60, 505 + static_cast<std::uint64_t>(s)));
      if (shifted) {
        for (auto& obs : streams.back()) {
          obs.bg += 300.0;  // ~3.7 training sigmas
        }
      }
    }
    for (std::size_t k = 0; k < 60; ++k) {
      std::vector<serve::SessionInput> batch;
      for (std::size_t s = 0; s < ids.size(); ++s) {
        batch.push_back({ids[s], streams[s][k]});
      }
      (void)testutil::feed(engine, batch);
    }
    struct Result {
      std::uint64_t alerts;
      std::uint64_t samples;
      double score;
    };
    return Result{registry->counter_value("drift_alerts_total"),
                  registry->counter_value("drift_samples_total"),
                  registry->gauge_value("serve_drift_score",
                                        {{"shard", "guideline@g1"}})};
  };

  const auto clean = run(false);
  EXPECT_EQ(clean.alerts, 0u) << "in-distribution stream must not alert";
  EXPECT_GT(clean.samples, drift.min_samples);
  EXPECT_LT(clean.score, drift.threshold);

  const auto shift = run(true);
  EXPECT_GE(shift.alerts, 1u) << "a 3.7-sigma bg shift must alert";
  EXPECT_GT(shift.score, drift.threshold);
}

TEST(ServeEngine, LatencySummaryReportsMaxAndPerShardBreakdown) {
  obs::Registry registry;
  serve::MonitorEngine engine({.registry = &registry});
  engine.register_bundle(rule_bundle(2));
  const auto a = engine.open_session("a", "cawt", 0);
  const auto b = engine.open_session("b", "guideline", 1);
  for (const auto& obs : testutil::synth_stream(30, 9)) {
    const std::vector<serve::SessionInput> batch = {{a, obs}, {b, obs}};
    (void)testutil::feed(engine, batch);
  }

  const serve::LatencySummary summary = engine.latency();
  EXPECT_GT(summary.max_us, 0.0);
  EXPECT_GE(summary.max_us, summary.p99_us)
      << "max must bound every percentile";

  ASSERT_EQ(summary.shards.size(), 2u);
  std::vector<std::string> labels;
  for (const auto& shard : summary.shards) {
    labels.push_back(shard.shard);
    EXPECT_GT(shard.chunks, 0u);
    EXPECT_GT(shard.max_us, 0.0);
    EXPECT_GE(shard.max_us, shard.p99_us);
    EXPECT_LE(shard.p50_us, shard.p95_us);
  }
  EXPECT_NE(std::find(labels.begin(), labels.end(), "cawt@g1"), labels.end());
  EXPECT_NE(std::find(labels.begin(), labels.end(), "guideline@g1"),
            labels.end());

  engine.reset_latency();
  EXPECT_EQ(engine.latency().max_us, 0.0);
  EXPECT_TRUE(engine.latency().shards.empty());
}

TEST(ServeEngine, RegisterBundleExposesRuleMonitors) {
  serve::MonitorEngine engine;
  engine.register_bundle(rule_bundle());
  const auto names = engine.registered_monitors();
  for (const std::string expected :
       {"none", "guideline", "mpc", "cawot", "cawt", "cawt-population"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing monitor '" << expected << "'";
  }
}

}  // namespace
