// Concurrency stress for the replica group, the serving plane's
// synchronized front: many frontend threads hammer open_session / feed /
// snapshot / restore / close_session on one EngineGroup while a reloader
// thread swaps model generations under them and a scraper renders the
// registry. Every worker verifies its own sessions' decision streams
// inline against standalone reference monitors, so a lost update or a
// cross-wired lane (a session reading another session's state) fails
// deterministically — and the ThreadSanitizer CI job (APS_SANITIZE=thread)
// flags any data race between the group lock, the replica workers and the
// unsynchronized engines behind them.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/group.h"
#include "synthetic_util.h"

namespace {

using namespace aps;

constexpr std::size_t kReplicas = 3;
constexpr int kWorkers = 7;       // + 1 reloader = 8 hammering threads
constexpr int kRounds = 6;        // open/feed/churn/close cycles per worker
constexpr int kSessionsPerWorker = 4;
constexpr std::size_t kSteps = 25;
constexpr int kReloads = 40;
constexpr int kCohort = 4;

using testutil::rule_bundle;

std::string patient_name(int worker, int round, int session) {
  return std::string("w")
      .append(std::to_string(worker))
      .append("-r")
      .append(std::to_string(round))
      .append("-s")
      .append(std::to_string(session));
}

TEST(ServeStress, ConcurrentChurnFeedAndReloadStaysCrossWireFree) {
  const auto bundle = rule_bundle();
  // Private registry: the final counter-consistency checks below are exact
  // only when nothing else in the process reports into the same series.
  obs::Registry registry;
  serve::GroupConfig config;
  config.replicas = kReplicas;
  config.engine.registry = &registry;
  serve::EngineGroup group(config);
  group.register_bundle(bundle);

  // Worker-side failures are collected and reported from the main thread.
  std::mutex failures_mu;
  std::vector<std::string> failures;
  const auto fail = [&](std::string message) {
    const std::lock_guard<std::mutex> lock(failures_mu);
    failures.push_back(std::move(message));
  };

  // Reloader: the bundle content is identical every time, so decisions are
  // generation-invariant and worker verification stays exact — but every
  // registration is a full registry swap on every replica racing the
  // workers.
  std::thread reloader([&] {
    for (int r = 0; r < kReloads; ++r) {
      group.register_bundle(bundle);
      std::this_thread::yield();
    }
  });

  // Scraper: renders both expositions continuously while the workers and
  // the reloader mutate every series — the TSan job verifies scrapes never
  // race the relaxed hot-path writes.
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    std::size_t scrapes = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string prom = registry.scrape_prometheus();
      const std::string json = registry.scrape_json();
      if (prom.find("serve_ticks_total") == std::string::npos ||
          json.find("\"metrics\"") == std::string::npos) {
        fail("scrape " + std::to_string(scrapes) + " missing core series");
      }
      ++scrapes;
      std::this_thread::yield();
    }
    if (scrapes == 0) fail("scraper never completed a scrape");
  });

  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      try {
        for (int round = 0; round < kRounds; ++round) {
          // Open this worker's sessions (alternating monitor kinds).
          struct Ref {
            serve::SessionId id;
            std::unique_ptr<monitor::Monitor> reference;
            std::vector<monitor::Observation> stream;
            std::size_t step = 0;
          };
          std::vector<Ref> sessions;
          for (int s = 0; s < kSessionsPerWorker; ++s) {
            const std::string kind = (s % 2 == 0) ? "cawt" : "guideline";
            const int index = (w + s) % kCohort;
            Ref ref;
            ref.id = group.open_session(patient_name(w, round, s), kind, index);
            ref.reference = core::factory_from_bundle(bundle, kind)(index);
            ref.stream = testutil::synth_stream(
                kSteps + 8, 100 + 17 * static_cast<std::uint64_t>(w) +
                                static_cast<std::uint64_t>(s));
            sessions.push_back(std::move(ref));
          }

          // Feed all sessions in lockstep batches, verifying inline.
          for (std::size_t k = 0; k < kSteps; ++k) {
            std::vector<serve::SessionInput> batch;
            for (auto& ref : sessions) {
              batch.push_back({ref.id, ref.stream[ref.step]});
            }
            std::vector<monitor::Decision> decisions(batch.size());
            group.feed(batch, decisions);
            for (std::size_t s = 0; s < sessions.size(); ++s) {
              auto& ref = sessions[s];
              const auto want = ref.reference->observe(ref.stream[ref.step]);
              ++ref.step;
              if (!testutil::decisions_equal(want, decisions[s])) {
                fail("worker " + std::to_string(w) + " round " +
                     std::to_string(round) + " session " +
                     std::to_string(s) + " step " + std::to_string(k) +
                     ": cross-wired or lost decision");
              }
            }
          }

          // Churn: snapshot -> close -> restore one session mid-stream,
          // then keep feeding it (lane compaction + re-adoption under
          // concurrent traffic).
          {
            auto& ref = sessions[static_cast<std::size_t>(round) %
                                 sessions.size()];
            const serve::SessionSnapshot snap = group.snapshot(ref.id);
            group.close_session(ref.id);
            ref.id = group.restore(snap);
            for (int extra = 0; extra < 8; ++extra) {
              const serve::SessionInput input{ref.id,
                                              ref.stream[ref.step]};
              monitor::Decision got;
              group.feed({&input, 1}, {&got, 1});
              const auto want =
                  ref.reference->observe(ref.stream[ref.step]);
              ++ref.step;
              if (!testutil::decisions_equal(want, got)) {
                fail("worker " + std::to_string(w) +
                     ": restored session diverged");
              }
            }
          }

          for (auto& ref : sessions) group.close_session(ref.id);
        }
      } catch (const std::exception& e) {
        fail("worker " + std::to_string(w) + " threw: " + e.what());
      }
    });
  }

  for (auto& worker : workers) worker.join();
  reloader.join();
  stop.store(true, std::memory_order_relaxed);
  scraper.join();

  for (const auto& message : failures) ADD_FAILURE() << message;
  EXPECT_EQ(group.session_count(), 0u);
  EXPECT_EQ(group.generation(), 1u + kReloads);
  // Total served cycles: every worker fed kSteps batched + 8 extra cycles
  // per session-churn round.
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kWorkers) * kRounds *
      (kSteps * kSessionsPerWorker + 8);
  EXPECT_EQ(group.total_cycles(), expected);

  // Engine ticks: a group feed is one tick on every replica its batch
  // touches (a restore keeps the session on its ring-owned replica), and
  // each single-input feed is one tick on the owning replica.
  std::uint64_t engine_ticks = 0;
  for (int w = 0; w < kWorkers; ++w) {
    for (int round = 0; round < kRounds; ++round) {
      std::set<std::size_t> touched;
      for (int s = 0; s < kSessionsPerWorker; ++s) {
        touched.insert(group.replica_of(patient_name(w, round, s)));
      }
      engine_ticks += kSteps * touched.size() + 8;
    }
  }

  // With the workers quiesced, the sharded relaxed-atomic counters must
  // have lost nothing: every lifecycle event reconciles exactly.
  const std::uint64_t rounds_total =
      static_cast<std::uint64_t>(kWorkers) * kRounds;
  EXPECT_EQ(registry.counter_value("serve_cycles_total"), expected);
  EXPECT_EQ(registry.counter_value("serve_ticks_total"), engine_ticks);
  EXPECT_EQ(registry.counter_value("serve_group_feeds_total"),
            rounds_total * (kSteps + 8));
  EXPECT_EQ(registry.counter_value("serve_sessions_opened_total"),
            rounds_total * kSessionsPerWorker);
  EXPECT_EQ(registry.counter_value("serve_sessions_restored_total"),
            rounds_total);
  EXPECT_EQ(registry.counter_value("serve_sessions_closed_total"),
            rounds_total * (kSessionsPerWorker + 1));
  // Every register_bundle reaches every replica once.
  EXPECT_EQ(registry.counter_value("serve_reloads_total"),
            kReplicas * (1u + kReloads));
  EXPECT_EQ(registry.gauge_value("serve_sessions_open"), 0.0);

  // Final scrape doubles as the CI metrics artifact: the workflow uploads
  // serve_stress_metrics.prom and smoke-parses the exposition.
  std::ofstream out("serve_stress_metrics.prom",
                    std::ios::binary | std::ios::trunc);
  out << registry.scrape_prometheus();
  ASSERT_TRUE(out.good());
}

// Two threads reload different models under the same monitor names at the
// same moment, many times over. A register_* call must reach every replica
// as one step: if the two calls interleave across replicas, some replicas
// end on one model and the rest on the other, at the same generation.
// After every race, one session per replica replays the same stream and
// all of them must decide alike — and like one of the two models.
TEST(ServeStress, ConcurrentReloadsLeaveEveryReplicaOnOneModel) {
  constexpr std::size_t kGroupReplicas = 4;
  constexpr int kRaces = 1000;
  constexpr std::size_t kProbeSteps = 24;

  const auto bundle_a = rule_bundle();
  auto bundle_b = rule_bundle();
  for (auto& guideline : bundle_b.artifacts.guideline_configs) {
    guideline.lambda10 -= 10.0;
  }

  // The probe stream must tell the two models apart: a steady BG between
  // the two models' 10th percentiles (and above the hard low limit) trips
  // only A's sustained-low rule.
  auto stream = testutil::synth_stream(kProbeSteps, 4242);
  for (auto& obs : stream) {
    obs.bg = 76.0;
    obs.bg_rate = 0.0;
  }
  const auto reference_decisions = [&](const core::ArtifactBundle& bundle) {
    const auto monitor = core::factory_from_bundle(bundle, "guideline")(0);
    std::vector<monitor::Decision> decisions;
    for (const auto& obs : stream) decisions.push_back(monitor->observe(obs));
    return decisions;
  };
  const auto same = [](const std::vector<monitor::Decision>& a,
                       const std::vector<monitor::Decision>& b) {
    for (std::size_t k = 0; k < a.size(); ++k) {
      if (!testutil::decisions_equal(a[k], b[k])) return false;
    }
    return true;
  };
  const auto want_a = reference_decisions(bundle_a);
  const auto want_b = reference_decisions(bundle_b);
  ASSERT_FALSE(same(want_a, want_b)) << "probe stream cannot tell A from B";

  obs::Registry registry;
  serve::GroupConfig config;
  config.replicas = kGroupReplicas;
  config.engine.registry = &registry;
  serve::EngineGroup group(config);
  group.register_bundle(bundle_a);

  // One probe patient owned by each replica.
  std::vector<std::string> probes(kGroupReplicas);
  std::size_t found = 0;
  for (int i = 0; found < kGroupReplicas; ++i) {
    const std::string id = "probe-" + std::to_string(i);
    std::string& slot = probes[group.replica_of(id)];
    if (slot.empty()) {
      slot = id;
      ++found;
    }
  }

  // Each race: both reloaders wait at the start line, register at once,
  // then meet the checker at the finish line.
  std::barrier<> line(3);
  const auto reloader = [&](const core::ArtifactBundle& bundle) {
    for (int race = 0; race < kRaces; ++race) {
      line.arrive_and_wait();
      group.register_bundle(bundle);
      line.arrive_and_wait();
    }
  };
  std::thread reload_a(reloader, std::cref(bundle_a));
  std::thread reload_b(reloader, std::cref(bundle_b));

  int split_races = 0;
  int first_split = -1;
  for (int race = 0; race < kRaces; ++race) {
    line.arrive_and_wait();
    line.arrive_and_wait();
    std::vector<serve::SessionId> ids;
    for (const auto& patient : probes) {
      ids.push_back(group.open_session(patient, "guideline", 0));
    }
    std::vector<serve::SessionInput> batch;
    for (const auto& obs : stream) {
      for (const auto id : ids) batch.push_back({id, obs});
    }
    std::vector<monitor::Decision> decisions(batch.size());
    group.feed(batch, decisions);
    for (const auto id : ids) group.close_session(id);

    std::vector<std::vector<monitor::Decision>> per_replica(kGroupReplicas);
    for (std::size_t i = 0; i < decisions.size(); ++i) {
      per_replica[i % kGroupReplicas].push_back(decisions[i]);
    }
    bool split =
        !same(per_replica[0], want_a) && !same(per_replica[0], want_b);
    for (std::size_t r = 1; r < kGroupReplicas; ++r) {
      split = split || !same(per_replica[r], per_replica[0]);
    }
    if (split) {
      ++split_races;
      if (first_split < 0) first_split = race;
    }
  }
  reload_a.join();
  reload_b.join();

  EXPECT_EQ(split_races, 0) << "replicas served different models after "
                            << split_races << " of " << kRaces
                            << " concurrent reloads (first: race "
                            << first_split << ")";
  EXPECT_EQ(group.generation(), 1u + 2u * kRaces);
}

}  // namespace
