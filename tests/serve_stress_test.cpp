// Concurrency stress for the internally synchronized serving engine: many
// frontend threads hammer open_session / feed / snapshot / restore /
// close_session while a reloader thread swaps model generations under
// them. Every worker verifies its own sessions' decision streams inline
// against standalone reference monitors, so a lost update or a cross-wired
// lane (a session reading another session's state) fails deterministically
// — and the ThreadSanitizer CI job (APS_SANITIZE=thread) flags any data
// race on the shared registry/shard state.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/engine.h"
#include "synthetic_util.h"

namespace {

using namespace aps;

constexpr int kWorkers = 7;       // + 1 reloader = 8 hammering threads
constexpr int kRounds = 6;        // open/feed/churn/close cycles per worker
constexpr int kSessionsPerWorker = 4;
constexpr std::size_t kSteps = 25;
constexpr int kReloads = 40;
constexpr int kCohort = 4;

using testutil::rule_bundle;

TEST(ServeStress, ConcurrentChurnFeedAndReloadStaysCrossWireFree) {
  const auto bundle = rule_bundle();
  // Private registry: the final counter-consistency checks below are exact
  // only when nothing else in the process reports into the same series.
  obs::Registry registry;
  serve::MonitorEngine engine({.registry = &registry});
  engine.register_bundle(bundle);

  // Worker-side failures are collected and reported from the main thread.
  std::mutex failures_mu;
  std::vector<std::string> failures;
  const auto fail = [&](std::string message) {
    const std::lock_guard<std::mutex> lock(failures_mu);
    failures.push_back(std::move(message));
  };

  // Reloader: the bundle content is identical every time, so decisions are
  // generation-invariant and worker verification stays exact — but every
  // registration is a full atomic registry swap racing the workers.
  std::thread reloader([&] {
    for (int r = 0; r < kReloads; ++r) {
      engine.register_bundle(bundle);
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
            const std::string patient = "w" + std::to_string(w) + "-r" +
                                        std::to_string(round) + "-s" +
                                        std::to_string(s);
            Ref ref;
            ref.id = engine.open_session(patient, kind, index);
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
            const auto decisions = engine.feed(batch);
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
            const serve::SessionSnapshot snap = engine.snapshot(ref.id);
            engine.close_session(ref.id);
            ref.id = engine.restore(snap);
            for (int extra = 0; extra < 8; ++extra) {
              const auto got = engine.feed_one(ref.id, ref.stream[ref.step]);
              const auto want =
                  ref.reference->observe(ref.stream[ref.step]);
              ++ref.step;
              if (!testutil::decisions_equal(want, got)) {
                fail("worker " + std::to_string(w) +
                     ": restored session diverged");
              }
            }
          }

          for (auto& ref : sessions) engine.close_session(ref.id);
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
  EXPECT_EQ(engine.session_count(), 0u);
  EXPECT_EQ(engine.generation(), 1u + kReloads);
  // Total served cycles: every worker fed kSteps batched + 8 extra cycles
  // per session-churn round.
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kWorkers) * kRounds *
      (kSteps * kSessionsPerWorker + 8);
  EXPECT_EQ(engine.total_cycles(), expected);

  // With the workers quiesced, the sharded relaxed-atomic counters must
  // have lost nothing: every lifecycle event reconciles exactly.
  const std::uint64_t rounds_total =
      static_cast<std::uint64_t>(kWorkers) * kRounds;
  EXPECT_EQ(registry.counter_value("serve_cycles_total"), expected);
  EXPECT_EQ(registry.counter_value("serve_ticks_total"),
            rounds_total * kSteps + rounds_total * 8);
  EXPECT_EQ(registry.counter_value("serve_sessions_opened_total"),
            rounds_total * kSessionsPerWorker);
  EXPECT_EQ(registry.counter_value("serve_sessions_restored_total"),
            rounds_total);
  EXPECT_EQ(registry.counter_value("serve_sessions_closed_total"),
            rounds_total * (kSessionsPerWorker + 1));
  EXPECT_EQ(registry.counter_value("serve_reloads_total"), 1u + kReloads);
  EXPECT_EQ(registry.gauge_value("serve_sessions_open"), 0.0);

  // Final scrape doubles as the CI metrics artifact: the workflow uploads
  // serve_stress_metrics.prom and smoke-parses the exposition.
  std::ofstream out("serve_stress_metrics.prom",
                    std::ios::binary | std::ios::trunc);
  out << registry.scrape_prometheus();
  ASSERT_TRUE(out.good());
}

}  // namespace
