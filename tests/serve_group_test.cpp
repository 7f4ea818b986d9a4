// Replica-sharded serving beyond stream equality (which serve_oracle_test
// pins for groups of 1, 2 and 8 replicas): stable consistent-hash routing
// and restore placement, flat RSS through heavy session churn, no
// degraded ticks with admission off, the per-replica job slot under
// back-to-back feeds that wake changing subsets of replicas, shutdown
// racing feeds, and exactly one thread per replica.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/engine.h"
#include "serve/group.h"
#include "synthetic_util.h"

namespace {

using namespace aps;

const std::vector<std::string> kKinds = {"dt", "mlp", "lstm", "cawt",
                                         "guideline"};
constexpr int kCohort = 4;

using testutil::rule_bundle;

std::unique_ptr<serve::EngineGroup> make_group(std::size_t replicas) {
  serve::GroupConfig config;
  config.replicas = replicas;
  auto group = std::make_unique<serve::EngineGroup>(config);
  group->register_bundle(testutil::tiny_bundle());
  return group;
}

std::vector<monitor::Observation> session_stream(std::size_t session,
                                                 std::size_t steps) {
  return testutil::synth_stream(steps,
                                4200 + static_cast<std::uint64_t>(session));
}

std::size_t rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t pages = 0, resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

/// Threads of this process, settled: a thread that was just joined can
/// linger in /proc/self/task for a moment, so read until two readings a
/// few milliseconds apart agree.
std::size_t settled_thread_count() {
  const auto count = [] {
    std::size_t n = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
      (void)entry;
      ++n;
    }
    return n;
  };
  std::size_t last = count();
  for (int attempt = 0; attempt < 100; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const std::size_t now = count();
    if (now == last) return now;
    last = now;
  }
  return last;
}

TEST(EngineGroup, ConsistentHashRoutingIsStable) {
  serve::GroupConfig config;
  config.replicas = 4;
  serve::EngineGroup group(config);
  group.register_bundle(rule_bundle());

  std::vector<serve::SessionId> ids;
  for (int p = 0; p < 100; ++p) {
    const std::string patient = "patient-" + std::to_string(p);
    const auto id = group.open_session(patient, "cawt", p % kCohort);
    ids.push_back(id);
    // The session id's top bits are the ring-owned replica; find_session
    // routes by the same hash.
    EXPECT_EQ(serve::EngineGroup::replica_of_session(id),
              group.replica_of(patient));
    EXPECT_EQ(group.find_session(patient), std::optional(id));
  }
  EXPECT_EQ(group.session_count(), 100u);

  // Every replica should own a non-trivial share (64 vnodes each).
  std::vector<std::size_t> owned(group.replicas(), 0);
  for (const auto id : ids) {
    owned[serve::EngineGroup::replica_of_session(id)]++;
  }
  for (std::size_t r = 0; r < owned.size(); ++r) {
    EXPECT_GT(owned[r], 0u) << "replica " << r << " owns no sessions";
  }

  // Duplicate patient ids land on the same replica and are rejected there.
  EXPECT_THROW(group.open_session("patient-7", "cawt", 0),
               std::invalid_argument);

  const auto stream = session_stream(1, 3);
  std::vector<serve::SessionInput> batch;
  for (const auto id : ids) batch.push_back({id, stream[0]});
  std::vector<monitor::Decision> decisions(batch.size());
  group.feed(batch, decisions);
  for (const auto id : ids) {
    EXPECT_EQ(group.stats(id).cycles, 1u);
  }
  for (const auto id : ids) group.close_session(id);
  EXPECT_EQ(group.session_count(), 0u);
  EXPECT_EQ(group.find_session("patient-7"), std::nullopt);
}

TEST(EngineGroup, SnapshotRestoreKeepsRingPlacement) {
  // Snapshots restored into a group with a DIFFERENT replica count land on
  // the new ring's owner. (That the restored streams continue
  // bit-identically is serve_oracle_test's resized-ring restore.)
  auto group = make_group(2);
  auto moved = make_group(3);
  for (std::size_t s = 0; s < kKinds.size(); ++s) {
    const std::string patient = "snap-p" + std::to_string(s);
    const auto id = group->open_session(patient, kKinds[s],
                                        static_cast<int>(s) % kCohort);
    for (const auto& obs : session_stream(100 + s, 8)) {
      const serve::SessionInput input{id, obs};
      monitor::Decision decision;
      group->feed({&input, 1}, {&decision, 1});
    }
    const auto restored = moved->restore(group->snapshot(id));
    EXPECT_EQ(serve::EngineGroup::replica_of_session(restored),
              moved->replica_of(patient));
    EXPECT_EQ(moved->stats(restored).cycles, 8u);
  }
}

TEST(EngineGroup, ChurnKeepsRssFlat) {
  // 10k open/close cycles against a live population: swap-with-last lane
  // compaction plus id recycling must keep resident memory flat — growth
  // between the warmed-up measurement and the end stays in allocator
  // noise, nowhere near 10k leaked lanes.
  serve::GroupConfig config;
  config.replicas = 2;
  serve::EngineGroup group(config);
  group.register_bundle(rule_bundle());

  const std::size_t kBase = 64;
  std::vector<serve::SessionId> base_ids;
  for (std::size_t s = 0; s < kBase; ++s) {
    base_ids.push_back(group.open_session("base-" + std::to_string(s), "cawt",
                                          static_cast<int>(s) % kCohort));
  }
  const auto stream = session_stream(7, 64);

  const auto churn = [&](std::size_t cycles) {
    for (std::size_t c = 0; c < cycles; ++c) {
      const auto id =
          group.open_session("churn-" + std::to_string(c % 17), "cawt",
                             static_cast<int>(c) % kCohort);
      if (c % 16 == 0) {
        std::vector<serve::SessionInput> batch;
        for (const auto bid : base_ids) batch.push_back({bid, stream[c % 64]});
        batch.push_back({id, stream[c % 64]});
        std::vector<monitor::Decision> decisions(batch.size());
        group.feed(batch, decisions);
      }
      group.close_session(id);
    }
  };

  churn(1000);  // warm up allocator pools, scratch buffers, series
  const std::size_t warmed = rss_bytes();
  churn(10000);
  const std::size_t after = rss_bytes();
  EXPECT_EQ(group.session_count(), kBase);

  const std::size_t growth = after > warmed ? after - warmed : 0;
  EXPECT_LT(growth, 8u * 1024 * 1024)
      << "RSS grew " << growth / 1024 << " KiB across 10k open/close cycles";
}

TEST(EngineGroup, OneThreadPerReplica) {
  // The replica worker is the only unit of serving parallelism: an
  // N-replica group adds exactly N threads to the process, and its replica
  // engines add none. Counted as a delta, so threads the runtime or an
  // emulator already started do not matter.
  for (const std::size_t replicas : {1u, 3u}) {
    const std::size_t before = settled_thread_count();
    serve::GroupConfig config;
    config.replicas = replicas;
    serve::EngineGroup group(config);
    group.register_bundle(rule_bundle());
    EXPECT_EQ(settled_thread_count() - before, replicas)
        << replicas << "-replica group";
  }
}

TEST(EngineGroup, NoDegradedTicksWithAdmissionOff) {
  // Admission is the only degrade signal, and it is off by default: every
  // tick serves the primary monitors, so the degraded counter stays zero.
  auto group = make_group(2);
  std::vector<serve::SessionId> ids;
  for (std::size_t s = 0; s < 6; ++s) {
    ids.push_back(group->open_session("dl-p" + std::to_string(s), "lstm",
                                      static_cast<int>(s) % kCohort));
  }
  const auto stream = session_stream(55, 30);
  std::vector<monitor::Decision> decisions(ids.size());
  for (std::size_t k = 0; k < 30; ++k) {
    std::vector<serve::SessionInput> batch;
    for (const auto id : ids) batch.push_back({id, stream[k]});
    group->feed(batch, decisions);
  }
  EXPECT_EQ(group->latency().degraded_ticks, 0u);
}

TEST(EngineGroup, FeedsRacingShutdownFailCleanlyNotCrash) {
  // Several frontend threads hammer feed() while the main thread calls
  // shutdown() mid-flight: every in-flight feed must complete its barrier,
  // every later feed must fail with ShutdownError (nothing enqueued, no
  // hang on a joined worker), and a second shutdown() is a no-op. Runs
  // under the TSan CI job via the "threads" label.
  serve::GroupConfig config;
  config.replicas = 4;
  config.engine.telemetry = false;
  auto group = std::make_unique<serve::EngineGroup>(config);
  group->register_bundle(rule_bundle());

  constexpr int kThreads = 4;
  constexpr std::size_t kSessionsPerThread = 4;
  std::vector<std::vector<serve::SessionInput>> batches(kThreads);
  std::vector<std::vector<monitor::Observation>> streams(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    streams[t] = session_stream(static_cast<std::size_t>(t), 1);
    for (std::size_t s = 0; s < kSessionsPerThread; ++s) {
      const auto id = group->open_session(
          "hammer" + std::to_string(t) + "/p" + std::to_string(s), "cawt",
          static_cast<int>(s) % kCohort);
      batches[t].push_back({id, streams[t][0]});
    }
  }

  std::atomic<std::uint64_t> served{0};
  std::atomic<int> refused{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<monitor::Decision> decisions(batches[t].size());
      for (;;) {
        try {
          group->feed(batches[t], decisions);
          served.fetch_add(1, std::memory_order_relaxed);
        } catch (const serve::ShutdownError&) {
          refused.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  // Let real feeds overlap the shutdown before pulling the plug.
  while (served.load(std::memory_order_relaxed) < 64) {
    std::this_thread::yield();
  }
  group->shutdown();
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(refused.load(), kThreads);
  EXPECT_GE(served.load(), 64u);

  // The group object is still alive: late feeds keep failing cleanly and
  // shutdown stays idempotent.
  std::vector<monitor::Decision> decisions(batches[0].size());
  EXPECT_THROW(group->feed(batches[0], decisions), serve::ShutdownError);
  EXPECT_NO_THROW(group->shutdown());
}

TEST(EngineGroup, SlotHandOffSurvivesBackToBackFeedsOnChangingReplicas) {
  // Thousands of back-to-back feeds, each waking a different subset of a
  // 4-replica group's workers: one replica, two, all four, or one replica
  // with several inputs of one session. A replica a feed skips must not
  // re-run its stale slot on its next wake, and a wake must never be lost
  // (a lost one hangs the barrier until the ctest timeout). Every decision
  // must match a single reference engine fed the same inputs, and the
  // group must count exactly one cycle per input served. Runs under the
  // TSan CI job via the "threads" label.
  serve::GroupConfig config;
  config.replicas = 4;
  config.engine.telemetry = false;
  serve::EngineGroup group(config);
  group.register_bundle(testutil::tiny_bundle());
  serve::MonitorEngine reference({.registry = nullptr, .telemetry = false});
  reference.register_bundle(testutil::tiny_bundle());

  constexpr std::size_t kSessions = 24;
  constexpr std::size_t kStreamSteps = 64;
  std::vector<serve::SessionId> ids, ref_ids;
  std::vector<std::vector<monitor::Observation>> streams;
  std::vector<std::vector<std::size_t>> owned(group.replicas());
  for (std::size_t s = 0; s < kSessions; ++s) {
    const std::string patient = "slot-p" + std::to_string(s);
    const std::string& kind = kKinds[s % kKinds.size()];
    const int index = static_cast<int>(s) % kCohort;
    ids.push_back(group.open_session(patient, kind, index));
    ref_ids.push_back(reference.open_session(patient, kind, index));
    streams.push_back(session_stream(300 + s, kStreamSteps));
    owned[serve::EngineGroup::replica_of_session(ids.back())].push_back(s);
  }
  for (std::size_t r = 0; r < owned.size(); ++r) {
    ASSERT_FALSE(owned[r].empty()) << "replica " << r << " owns no session";
  }

  std::vector<std::size_t> cursor(kSessions, 0);
  std::vector<serve::SessionInput> batch, ref_batch;
  const auto add = [&](std::size_t s) {
    const auto& obs = streams[s][cursor[s]++ % kStreamSteps];
    batch.push_back({ids[s], obs});
    ref_batch.push_back({ref_ids[s], obs});
  };
  const auto add_replica = [&](std::size_t r) {
    for (const std::size_t s : owned[r % owned.size()]) add(s);
  };

  constexpr std::size_t kFeeds = 4000;
  std::uint64_t served = 0;
  for (std::size_t k = 0; k < kFeeds; ++k) {
    batch.clear();
    ref_batch.clear();
    const std::size_t r = k / 4;
    switch (k % 4) {
      case 0:  // one replica
        add_replica(r);
        break;
      case 1:  // two replicas
        add_replica(r);
        add_replica(r + 1);
        break;
      case 2:  // every replica
        for (std::size_t all = 0; all < owned.size(); ++all) add_replica(all);
        break;
      default: {  // several inputs of one session
        const auto& sessions = owned[(r + 2) % owned.size()];
        const std::size_t s = sessions[k % sessions.size()];
        for (int repeat = 0; repeat < 3; ++repeat) add(s);
        break;
      }
    }
    std::vector<monitor::Decision> got(batch.size());
    group.feed(batch, got);
    const auto want = testutil::feed(reference, ref_batch);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(testutil::decisions_equal(want[i], got[i]))
          << "feed " << k << " input " << i;
    }
    served += batch.size();
  }
  EXPECT_EQ(group.total_cycles(), served);
  EXPECT_EQ(reference.total_cycles(), served);
  for (std::size_t s = 0; s < kSessions; ++s) {
    EXPECT_EQ(group.stats(ids[s]).cycles, cursor[s]) << "session " << s;
  }
}

}  // namespace
