// Listfile record/replay suite: record round-trips, sync cadence, replay
// verification that notices a different model, per-byte truncation and
// random corruption in io_corruption_test style — IoError every time, no
// crash. The golden replay itself (a recorded live run re-driven through
// a fresh group reproduces every decision) is serve_oracle_test's
// tcp_replay target.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/listfile.h"
#include "net/protocol.h"
#include "serve/engine.h"
#include "serve/group.h"
#include "synthetic_util.h"

namespace {

using namespace aps;

constexpr int kCohort = 4;

using testutil::rule_bundle;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void dump(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(NetListfile, RecordsRoundTripInOrder) {
  const std::string path = temp_path("aps_listfile_roundtrip.listfile");
  Rng rng(7);
  const auto obs = testutil::synth_observation(rng, 5.0);
  monitor::Decision decision;
  decision.alarm = true;
  decision.predicted = HazardType::kH2TooLittleInsulin;
  decision.rule_id = 3;
  {
    net::ListfileWriter writer(path);
    writer.record_open({.key = 11,
                        .patient_id = "p/0",
                        .monitor = "cawt",
                        .patient_index = 2});
    writer.record_tick({.key = 11, .seq = 0, .obs = obs});
    writer.record_decision({.key = 11, .seq = 0, .decision = decision});
    writer.record_close({.key = 11});
    writer.finish();
    EXPECT_EQ(writer.records(), 4u);
  }
  net::ListfileReader reader(path);
  auto r1 = reader.next();
  ASSERT_TRUE(r1 && r1->kind == net::RecordKind::kOpen);
  EXPECT_EQ(r1->open.key, 11u);
  EXPECT_EQ(r1->open.patient_id, "p/0");
  EXPECT_EQ(r1->open.monitor, "cawt");
  EXPECT_EQ(r1->open.patient_index, 2);
  auto r2 = reader.next();
  ASSERT_TRUE(r2 && r2->kind == net::RecordKind::kTick);
  EXPECT_EQ(r2->tick.seq, 0u);
  EXPECT_EQ(r2->tick.obs.bg, obs.bg);
  EXPECT_EQ(r2->tick.obs.action, obs.action);
  auto r3 = reader.next();
  ASSERT_TRUE(r3 && r3->kind == net::RecordKind::kDecision);
  EXPECT_TRUE(r3->decision.decision.alarm);
  EXPECT_EQ(r3->decision.decision.predicted,
            HazardType::kH2TooLittleInsulin);
  EXPECT_EQ(r3->decision.decision.rule_id, 3);
  auto r4 = reader.next();
  ASSERT_TRUE(r4 && r4->kind == net::RecordKind::kClose);
  EXPECT_EQ(r4->close.key, 11u);
  auto r5 = reader.next();
  ASSERT_TRUE(r5 && r5->kind == net::RecordKind::kSync);
  EXPECT_EQ(r5->sync.records, 4u);
  EXPECT_FALSE(reader.next().has_value());
  std::remove(path.c_str());
}

TEST(NetListfile, SyncRecordsAppearOnCadenceWithRunningCounts) {
  const std::string path = temp_path("aps_listfile_sync.listfile");
  Rng rng(9);
  const auto obs = testutil::synth_observation(rng, 0.0);
  {
    net::ListfileWriter writer(path);
    for (std::uint64_t i = 0; i < 600; ++i) {
      writer.record_tick({.key = 1, .seq = i, .obs = obs});
    }
    writer.finish();
  }
  net::ListfileReader reader(path);
  std::vector<std::uint64_t> syncs;
  std::uint64_t ticks = 0;
  while (auto record = reader.next()) {
    if (record->kind == net::RecordKind::kSync) {
      syncs.push_back(record->sync.records);
    } else {
      ++ticks;
    }
  }
  EXPECT_EQ(ticks, 600u);
  ASSERT_EQ(syncs.size(), 3u);  // 256, 512, final
  EXPECT_EQ(syncs[0], 256u);
  EXPECT_EQ(syncs[1], 512u);
  EXPECT_EQ(syncs[2], 600u);
  std::remove(path.c_str());
}

/// Record a live serving run the way the ingest server does: opens, ticks
/// in engine-consumption order, the decisions each batch produced, closes.
/// Returns the recorded decision count.
std::uint64_t record_live_run(serve::MonitorEngine& engine,
                              const std::string& path,
                              std::size_t sessions, std::size_t steps) {
  net::ListfileWriter writer(path);
  const std::vector<std::string> monitors = {"guideline", "cawot", "cawt"};
  struct Live {
    serve::SessionId id;
    std::vector<monitor::Observation> stream;
  };
  std::vector<Live> live;
  for (std::size_t s = 0; s < sessions; ++s) {
    const std::string& monitor_name = monitors[s % monitors.size()];
    const auto id = engine.open_session(
        "golden/session" + std::to_string(s), monitor_name,
        static_cast<int>(s % kCohort));
    writer.record_open({.key = id,
                        .patient_id = "golden/session" + std::to_string(s),
                        .monitor = monitor_name,
                        .patient_index = static_cast<int>(s % kCohort)});
    live.push_back({id, testutil::synth_stream(steps, 1000 + s)});
  }
  std::uint64_t decisions_recorded = 0;
  std::vector<serve::SessionInput> batch;
  for (std::size_t k = 0; k < steps; ++k) {
    batch.clear();
    for (const auto& session : live) {
      batch.push_back({session.id, session.stream[k]});
      writer.record_tick({.key = session.id,
                          .seq = k,
                          .obs = session.stream[k]});
    }
    const auto decisions = testutil::feed(engine, batch);
    for (std::size_t i = 0; i < decisions.size(); ++i) {
      writer.record_decision({.key = batch[i].session,
                              .seq = k,
                              .decision = decisions[i]});
      ++decisions_recorded;
    }
  }
  for (const auto& session : live) {
    writer.record_close({.key = session.id});
    engine.close_session(session.id);
  }
  writer.finish();
  return decisions_recorded;
}

TEST(NetListfile, ReplayVerificationCatchesADifferentModel) {
  // Replaying against a group carrying DIFFERENT thresholds must be caught
  // by the verification pass, not silently accepted. (That a replay into
  // the recording's own bundle reproduces every decision is
  // serve_oracle_test's tcp_replay target.)
  const std::string path = temp_path("aps_listfile_golden.listfile");
  constexpr std::size_t kSessions = 9;
  constexpr std::size_t kSteps = 40;
  serve::MonitorEngine live;
  live.register_bundle(rule_bundle());
  ASSERT_EQ(record_live_run(live, path, kSessions, kSteps),
            kSessions * kSteps);

  core::ArtifactBundle skewed;
  skewed.artifacts = testutil::synth_artifacts(kCohort);
  for (auto& thresholds : skewed.artifacts.patient_thresholds) {
    for (auto& [param, value] : thresholds) value += 40.0;
  }
  for (auto& guideline : skewed.artifacts.guideline_configs) {
    guideline.lambda10 -= 40.0;
    guideline.lambda90 += 60.0;
  }
  serve::EngineGroup drifted({.replicas = 2});
  drifted.register_bundle(skewed);
  const net::ReplayResult diverged = net::replay_listfile(path, drifted);
  EXPECT_EQ(diverged.sessions_closed, kSessions);
  EXPECT_EQ(diverged.compared, kSessions * kSteps);
  EXPECT_GT(diverged.mismatches, 0u)
      << "verification failed to notice a different model";
  std::remove(path.c_str());
}

TEST(NetListfile, TruncationAtEveryByteIsBoundaryCleanOrIoError) {
  const std::string path = temp_path("aps_listfile_trunc.listfile");
  const auto bundle = rule_bundle();
  {
    serve::MonitorEngine engine;
    engine.register_bundle(bundle);
    record_live_run(engine, path, 2, 4);
  }
  const auto clean = slurp(path);
  // Record boundaries: offsets where a truncated file is a valid log.
  std::vector<std::uint64_t> boundaries;
  std::vector<net::RecordKind> kinds;
  {
    net::ListfileReader reader(path);
    boundaries.push_back(reader.offset());  // just past the file header
    while (auto record = reader.next()) {
      boundaries.push_back(reader.offset());
      kinds.push_back(record->kind);
    }
  }
  const std::string cut_path = temp_path("aps_listfile_cut.listfile");
  for (std::size_t cut = 0; cut <= clean.size(); ++cut) {
    dump(cut_path, {clean.begin(), clean.begin() +
                                       static_cast<std::ptrdiff_t>(cut)});
    const bool at_boundary =
        std::find(boundaries.begin(), boundaries.end(), cut) !=
        boundaries.end();
    std::size_t records = 0;
    bool threw = false;
    try {
      net::ListfileReader reader(cut_path);
      while (reader.next().has_value()) ++records;
    } catch (const io::IoError&) {
      threw = true;
    }
    if (at_boundary) {
      EXPECT_FALSE(threw) << "clean boundary at " << cut << " threw";
      std::size_t expected = 0;
      while (expected + 1 < boundaries.size() &&
             boundaries[expected + 1] <= cut) {
        ++expected;
      }
      EXPECT_EQ(records, expected) << "cut at " << cut;
    } else {
      EXPECT_TRUE(threw) << "mid-record cut at " << cut
                         << " was not detected";
    }
  }
  std::remove(path.c_str());
  std::remove(cut_path.c_str());
}

TEST(NetListfile, FlushAtSyncSurvivesAnAbnormalShutdown) {
  // Kill-durability: every sync record is a flush point, so a server that
  // dies without finish() leaves a file replayable through its last sync.
  // Read the on-disk bytes while the writer is still open (what a crashed
  // process would have left) — everything up to the 256-record sync must
  // already be there.
  const std::string path = temp_path("aps_listfile_durable.listfile");
  Rng rng(21);
  const auto obs = testutil::synth_observation(rng, 0.0);
  {
    net::ListfileWriter writer(path);
    writer.record_open({.key = 1,
                        .patient_id = "durable/p0",
                        .monitor = "cawt",
                        .patient_index = 0});
    for (std::uint64_t i = 0; i < 300; ++i) {
      writer.record_tick({.key = 1, .seq = i, .obs = obs});
    }
    // NOT finished: the writer's buffer may hold an arbitrary tail.
    net::ListfileReader reader(path, /*tolerate_truncation=*/true);
    std::size_t records = 0;
    while (reader.next().has_value()) ++records;
    EXPECT_GE(records, 257u) << "sync at record 256 was not flushed";
    writer.finish();
  }
  std::remove(path.c_str());
}

TEST(NetListfile, TolerantReaderStopsCleanlyAtEveryTruncation) {
  // The crashed-server shape: a clean prefix then a cut-off tail record.
  // In tolerate_truncation mode EVERY cut reads back cleanly — complete
  // records up to the cut, then a clean stop with truncated() raised for
  // mid-record cuts and clear for record-boundary cuts. (Corruption other
  // than truncation still throws; that contract is pinned above.)
  const std::string path = temp_path("aps_listfile_tol.listfile");
  const auto bundle = rule_bundle();
  {
    serve::MonitorEngine engine;
    engine.register_bundle(bundle);
    record_live_run(engine, path, 2, 4);
  }
  const auto clean = slurp(path);
  std::vector<std::uint64_t> boundaries;
  {
    net::ListfileReader reader(path);
    boundaries.push_back(reader.offset());
    while (reader.next()) boundaries.push_back(reader.offset());
  }
  const std::string cut_path = temp_path("aps_listfile_tolcut.listfile");
  for (std::size_t cut = static_cast<std::size_t>(boundaries.front());
       cut <= clean.size(); ++cut) {
    dump(cut_path, {clean.begin(),
                    clean.begin() + static_cast<std::ptrdiff_t>(cut)});
    const bool at_boundary =
        std::find(boundaries.begin(), boundaries.end(), cut) !=
        boundaries.end();
    std::size_t expected = 0;
    while (expected + 1 < boundaries.size() &&
           boundaries[expected + 1] <= cut) {
      ++expected;
    }
    net::ListfileReader reader(cut_path, /*tolerate_truncation=*/true);
    std::size_t records = 0;
    ASSERT_NO_THROW({
      while (reader.next().has_value()) ++records;
    }) << "tolerant read threw at cut " << cut;
    EXPECT_EQ(records, expected) << "cut at " << cut;
    EXPECT_EQ(reader.truncated(), !at_boundary) << "cut at " << cut;
    // Once stopped, the reader stays stopped.
    EXPECT_FALSE(reader.next().has_value());
  }
  std::remove(path.c_str());
  std::remove(cut_path.c_str());
}

TEST(NetListfile, ReplayToleratesATruncatedTailRecord) {
  const std::string path = temp_path("aps_listfile_replaytol.listfile");
  const auto bundle = rule_bundle();
  std::uint64_t recorded = 0;
  {
    serve::MonitorEngine engine;
    engine.register_bundle(bundle);
    recorded = record_live_run(engine, path, 2, 4);
  }
  // Cut inside the final sync record: decisions all survive, the tail is
  // torn — exactly what a kill -9 mid-write leaves behind.
  auto bytes = slurp(path);
  ASSERT_GT(bytes.size(), 3u);
  bytes.resize(bytes.size() - 3);
  dump(path, bytes);

  // Default (strict) replay refuses the torn tail...
  {
    serve::EngineGroup strict({.replicas = 1});
    strict.register_bundle(bundle);
    EXPECT_THROW((void)net::replay_listfile(path, strict), io::IoError);
  }
  // ...tolerant replay re-drives everything before it, still golden.
  serve::EngineGroup fresh({.replicas = 1});
  fresh.register_bundle(bundle);
  const net::ReplayResult result =
      net::replay_listfile(path, fresh, {.tolerate_truncation = true});
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.compared, recorded);
  EXPECT_EQ(result.mismatches, 0u);
  EXPECT_EQ(result.sessions_opened, 2u);
  EXPECT_EQ(result.sessions_closed, 2u);
  std::remove(path.c_str());
}

TEST(NetListfile, RandomByteFlipsAreAlwaysDetected) {
  const std::string path = temp_path("aps_listfile_fuzz.listfile");
  const auto bundle = rule_bundle();
  {
    serve::MonitorEngine engine;
    engine.register_bundle(bundle);
    record_live_run(engine, path, 3, 6);
  }
  const auto clean = slurp(path);
  const std::string fuzz_path = temp_path("aps_listfile_fuzzed.listfile");
  Rng rng(99);
  int detected = 0;
  constexpr int kTrials = 450;
  for (int trial = 0; trial < kTrials; ++trial) {
    auto bytes = clean;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(bytes.size()) - 1));
    bytes[pos] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    dump(fuzz_path, bytes);
    try {
      net::ListfileReader reader(fuzz_path);
      while (reader.next().has_value()) {
      }
    } catch (const io::IoError&) {
      ++detected;
    }
  }
  // Every flip lands in the magic/version header (ctor throws) or inside
  // a CRC'd record (next() throws); nothing may pass silently.
  EXPECT_EQ(detected, kTrials);
  std::remove(path.c_str());
  std::remove(fuzz_path.c_str());
}

TEST(NetListfile, HostileRecordLengthIsRejectedBeforeAllocation) {
  const std::string path = temp_path("aps_listfile_hostile.listfile");
  std::vector<std::uint8_t> bytes;
  const auto put_u32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
    }
  };
  put_u32(net::kListfileMagic);
  put_u32(net::kListfileVersion);
  bytes.push_back(static_cast<std::uint8_t>(net::RecordKind::kTick));
  put_u32(0xFFFFFF00u);  // hostile length, far over kMaxRecordPayload
  put_u32(0);            // crc (never reached)
  dump(path, bytes);
  net::ListfileReader reader(path);
  EXPECT_THROW((void)reader.next(), io::IoError);
  std::remove(path.c_str());
}

TEST(NetListfile, ReplayRejectsInconsistentSessionReferences) {
  const std::string path = temp_path("aps_listfile_badref.listfile");
  Rng rng(5);
  const auto obs = testutil::synth_observation(rng, 0.0);
  {
    net::ListfileWriter writer(path);
    writer.record_tick({.key = 77, .seq = 0, .obs = obs});  // never opened
    writer.finish();
  }
  serve::EngineGroup group({.replicas = 1});
  group.register_bundle(rule_bundle());
  EXPECT_THROW((void)net::replay_listfile(path, group), io::IoError);
  std::remove(path.c_str());
}

TEST(NetListfile, WrongMagicAndVersionAreRejected) {
  const std::string path = temp_path("aps_listfile_magic.listfile");
  std::vector<std::uint8_t> bytes(8, 0x5A);
  dump(path, bytes);
  EXPECT_THROW(net::ListfileReader reader(path), io::IoError);
  std::remove(path.c_str());
}

}  // namespace
