// Append-only session listfile (mvme-style event log): the raw record of
// everything the serving front door consumed — session opens, every tick's
// observation in engine-consumption order, the decision each tick
// produced, and session closes — with versioned CRC'd records and
// periodic sync points. One file is three tools at once:
//
//   * backtesting / bug repro: replay_listfile re-drives an EngineGroup
//     from the file and the decisions come out byte-identical to the live
//     run (monitor state is per-session and lane-independent, so only
//     per-session observation order matters — which the file preserves);
//   * a golden oracle: the recorded decision records let the replayer (or
//     a bench client) verify the re-driven decisions exactly;
//   * a load generator: bench/net_ingest replays a recorded file through
//     a real socket pair.
//
// Layout: u32 magic "APSL", u32 version, then records. Each record is
//   u8 kind | u32 payload_len | u32 crc (CRC-32 of kind byte + payload) |
//   payload
// payloads use the shared io::BinaryWriter/BinaryReader codec (same
// hardened length handling as artifacts and wire frames). A clean EOF at
// a record boundary is a valid end of log (append-only files end when the
// recorder stops); EOF inside a record, a CRC mismatch, or a hostile
// length throws io::IoError — unless the reader was opened with
// tolerate_truncation, in which case EOF *inside the tail record* (the
// normal wreckage of a killed recorder) is a clean stop at the last
// complete record, reported via truncated(). Corruption that truncation
// cannot produce (bad CRC on a complete record, unknown kind, hostile
// length) always throws. Sync records carrying the running record count
// are written every kSyncInterval records and on finish(). The writer
// encodes records in place into one buffer and hands it to the stream,
// flushed, at every sync, so a SIGKILLed recorder loses at most the
// records since the last sync point.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "io/serial.h"
#include "monitor/monitor.h"
#include "serve/group.h"

namespace aps::net {

inline constexpr std::uint32_t kListfileMagic = 0x4150534Cu;  // "APSL"
inline constexpr std::uint32_t kListfileVersion = 1;
inline constexpr std::uint32_t kMaxRecordPayload = 1u << 20;  // 1 MiB
/// A sync record is written every this many payload records.
inline constexpr std::uint64_t kSyncInterval = 256;

enum class RecordKind : std::uint8_t {
  kOpen = 1,      ///< key, patient id, monitor name, patient index
  kTick = 2,      ///< key, seq, observation
  kDecision = 3,  ///< key, seq, decision
  kClose = 4,     ///< key
  kSync = 5,      ///< records-so-far checkpoint
};
inline constexpr std::uint8_t kRecordKindMax = 5;

struct OpenRecord {
  std::uint64_t key = 0;  ///< unique while the session is open
  std::string patient_id;
  std::string monitor;
  std::int32_t patient_index = 0;
};

struct TickRecord {
  std::uint64_t key = 0;
  std::uint64_t seq = 0;
  aps::monitor::Observation obs;
};

struct DecisionRecord {
  std::uint64_t key = 0;
  std::uint64_t seq = 0;
  aps::monitor::Decision decision;
};

struct CloseRecord {
  std::uint64_t key = 0;
};

struct SyncRecord {
  std::uint64_t records = 0;  ///< payload records written before this sync
};

/// Append-only writer. Not internally synchronized: the ingest server
/// records from its single IO thread; other users must serialize access.
class ListfileWriter {
 public:
  /// Opens (truncates) `path` and writes the file header; IoError on
  /// failure.
  explicit ListfileWriter(const std::string& path);
  ~ListfileWriter();

  ListfileWriter(const ListfileWriter&) = delete;
  ListfileWriter& operator=(const ListfileWriter&) = delete;

  void record_open(const OpenRecord& record);
  void record_tick(const TickRecord& record);
  void record_decision(const DecisionRecord& record);
  void record_close(const CloseRecord& record);

  /// Final sync + flush; throws IoError on write failure. Idempotent
  /// (also invoked by the destructor, which swallows errors).
  void finish();

  [[nodiscard]] std::uint64_t records() const { return records_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  /// Encode one record in place at the end of buf_; `write` fills the
  /// payload through an io::BinaryWriter.
  template <typename WritePayload>
  void append(RecordKind kind, WritePayload&& write);
  /// Append a sync record and hand the buffer to the stream (flushed).
  void write_sync();

  std::string path_;
  std::ofstream out_;
  /// Records since the last sync, encoded in place; written to out_ and
  /// flushed at each sync, so the durability point is the sync record.
  std::vector<std::uint8_t> buf_;
  std::uint64_t records_ = 0;        ///< payload records (syncs excluded)
  std::uint64_t since_sync_ = 0;
  bool finished_ = false;
};

/// One parsed record (tagged union; exactly the field for `kind` is set).
struct ListfileRecord {
  RecordKind kind = RecordKind::kSync;
  OpenRecord open;
  TickRecord tick;
  DecisionRecord decision;
  CloseRecord close;
  SyncRecord sync;
};

/// Sequential reader: validates the header on construction, then next()
/// yields records until a clean EOF (nullopt). Malformed bytes throw
/// io::IoError.
class ListfileReader {
 public:
  /// With tolerate_truncation, a file whose tail record is cut mid-bytes
  /// (killed recorder) ends cleanly at the last complete record instead
  /// of throwing; truncated() reports that it happened.
  explicit ListfileReader(const std::string& path,
                          bool tolerate_truncation = false);

  [[nodiscard]] std::optional<ListfileRecord> next();
  /// Byte offset of the NEXT record (a valid truncation boundary).
  [[nodiscard]] std::uint64_t offset() const { return in_.consumed(); }
  /// True once next() hit a truncated tail record in tolerant mode.
  [[nodiscard]] bool truncated() const { return truncated_; }

 private:
  aps::io::BinaryReader in_;
  std::uint64_t records_seen_ = 0;
  bool tolerate_truncation_ = false;
  bool truncated_ = false;
};

struct ReplayOptions {
  /// Flush the pending tick batch into the group at this size even
  /// without an open/close boundary forcing it.
  std::size_t max_batch = 4096;
  /// Compare re-driven decisions against the file's decision records.
  bool verify = true;
  /// Accept a truncated tail record (replay everything up to it) instead
  /// of throwing — what you want when replaying a crashed server's file.
  bool tolerate_truncation = false;
};

struct ReplayResult {
  std::size_t sessions_opened = 0;
  std::size_t sessions_closed = 0;
  std::uint64_t ticks = 0;       ///< observations re-driven into the group
  std::uint64_t compared = 0;    ///< decisions checked against the record
  std::uint64_t mismatches = 0;  ///< decisions that differed (0 = golden)
  /// Recorded decisions with no replayed counterpart or vice versa (a
  /// truncated tail can leave live decisions unrecorded).
  std::uint64_t unmatched = 0;
  /// The file ended inside its tail record (tolerate_truncation only).
  bool truncated = false;
};

/// Re-drive `group` from a recorded listfile. The group must have the
/// same monitors registered as the recording run (same bundle); session
/// patient ids must be free. Its replica count need not match the
/// recording's. Per-session observation order is preserved exactly, so the
/// decision stream is byte-identical to the live run — replayed sessions
/// are closed again as the file closes them, and the result counts any
/// divergence when options.verify is set.
[[nodiscard]] ReplayResult replay_listfile(const std::string& path,
                                           aps::serve::EngineGroup& group,
                                           const ReplayOptions& options = {});

}  // namespace aps::net
