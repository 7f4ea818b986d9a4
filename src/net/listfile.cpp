#include "net/listfile.h"

#include <cstring>
#include <deque>
#include <unordered_map>

#include "net/protocol.h"

namespace aps::net {

namespace {

/// u8 kind | u32 payload_len | u32 crc ahead of every record payload.
constexpr std::size_t kRecordHeaderSize = 1 + 2 * sizeof(std::uint32_t);

}  // namespace

// ---- ListfileWriter --------------------------------------------------------

ListfileWriter::ListfileWriter(const std::string& path)
    : path_(path), out_(path, std::ios::binary | std::ios::trunc) {
  if (!out_) {
    throw aps::io::IoError("cannot open listfile '" + path +
                           "' for writing");
  }
  out_.write(reinterpret_cast<const char*>(&kListfileMagic),
             sizeof kListfileMagic);
  out_.write(reinterpret_cast<const char*>(&kListfileVersion),
             sizeof kListfileVersion);
  if (!out_) {
    throw aps::io::IoError("write failure on listfile '" + path_ + "'");
  }
}

ListfileWriter::~ListfileWriter() {
  try {
    finish();
  } catch (const aps::io::IoError&) {
    // Destructors must not throw; an explicit finish() reports failures.
  }
}

template <typename WritePayload>
void ListfileWriter::append(RecordKind kind, WritePayload&& write) {
  if (finished_) {
    throw aps::io::IoError("listfile '" + path_ +
                           "' already finished, cannot append");
  }
  const std::size_t start = encode_in_place(buf_, kRecordHeaderSize, write);
  const auto kind_byte = static_cast<std::uint8_t>(kind);
  const std::uint8_t* payload = buf_.data() + start + kRecordHeaderSize;
  const auto len =
      static_cast<std::uint32_t>(buf_.size() - start - kRecordHeaderSize);
  const std::uint32_t crc =
      aps::io::crc32(payload, len, aps::io::crc32(&kind_byte, 1));
  std::uint8_t* header = buf_.data() + start;
  header[0] = kind_byte;
  std::memcpy(header + 1, &len, sizeof len);
  std::memcpy(header + 1 + sizeof len, &crc, sizeof crc);
  if (kind == RecordKind::kSync) return;
  ++records_;
  if (++since_sync_ >= kSyncInterval) {
    write_sync();
  }
}

void ListfileWriter::write_sync() {
  append(RecordKind::kSync,
         [this](aps::io::BinaryWriter& w) { w.u64(records_); });
  since_sync_ = 0;
  // Durability point: the records buffered since the last sync reach the
  // OS now, so a recorder killed mid-record (no destructor, no finish())
  // still leaves a file replayable through the last sync.
  out_.write(reinterpret_cast<const char*>(buf_.data()),
             static_cast<std::streamsize>(buf_.size()));
  buf_.clear();
  out_.flush();
  if (!out_) {
    throw aps::io::IoError("flush failure on listfile '" + path_ + "'");
  }
}

void ListfileWriter::record_open(const OpenRecord& record) {
  append(RecordKind::kOpen, [&record](aps::io::BinaryWriter& w) {
    w.u64(record.key);
    w.str(record.patient_id);
    w.str(record.monitor);
    w.i32(record.patient_index);
  });
}

void ListfileWriter::record_tick(const TickRecord& record) {
  append(RecordKind::kTick, [&record](aps::io::BinaryWriter& w) {
    w.u64(record.key);
    w.u64(record.seq);
    write_observation(w, record.obs);
  });
}

void ListfileWriter::record_decision(const DecisionRecord& record) {
  append(RecordKind::kDecision, [&record](aps::io::BinaryWriter& w) {
    w.u64(record.key);
    w.u64(record.seq);
    write_decision(w, record.decision);
  });
}

void ListfileWriter::record_close(const CloseRecord& record) {
  append(RecordKind::kClose,
         [&record](aps::io::BinaryWriter& w) { w.u64(record.key); });
}

void ListfileWriter::finish() {
  if (finished_) return;
  write_sync();
  finished_ = true;
}

// ---- ListfileReader --------------------------------------------------------

ListfileReader::ListfileReader(const std::string& path,
                               bool tolerate_truncation)
    : in_(path), tolerate_truncation_(tolerate_truncation) {
  const std::uint32_t magic = in_.u32();
  if (magic != kListfileMagic) {
    throw aps::io::IoError("'" + path +
                           "' is not an APS listfile (bad magic number)");
  }
  const std::uint32_t version = in_.u32();
  if (version != kListfileVersion) {
    throw aps::io::IoError(
        "unsupported listfile version " + std::to_string(version) + " in '" +
        path + "' (this build reads version " +
        std::to_string(kListfileVersion) + ")");
  }
}

std::optional<ListfileRecord> ListfileReader::next() {
  if (truncated_ || in_.remaining() == 0) {
    return std::nullopt;  // clean end of log (or tolerated ragged tail)
  }
  // The two truncation shapes a killed writer can leave — EOF inside the
  // 9-byte record header, or a payload shorter than the header promised —
  // are a clean stop in tolerant mode. Everything else (unknown kind,
  // hostile length, CRC mismatch on a COMPLETE record) cannot be produced
  // by truncation and always throws.
  if (in_.remaining() < 1 + sizeof(std::uint32_t) * 2) {
    if (tolerate_truncation_) {
      truncated_ = true;
      return std::nullopt;
    }
    throw aps::io::IoError("truncated listfile '" + in_.path() +
                           "': partial record header at offset " +
                           std::to_string(in_.consumed()));
  }
  const std::uint8_t kind_byte = in_.u8();
  if (kind_byte == 0 || kind_byte > kRecordKindMax) {
    throw aps::io::IoError("corrupt listfile '" + in_.path() +
                           "': unknown record kind " +
                           std::to_string(kind_byte));
  }
  const std::uint32_t len = in_.u32();
  if (len > kMaxRecordPayload) {
    throw aps::io::IoError("corrupt listfile '" + in_.path() +
                           "': implausible record length " +
                           std::to_string(len));
  }
  const std::uint32_t want_crc = in_.u32();
  if (len > in_.remaining()) {
    if (tolerate_truncation_) {
      truncated_ = true;
      return std::nullopt;
    }
    throw aps::io::IoError("truncated listfile '" + in_.path() +
                           "': record needs " + std::to_string(len) +
                           " bytes but only " +
                           std::to_string(in_.remaining()) + " remain");
  }
  std::vector<std::uint8_t> payload(len);
  if (len > 0) in_.bytes(payload.data(), len);
  std::uint32_t crc = aps::io::crc32(&kind_byte, 1);
  crc = aps::io::crc32(payload.data(), payload.size(), crc);
  if (crc != want_crc) {
    throw aps::io::IoError("corrupt listfile '" + in_.path() +
                           "': record CRC mismatch for record " +
                           std::to_string(records_seen_));
  }
  ++records_seen_;

  aps::io::BinaryReader body(payload, in_.path() + ":record");
  ListfileRecord record;
  record.kind = static_cast<RecordKind>(kind_byte);
  switch (record.kind) {
    case RecordKind::kOpen:
      record.open.key = body.u64();
      record.open.patient_id = body.str();
      record.open.monitor = body.str();
      record.open.patient_index = body.i32();
      break;
    case RecordKind::kTick:
      record.tick.key = body.u64();
      record.tick.seq = body.u64();
      record.tick.obs = read_observation(body);
      break;
    case RecordKind::kDecision:
      record.decision.key = body.u64();
      record.decision.seq = body.u64();
      record.decision.decision = read_decision(body);
      break;
    case RecordKind::kClose:
      record.close.key = body.u64();
      break;
    case RecordKind::kSync:
      record.sync.records = body.u64();
      break;
  }
  if (body.remaining() != 0) {
    throw aps::io::IoError("corrupt listfile '" + in_.path() + "': " +
                           std::to_string(body.remaining()) +
                           " trailing bytes in record " +
                           std::to_string(records_seen_ - 1));
  }
  return record;
}

// ---- Replay ----------------------------------------------------------------

namespace {

bool decisions_identical(const aps::monitor::Decision& a,
                         const aps::monitor::Decision& b) {
  return a.alarm == b.alarm && a.predicted == b.predicted &&
         a.rule_id == b.rule_id;
}

struct ReplaySession {
  aps::serve::SessionId session = 0;
  std::deque<aps::monitor::Decision> recorded;  ///< from decision records
  std::deque<aps::monitor::Decision> produced;  ///< from the re-driven group
};

void drain_matches(ReplaySession& rs, ReplayResult& result) {
  while (!rs.recorded.empty() && !rs.produced.empty()) {
    ++result.compared;
    if (!decisions_identical(rs.recorded.front(), rs.produced.front())) {
      ++result.mismatches;
    }
    rs.recorded.pop_front();
    rs.produced.pop_front();
  }
}

}  // namespace

ReplayResult replay_listfile(const std::string& path,
                             aps::serve::EngineGroup& group,
                             const ReplayOptions& options) {
  ListfileReader reader(path, options.tolerate_truncation);
  ReplayResult result;

  std::unordered_map<std::uint64_t, ReplaySession> sessions;
  // Pending ticks in file order; flushed through the group whenever a
  // session boundary or the batch ceiling requires it. Batch composition
  // need not match the live run — monitors are per-session, so only
  // per-session order matters for bit-identical decisions.
  std::vector<aps::serve::SessionInput> batch;
  std::vector<std::uint64_t> batch_keys;
  std::vector<aps::monitor::Decision> decisions;

  const auto flush = [&] {
    if (batch.empty()) return;
    decisions.resize(batch.size());
    group.feed(batch, decisions);
    for (std::size_t i = 0; i < decisions.size(); ++i) {
      auto it = sessions.find(batch_keys[i]);
      if (it == sessions.end()) continue;
      if (options.verify) {
        it->second.produced.push_back(decisions[i]);
        drain_matches(it->second, result);
      }
    }
    result.ticks += batch.size();
    batch.clear();
    batch_keys.clear();
  };

  while (auto record = reader.next()) {
    switch (record->kind) {
      case RecordKind::kOpen: {
        flush();  // the new session's ticks must not precede its open
        ReplaySession rs;
        rs.session = group.open_session(record->open.patient_id,
                                         record->open.monitor,
                                         record->open.patient_index);
        if (!sessions.emplace(record->open.key, rs).second) {
          throw aps::io::IoError("corrupt listfile '" + path +
                                 "': duplicate open for session key " +
                                 std::to_string(record->open.key));
        }
        ++result.sessions_opened;
        break;
      }
      case RecordKind::kTick: {
        auto it = sessions.find(record->tick.key);
        if (it == sessions.end()) {
          throw aps::io::IoError(
              "corrupt listfile '" + path + "': tick for unknown session key " +
              std::to_string(record->tick.key));
        }
        batch.push_back({it->second.session, record->tick.obs});
        batch_keys.push_back(record->tick.key);
        if (batch.size() >= options.max_batch) flush();
        break;
      }
      case RecordKind::kDecision: {
        if (!options.verify) break;
        auto it = sessions.find(record->decision.key);
        if (it == sessions.end()) {
          throw aps::io::IoError("corrupt listfile '" + path +
                                 "': decision for unknown session key " +
                                 std::to_string(record->decision.key));
        }
        it->second.recorded.push_back(record->decision.decision);
        drain_matches(it->second, result);
        break;
      }
      case RecordKind::kClose: {
        auto it = sessions.find(record->close.key);
        if (it == sessions.end()) {
          throw aps::io::IoError("corrupt listfile '" + path +
                                 "': close for unknown session key " +
                                 std::to_string(record->close.key));
        }
        flush();  // feed this session's pending ticks before closing it
        group.close_session(it->second.session);
        result.unmatched +=
            it->second.recorded.size() + it->second.produced.size();
        sessions.erase(it);
        ++result.sessions_closed;
        break;
      }
      case RecordKind::kSync:
        break;  // checkpoints carry no replayable state
    }
  }
  flush();
  result.truncated = reader.truncated();
  // Sessions the recording left open (e.g. the recorder stopped mid-run)
  // stay open here too; count their tail imbalance but leave them live.
  for (auto& [key, rs] : sessions) {
    drain_matches(rs, result);
    result.unmatched += rs.recorded.size() + rs.produced.size();
  }
  return result;
}

}  // namespace aps::net
