// Wire workloads: a serving plane (net::IngestServer over a 2-replica
// serve::EngineGroup) in this process, driven over loopback TCP by an
// open-loop generator thread, then checked decision-by-decision against a
// reference EngineGroup fed the same per-session streams.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct WireConfig {
  std::size_t sessions = 0;
  /// Monitor kinds, equal shares of the sessions.
  std::vector<std::string> mix;
  /// Fixed offered rate of the latency window (ticks/s, whole fleet).
  double rate = 0.0;
  /// Wire-to-wire latency limit: a tick answered later than this in the
  /// latency window fails; the saturation latency must stay within it.
  double limit_ms = 0.0;
  /// Capacity: ticks kept outstanding while saturating the server.
  std::size_t in_flight = 0;
  /// Session close + reopen events per second.
  double churn_per_s = 0.0;
  /// Record every served tick to a listfile.
  bool listfile = false;
  /// Set-ups per run; setup_s is their median.
  int setup_reps = 1;
  /// Seeded fault-injected traces the sessions replay.
  std::size_t traces = 64;
  double seconds = 10.0;
  std::uint64_t seed = 0;
  bool trace = false;
  /// Scratch directory (bundle file, listfile) inside the checkout.
  std::string work_dir;
};

[[nodiscard]] RunResult run_wire(const WireConfig& config);

}  // namespace perfbench
