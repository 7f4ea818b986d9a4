// Per-layer measurements of the traced run. Each layer is timed from
// outside, by calling its public functions on the workload's own inputs;
// counters the program already keeps are read through obs::Registry.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "inputs.h"

namespace perfbench {

/// What the traced wire run hands to the layer measurements: its inputs
/// and the registry readings of its latency window.
struct WireLayerContext {
  const WireInputs& inputs;
  std::string bundle_path;
  std::string work_dir;
  std::vector<std::string> mix;
  std::size_t sessions = 0;
  bool listfile = false;
  double rate = 0.0;
  double churn_per_s = 0.0;
  /// Latency window (fixed offered rate): tick p50, the server's CPU per
  /// tick, and mean ticks per group feed (from the counters).
  double wire_p50_ms = 0.0;
  double server_cpu_us_per_tick = 0.0;
  double batch_mean = 0.0;
  /// Saturation phase: the server's CPU per tick, mean ticks per group
  /// feed, and their p50 and p99 from the batch histogram.
  double sat_server_cpu_us_per_tick = 0.0;
  double sat_batch_mean = 0.0;
  double batch_p50 = 0.0;
  double batch_p99 = 0.0;
  double bundle_load_ms = 0.0;
  double bundle_save_ms = 0.0;
  double open_rtt_ms = 0.0;
  double replica_imbalance = 0.0;
  double net_bytes_per_tick = 0.0;
  double backpressure_per_kt = 0.0;
  std::uint64_t group_backpressure = 0;
  std::uint64_t degraded = 0;
  std::uint64_t shed = 0;
};

/// net.*, serve.*, ml.*, io.* and coverage.* metrics of a wire workload,
/// plus the check that the workload stresses the layers it was chosen for.
void measure_wire_layers(const WireLayerContext& context, RunResult& out);

/// LSTM gate GEMM (kernels::gemm_accum) at m x k x n: GFLOP/s and the
/// bytes one call moves (computed from the shapes).
void measure_gemm(std::size_t m, std::size_t k, std::size_t n, RunResult& out);

}  // namespace perfbench
