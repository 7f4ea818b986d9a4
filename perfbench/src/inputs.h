// Seeded inputs of the wire workloads: fault-injected closed-loop traces of
// the glucosym + openaps stack, replayed as monitor observations, and the
// cohort artifact bundle the serving plane loads. Everything is a pure
// function of the seed; the program under test only ever sees the bundle
// file and the observation stream.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/monitor_factory.h"
#include "monitor/monitor.h"

namespace perfbench {

struct WireInputs {
  /// traces[t][k]: the observation the monitor saw at step k of trace t.
  std::vector<std::vector<aps::monitor::Observation>> traces;
  /// Cohort slot (patient index) each trace was simulated for.
  std::vector<int> trace_patient;
  std::size_t hazardous_traces = 0;
  aps::core::ArtifactBundle bundle;
};

/// Simulate `trace_count` seeded (patient, fault scenario) runs from the
/// quick campaign grid, learn CAWT thresholds and guideline percentiles
/// from them, and, with `with_ml`, train paper-sized ML monitors
/// (LSTM {128, 64}, MLP {256, 128}, DT depth 12) for one short epoch: the
/// serving cost depends on the layer sizes, not on how well the weights
/// were fitted.
[[nodiscard]] WireInputs make_wire_inputs(std::uint64_t seed,
                                          std::size_t trace_count,
                                          bool with_ml, aps::ThreadPool& pool);

}  // namespace perfbench
