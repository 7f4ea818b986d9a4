// The monitor-design workload: the paper's batch pipeline on the quick
// grid for both APS stacks — fault-injection campaign, STL threshold
// refinement and ML training (core::prepare_experiment), the fused Table
// V/VI evaluation, a CAWT mitigation pass, and bundle_from_context +
// io::save_bundle.
#pragma once

#include <string>

#include "common.h"

namespace perfbench {

struct DesignConfig {
  double seconds = 10.0;
  bool trace = false;
  /// One stack only: the benchmark's own smoke test.
  bool smoke = false;
  std::string work_dir;
};

/// The pipeline's reports (confusion matrices per monitor per stack, CAWT
/// mitigation counts) go into `extra_json["reports"]`; run.py compares
/// them with the recorded reference.
[[nodiscard]] RunResult run_design(const DesignConfig& config);

}  // namespace perfbench
