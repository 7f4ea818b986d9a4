// Hazard-mitigation policy (paper Algorithm 1): when the monitor raises an
// alarm, the unsafe command is replaced before it reaches the pump —
// zero insulin for a predicted H1 (over-infusion), and a corrective dose
// for a predicted H2. Mitigation continues as long as the monitor keeps
// alarming; when the system re-enters the safe region the controller's
// command passes through unchanged.
//
// The paper's experiments use a *fixed maximum* corrective insulin value
// for H2 so non-context-aware monitors can be compared fairly; the
// context-dependent policy f(rho(mu(x_t)), u_t) from the HMS is available
// as an option (ablation in bench/ablation_training).
#pragma once

#include "monitor/monitor.h"

namespace aps::monitor {

enum class MitigationPolicy {
  kFixedMax,        ///< H2 -> max_basal (the paper's default)
  kContextScaled,   ///< H2 -> dose scaled by the projected BG excess
};

struct MitigationConfig {
  MitigationPolicy policy = MitigationPolicy::kFixedMax;
  double max_basal_factor = 4.0;  ///< corrective cap = factor * basal
};

/// Rate (U/h) to deliver given the monitor's decision; returns the
/// commanded rate unchanged when there is no alarm, or when the
/// observation's basal rate is negative or non-finite. Throws
/// std::invalid_argument when config.max_basal_factor is below 1 or not
/// finite.
[[nodiscard]] double mitigate_rate(const Decision& decision,
                                   const Observation& obs,
                                   const MitigationConfig& config = {});

}  // namespace aps::monitor
