#include "monitor/mitigation.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace aps::monitor {

double mitigate_rate(const Decision& decision, const Observation& obs,
                     const MitigationConfig& config) {
  // An infinite factor would pass a bare >= 1 check, and inf * a zero
  // basal is a NaN delivery rate.
  if (!(std::isfinite(config.max_basal_factor) &&
        config.max_basal_factor >= 1.0)) {
    throw std::invalid_argument(
        "mitigate_rate: max_basal_factor must be finite and >= 1, got " +
        std::to_string(config.max_basal_factor));
  }
  if (!decision.alarm) return obs.commanded_rate;
  // Every corrective rate is scaled from the basal rate; a faulted
  // (negative or non-finite) basal gives no safe range to act in.
  if (!std::isfinite(obs.basal_rate) || obs.basal_rate < 0.0) {
    return obs.commanded_rate;
  }
  const double max_rate = config.max_basal_factor * obs.basal_rate;
  switch (decision.predicted) {
    case aps::HazardType::kH1TooMuchInsulin:
      // Too much insulin on the way: cut delivery entirely.
      return 0.0;
    case aps::HazardType::kH2TooLittleInsulin: {
      if (config.policy == MitigationPolicy::kFixedMax) return max_rate;
      // Context-scaled: dose the projected excess over target through the
      // profile sensitivity, delivered across one hour.
      const double excess = std::max(0.0, obs.bg - 120.0);
      const double needed_u = obs.isf > 0.0 ? excess / obs.isf : 0.0;
      assert(obs.basal_rate <= max_rate);  // std::clamp needs lo <= hi
      return std::clamp(obs.basal_rate + needed_u, obs.basal_rate, max_rate);
    }
    case aps::HazardType::kNone:
      break;
  }
  return obs.commanded_rate;
}

}  // namespace aps::monitor
