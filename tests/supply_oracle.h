// Brute-force supply oracle: the eligible check-in rate of a fleet from a
// plain range scan over the coordinator's struct-of-arrays hot-state
// columns. Coordinator::supply_rate answers the same question from the
// eligibility index's atom buckets (or, under topology=hier, from per-region
// partials); every quantity involved is exact — integer eligible counts,
// integer-valued check-in sums, a maximum span — so the two must agree to
// the bit.
#pragma once

#include <algorithm>
#include <cstddef>

#include "core/coordinator.h"

namespace venn::oracle {

inline double supply_rate(const FleetHotState& hot, const Requirement& req,
                          const workload::ChurnModel* churn) {
  if (churn != nullptr) {
    std::size_t eligible = 0;
    for (std::size_t d = 0; d < hot.size(); ++d) {
      eligible += req.eligible(hot.spec[d]) ? 1 : 0;
    }
    const double rate = static_cast<double>(eligible) *
                        churn->mean_sessions_per_day() / kDay;
    return std::max(rate, 1e-9);
  }
  double checkins = 0.0;
  SimTime span = 0.0;
  for (std::size_t d = 0; d < hot.size(); ++d) {
    span = std::max(span, hot.session_last_end[d]);
    if (req.eligible(hot.spec[d])) checkins += hot.session_checkins[d];
  }
  if (span <= 0.0 || checkins <= 0.0) return 1e-9;
  return checkins / span;
}

}  // namespace venn::oracle
