// Brute-force supply oracle: the eligible check-in rate of a fleet from a
// plain scan over the run's inputs — the device specs and their session
// column — with the check-ins counted and the span taken from the sessions
// themselves. It reads none of the coordinator's state:
// Coordinator::supply_rate answers the same question from the eligibility
// index's per-region partials over the hot-state columns, and every
// quantity involved is exact — integer eligible counts, integer-valued
// check-in sums, a maximum span — so the two must agree to the bit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "device/device.h"
#include "device/eligibility.h"
#include "workload/churn.h"

namespace venn::oracle {

// `sessions` is the column the run was built with; one covering no device
// (streamed churn, or a sessionless fleet) contributes no check-ins.
inline double supply_rate(const std::vector<DeviceSpec>& specs,
                          const SessionColumn& sessions,
                          const Requirement& req,
                          const workload::ChurnModel* churn) {
  std::size_t eligible = 0;
  double checkins = 0.0;
  SimTime span = 0.0;
  for (std::size_t d = 0; d < specs.size(); ++d) {
    const std::span<const Session> ss =
        d < sessions.devices() ? sessions.of(d) : std::span<const Session>{};
    for (const Session& s : ss) span = std::max(span, s.end);
    if (!req.eligible(specs[d])) continue;
    ++eligible;
    checkins += static_cast<double>(ss.size());
  }
  if (churn != nullptr) {
    const double rate = static_cast<double>(eligible) *
                        churn->mean_sessions_per_day() / kDay;
    return std::max(rate, 1e-9);
  }
  if (span <= 0.0 || checkins <= 0.0) return 1e-9;
  return checkins / span;
}

}  // namespace venn::oracle
