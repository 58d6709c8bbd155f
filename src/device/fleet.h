// FleetHotState: the fleet's only per-device store, one dense array per
// field, indexed by device position. A device is its position: there is no
// device object and no id beside the index.
//
//   * `spec[d]`        — the device's hardware scores. The coordinator
//                        moves its input specs here, so each spec is stored
//                        once per run; the eligibility index's rebucket
//                        predicate, the offers and the execution-time model
//                        all read this column.
//   * `signature[d]`   — the ≤64-bit requirement bitmask the eligibility
//                        index maintains (core/elig_index.cc writes it on
//                        registration rebuckets; the sweep filter ANDs it
//                        against the manager's wants mask). Contiguous
//                        uint64s, so the sweep's skip test is one AND.
//   * `idle_pos[d]`    — idle-pool position + 1; 0 = not parked. The
//                        coordinator's dense pool keeps its vector of
//                        members; this is the membership/position side.
//   * `participation_day[d]` — the one-job-per-day budget: the last day the
//                        device participated (kNeverParticipated =
//                        never/refunded; -1 is a real day under floor
//                        semantics). Snapshots serialize this column.
//   * `session_checkins[d]` — the device's trace-session count, the exact
//                        per-device quantity the eligibility index sums
//                        into its supply partials.
//
// The arrays are plain data with no invariants of their own: the
// coordinator owns the store, the eligibility index writes the signature
// column, and every consumer indexes by the same device position. The
// sessions themselves sit in a separate SessionColumn (device/device.h).
// Aggregate session statistics are accumulated from the session column in
// device order at init, matching a per-device scan bit for bit (double
// sums are order-sensitive; tests assert byte-identity).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "device/device.h"

namespace venn {

// Struct-of-arrays state of one device fleet. Owned by the Coordinator;
// shared by reference with the EligibilityIndex (which maintains
// `signature` and sums `session_checkins`) and read by the sweep filter.
class FleetHotState {
 public:
  // Lays out the arrays for the fleet `specs` (device d is specs[d]) and
  // accumulates the population session statistics of `sessions` in device
  // order (byte-identical double sums). A column that covers no device
  // (streamed churn) leaves every session statistic zero.
  void init(std::vector<DeviceSpec> specs, const SessionColumn& sessions);

  [[nodiscard]] std::size_t size() const { return spec.size(); }

  // --- one-job-per-day budget of device d --------------------------------
  [[nodiscard]] bool participated_on_day(std::size_t d, int day) const {
    return participation_day[d] == day;
  }
  void mark_participation(std::size_t d, int day) {
    participation_day[d] = day;
  }
  // Straggler release (over-selection protocols): a device cut off
  // mid-computation did not actually spend its participation, so the
  // budget charged on `day` is refunded and the device is re-offerable
  // under the usual rules. No-op if the device has since been charged for
  // a different day.
  void refund_participation(std::size_t d, int day) {
    if (participation_day[d] == day) participation_day[d] = kNeverParticipated;
  }

  // --- hot columns, indexed by device position --------------------------
  std::vector<DeviceSpec> spec;           // hardware scores
  std::vector<std::uint64_t> signature;   // eligibility signature cache
  std::vector<std::uint32_t> idle_pos;    // pool position + 1; 0 = absent
  std::vector<std::int32_t> participation_day;  // last day participated
  std::vector<double> session_checkins;   // trace sessions, integer-valued
                                          // (the supply numerator)

  // --- population session aggregates (device-order accumulation) --------
  SimTime session_span = 0.0;   // latest session end over the fleet
  double session_time = 0.0;    // total session seconds
  double session_count = 0.0;   // total session count (integer-valued)
};

}  // namespace venn
