// FleetPartition: the contiguous range math of topology::RegionMap — and
// FleetHotState, the struct-of-arrays store of the per-device state the
// scheduling hot path actually touches.
//
// FleetPartition splits the device population into `parts` contiguous
// index ranges — part p owns [num_devices·p/parts, num_devices·(p+1)/parts).
// It is a pure function of (num_devices, parts), so every subsystem that
// mentions a device's home region agrees by construction.
//
// FleetHotState is the layout store. `Device` objects carry cold state
// (id, spec, a budget slot pointer); iterating them for the per-visit
// sweep filter, the per-registration index rebucket or the hier region
// supply partials strides over memory the loop mostly does not read, and
// the sessions themselves sit in a separate SessionColumn
// (device/device.h). The hot state those loops DO read — the cached
// eligibility signature, the idle-pool position (the availability flag),
// the one-job-per-day participation budget, the spec scores and the
// per-device session statistics — lives here instead, one dense array per
// field, indexed by device position:
//
//   * `signature[d]`   — the ≤64-bit requirement bitmask the eligibility
//                        index maintains (core/elig_index.cc writes it on
//                        registration rebuckets; the sweep filter ANDs it
//                        against the manager's wants mask). Contiguous
//                        uint64s, so the sweep's skip test is one AND.
//   * `idle_pos[d]`    — idle-pool position + 1; 0 = not parked. The
//                        coordinator's dense pool keeps its vector of
//                        members; this is the membership/position side.
//   * `participation_day[d]` — last day the device participated
//                        (Device::kNeverParticipated = never/refunded; -1
//                        is a real day under floor semantics). Device
//                        objects become views over
//                        this array (Device::bind_participation_slot), so
//                        the budget API is unchanged while snapshots and
//                        hot loops read one int32 array.
//   * `spec[d]`, `session_checkins[d]`, `session_last_end[d]` — the exact
//                        per-device quantities behind supply estimation
//                        (index rebuckets, hier region partials), densely
//                        packed so those range loops never touch a Device
//                        object.
//
// The arrays are plain data with no invariants of their own: the
// coordinator owns the store, the eligibility index writes the signature
// column, and every consumer indexes by the same device position.
// Aggregate session statistics are accumulated from the session column in
// device order at init, matching a per-device scan bit for bit (double
// sums are order-sensitive; tests assert byte-identity).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "device/eligibility.h"
#include "util/ids.h"

namespace venn {

class Device;
class SessionColumn;

struct FleetPartition {
  std::size_t num_devices = 0;
  std::size_t parts = 1;

  FleetPartition() = default;
  FleetPartition(std::size_t devices, std::size_t part_count)
      : num_devices(devices), parts(part_count) {}

  // Device-index range owned by part p: [begin(p), end(p)).
  [[nodiscard]] std::size_t begin(std::size_t p) const {
    return num_devices * p / parts;
  }
  [[nodiscard]] std::size_t end(std::size_t p) const {
    return num_devices * (p + 1) / parts;
  }

  // Home part of device d — the inverse of begin/end: part_of(d) == p
  // exactly when begin(p) <= d < end(p) (tests/topology_differential_test.cc checks
  // the two agree over degenerate and non-dividing sizes).
  [[nodiscard]] std::size_t part_of(std::size_t d) const {
    return ((d + 1) * parts - 1) / num_devices;
  }
};

// Struct-of-arrays hot state of one device fleet. See the file comment for
// the field-by-field story. Owned by the Coordinator; shared by reference
// with the EligibilityIndex (which maintains `signature`) and read by the
// sweep filter and the hier region supply partials.
class FleetHotState {
 public:
  FleetHotState() = default;

  // Lays out the arrays for `devices` and accumulates the population session statistics of `sessions` in device
  // order (byte-identical double sums). A column that covers no device
  // (streamed churn) leaves every session statistic zero.
  void init(std::span<const Device> devices, const SessionColumn& sessions);

  [[nodiscard]] std::size_t size() const { return spec.size(); }

  // --- hot columns, indexed by device position --------------------------
  std::vector<std::uint64_t> signature;   // eligibility signature cache
  std::vector<std::uint32_t> idle_pos;    // pool position + 1; 0 = absent
  std::vector<std::int32_t> participation_day;  // last day participated
  std::vector<DeviceSpec> spec;           // dense spec copy (eligibility)
  std::vector<double> session_checkins;   // trace sessions, integer-valued
                                          // (the supply numerator)
  std::vector<SimTime> session_last_end;  // last session end; 0 = none

  // --- population session aggregates (device-order accumulation) --------
  SimTime session_span = 0.0;   // max session_last_end over the fleet
  double session_time = 0.0;    // total session seconds
  double session_count = 0.0;   // total session count (integer-valued)
};

}  // namespace venn
