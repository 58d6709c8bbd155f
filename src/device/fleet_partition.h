// FleetPartition: the immutable device→shard map of sharded execution —
// and FleetHotState, the struct-of-arrays store of the per-device state the
// scheduling hot path actually touches.
//
// Sharded fleet execution partitions the device population into
// `shards` contiguous index ranges — shard s owns
// [num_devices·s/shards, num_devices·(s+1)/shards). Contiguity is what
// makes the per-shard structures slices rather than scatter sets: a
// shard's cut of the eligibility-index signature array is a subrange, its
// idle-pool segment is countable with one load, and range loops stay
// prefetch-friendly.
//
// The partition is a pure function of (num_devices, shards) — no state,
// no registration order — so every subsystem that mentions a home shard
// (coordinator segment accounting, straggler-release ownership checks,
// index rebuckets) agrees by construction, and a given shard count always
// decomposes the fleet the same way.
//
// FleetHotState is the layout half of the same story. `Device` objects
// carry cold state (id, spec, a budget slot pointer); iterating them for
// the per-visit sweep filter, the per-registration index rebucket or the
// hier region supply partials strides over memory the loop mostly does not
// read, and the sessions themselves sit in a separate SessionColumn
// (device/device.h). The hot
// state those loops DO read — the cached eligibility signature, the
// idle-pool position (the availability flag), the one-job-per-day
// participation budget, the spec scores and the per-device session
// statistics — lives here instead, one dense array per field, indexed by
// device position:
//
//   * `signature[d]`   — the ≤64-bit requirement bitmask the eligibility
//                        index maintains (core/elig_index.cc writes it on
//                        registration rebuckets; the sweep filter ANDs it
//                        against the manager's wants mask). Contiguous
//                        uint64s, so the batched signature∩wants pass is a
//                        branch-light scan the compiler can vectorize.
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
// column, and every consumer indexes by the same device position the
// partition shards over. Aggregate session statistics are accumulated from
// the session column in device order at init, matching a per-device scan
// bit for bit (double sums are order-sensitive; tests assert
// byte-identity).
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
  std::size_t shards = 1;

  FleetPartition() = default;
  FleetPartition(std::size_t devices, std::size_t shard_count)
      : num_devices(devices), shards(shard_count) {}

  // Device-index range owned by shard s: [begin(s), end(s)).
  [[nodiscard]] std::size_t begin(std::size_t s) const {
    return num_devices * s / shards;
  }
  [[nodiscard]] std::size_t end(std::size_t s) const {
    return num_devices * (s + 1) / shards;
  }

  // Home shard of device d — the inverse of begin/end: shard_of(d) == s
  // exactly when begin(s) <= d < end(s) (tests/shard_pool_test.cc checks
  // the two agree over degenerate and non-dividing sizes).
  [[nodiscard]] std::size_t shard_of(std::size_t d) const {
    return ((d + 1) * shards - 1) / num_devices;
  }
};

// Struct-of-arrays hot state of one device fleet. See the file comment for
// the field-by-field story. Owned by the Coordinator; shared by reference
// with the EligibilityIndex (which maintains `signature`) and read by the
// sweep filter and the hier region supply partials.
class FleetHotState {
 public:
  FleetHotState() = default;

  // Lays out the arrays for `devices` under `shards` contiguous shards and
  // accumulates the population session statistics of `sessions` in device
  // order (byte-identical double sums). A column that covers no device
  // (streamed churn) leaves every session statistic zero.
  void init(std::span<const Device> devices, const SessionColumn& sessions,
            std::size_t shards);

  [[nodiscard]] std::size_t size() const { return spec.size(); }

  FleetPartition partition;

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
