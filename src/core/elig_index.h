// Incremental eligibility index over a device population.
//
// The scheduling hot path used to rescan the whole fleet on every supply
// query: `Coordinator::supply_rate` walked all devices (and, without a churn
// model, all of their sessions) per job registration, and every idle-pool
// sweep offered every parked device to the manager regardless of whether any
// pending job could take it. This index makes those costs incremental:
//
//   * each device carries a cached *eligibility signature* — the bitmask of
//     registered job requirements it satisfies, the same ≤64-group atoms
//     `compute_irs_plan` consumes — updated only when a new distinct
//     requirement arrives (job arrival), never per scheduling decision;
//   * the rebucket pass that sets a requirement's bit also sums, per region
//     of the coordinator's topology::RegionMap (one region in flat mode),
//     the eligible devices and their trace-session check-ins. Those
//     *supply partials* are the only supply path: a supply query adds up
//     one requirement's partials, O(regions) instead of O(devices). Every
//     quantity is an integer count or an integer-valued double sum, so the
//     result equals a brute-force fleet scan bit for bit, which tests assert
//     (tests/elig_index_test.cc, tests/supply_oracle_test.cc).
//
// Storage note: the per-device columns the index maintains — the signature
// cache, and the spec and session-count columns the rebucket pass reads —
// live in the fleet's struct-of-arrays FleetHotState (device/fleet.h), not
// in this class. The index works over a store it does not own (the
// coordinator's, or in tests one built over a test fleet), so the sweep
// filter can AND the very same contiguous `signature` array against the
// manager's wants mask with no per-device indirection. The index is the
// sole writer of the signature column.
//
// Requirement bits come from one SignatureSpace (device/eligibility.h),
// which the index also does not own: the coordinator's index registers
// into the resource manager's space, so a bit means the same requirement
// to both. Requirements the space gains from another registrant are
// rebucketed before the column is read (`signatures()`), so the column
// carries every bit of the space however the registrations were ordered.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "device/eligibility.h"
#include "device/fleet.h"
#include "topology/topology.h"

namespace venn {

class EligibilityIndex {
 public:
  struct MaintenanceStats {
    std::uint64_t requirement_registrations = 0;  // distinct requirements
    std::uint64_t device_rescans = 0;  // device visits across registrations
  };

  // Builds the index over an already-initialized store (the coordinator's
  // FleetHotState), a requirement space (the resource manager's) and a
  // region partition of exactly the store's devices. The index becomes the
  // sole writer of `hot.signature` and reads `hot.spec` /
  // `hot.session_checkins`; the store and the space must outlive the
  // index.
  EligibilityIndex(FleetHotState& hot, SignatureSpace& space,
                   const topology::RegionMap& regions);

  // Registers `req` in the space (idempotent), returns its bit index. A new
  // distinct requirement rebuckets the population once — O(devices) per
  // *distinct* requirement, O(#requirements) afterwards — instead of every
  // supply query paying a fleet scan.
  std::size_t register_requirement(const Requirement& req);

  // The signature column, after rebucketing every bit the space gained
  // since the last call (a requirement the manager registered first).
  // O(1) when the space is unchanged.
  [[nodiscard]] const std::uint64_t* signatures() {
    if (bucketed_ < space_->size()) sync();
    return hot_->signature.data();
  }

  [[nodiscard]] std::size_t num_requirements() const {
    return space_->size();
  }
  [[nodiscard]] const Requirement& requirement(std::size_t idx) const {
    return space_->requirement(idx);
  }

  // Cached signature of the device at `dev_idx` over the bucketed
  // requirements (bit g set iff requirement g is satisfied).
  [[nodiscard]] std::uint64_t signature(std::size_t dev_idx) const {
    return hot_->signature[dev_idx];
  }

  [[nodiscard]] std::size_t num_devices() const {
    return hot_->signature.size();
  }

  // Supply partials of requirement bit `group`, one per region in region
  // order: the region's eligible devices and their session check-ins.
  // Empty for a bit not yet rebucketed.
  [[nodiscard]] std::span<const topology::RegionSupply> partials(
      std::size_t group) const {
    if (group >= bucketed_) return {};
    const std::size_t nregions = regions_.regions();
    return {partials_.data() + group * nregions, nregions};
  }

  // Eligible-device count for requirement bit `group`: the sum of its
  // partials.
  [[nodiscard]] std::size_t eligible_count(std::size_t group) const;

  [[nodiscard]] const MaintenanceStats& maintenance_stats() const {
    return mstats_;
  }

 private:
  // Rebuckets the space's bits [bucketed_, size()), one pass each.
  void sync();

  FleetHotState* hot_ = nullptr;
  SignatureSpace* space_ = nullptr;
  topology::RegionMap regions_;
  std::size_t bucketed_ = 0;  // space bits already in the column
  // partials_[bit * regions + r]: region r's partial for requirement bit.
  std::vector<topology::RegionSupply> partials_;
  MaintenanceStats mstats_;
};

}  // namespace venn
