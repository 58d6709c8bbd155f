// Incremental eligibility/availability index over a device population.
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
//   * devices are bucketed per signature into *atom buckets* holding the
//     device count and the total trace-session check-in count, so
//     eligible-supply queries are O(#atoms) instead of O(devices);
//   * population session statistics (span, mean session seconds) are
//     computed once at construction in device order, so index-backed
//     estimates are byte-identical to a brute-force fleet scan, which tests
//     assert (tests/elig_index_test.cc, tests/supply_oracle_test.cc).
//
// Storage note: the per-device columns the index maintains — the signature
// cache, the dense spec copy the rebucket predicate reads, the per-device
// session counts — live in the fleet's struct-of-arrays FleetHotState
// (device/fleet_partition.h), not in this class. The coordinator owns that
// store and shares it by reference, so the sweep filter can AND the very
// same contiguous `signature` array against the manager's wants mask with
// no per-device indirection; a standalone index (tests, benches) owns a
// private store instead. Either way the index is the sole writer of the
// signature column.
//
// Requirement bits come from one SignatureSpace (device/eligibility.h):
// the coordinator's index registers into the resource manager's space, so
// a bit means the same requirement to both, and a standalone index owns a
// private space the way it owns a private store. Requirements the space
// gains from another registrant are rebucketed before the column is read
// (`signatures()`), so the column carries every bit of the space however
// the registrations were ordered.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>

#include "device/device.h"
#include "device/eligibility.h"
#include "device/fleet_partition.h"

namespace venn {

class EligibilityIndex {
 public:
  // One eligibility atom: the devices sharing a signature.
  struct Atom {
    std::size_t device_count = 0;
    // Total number of trace sessions (= daily-averaged check-ins
    // numerator) of the bucket's devices. Integer-valued, stored as double
    // so sums reproduce a per-device double accumulation exactly.
    double session_checkins = 0.0;
  };

  struct MaintenanceStats {
    std::uint64_t requirement_registrations = 0;  // distinct requirements
    std::uint64_t device_rescans = 0;  // device visits across registrations
  };

  // Builds the index over a fixed population with a privately owned
  // hot-state store and requirement space. Devices are identified by their
  // position in `devices` for the index's lifetime; `sessions` is their
  // trace (a column covering no device for streaming-churn populations).
  EligibilityIndex(std::span<const Device> devices,
                   const SessionColumn& sessions);

  // Builds the index over an externally owned, already-initialized store
  // (the coordinator's FleetHotState) and requirement space (the resource
  // manager's). The index becomes the sole writer of `hot.signature` and
  // reads `hot.spec` / `hot.session_checkins`; both must outlive the index,
  // and `hot` must have been init'ed over the same device population.
  EligibilityIndex(FleetHotState& hot, SignatureSpace& space);

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

  // Eligible-device count for requirement bit `group`: O(#atoms).
  [[nodiscard]] std::size_t eligible_count(std::size_t group) const;

  // Total trace-session count of eligible devices for requirement
  // bit `group` (the supply rate's check-in numerator): O(#atoms).
  [[nodiscard]] double eligible_session_checkins(std::size_t group) const;

  // --- population session statistics (accumulated once at store init) -----
  // Latest session end over all devices (the supply rate's averaging span).
  [[nodiscard]] SimTime session_span() const { return hot_->session_span; }
  // Total session time / count over all devices, accumulated in device
  // order.
  [[nodiscard]] double total_session_seconds() const {
    return hot_->session_time;
  }
  [[nodiscard]] double total_session_count() const {
    return hot_->session_count;
  }
  [[nodiscard]] bool has_sessions() const { return hot_->session_count > 0.0; }
  [[nodiscard]] double mean_session_seconds() const {
    return hot_->session_time / hot_->session_count;
  }

  // Atom buckets keyed by signature (signature 0 = devices eligible for no
  // registered requirement). Exposed for tests and benches.
  [[nodiscard]] const std::unordered_map<std::uint64_t, Atom>& atoms() const {
    return atoms_;
  }

  [[nodiscard]] const MaintenanceStats& maintenance_stats() const {
    return mstats_;
  }

 private:
  // Seeds the signature-0 bucket from the store's columns (everything
  // starts eligible for no requirement).
  void seed_zero_bucket();

  // Rebuckets the space's bits [bucketed_, size()), one pass each.
  void sync();

  // Standalone-construction fallbacks.
  std::unique_ptr<FleetHotState> owned_;
  std::unique_ptr<SignatureSpace> owned_space_;
  FleetHotState* hot_ = nullptr;     // the store (owned_ or external)
  SignatureSpace* space_ = nullptr;  // the bits (owned_space_ or external)
  std::size_t bucketed_ = 0;         // space bits already in the column
  std::unordered_map<std::uint64_t, Atom> atoms_;
  MaintenanceStats mstats_;
};

}  // namespace venn
