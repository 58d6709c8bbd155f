// Test fleets: the device specs and their session column, built device by
// device (a device's id is its position) — the two halves a Coordinator
// takes — and the hot-state store, requirement space and region partition
// an EligibilityIndex works over.
#pragma once

#include <vector>

#include "device/eligibility.h"
#include "device/fleet.h"
#include "topology/topology.h"

namespace venn {

struct Fleet {
  std::vector<DeviceSpec> devices;
  SessionColumn sessions;

  Fleet& add(DeviceSpec spec, const std::vector<Session>& ss = {}) {
    devices.push_back(spec);
    sessions.push_device(ss);
    return *this;
  }
};

// A hot-state store over a fleet, laid out as a coordinator lays it out, a
// private requirement space and the fleet split into `regions` contiguous
// regions (one, as in flat mode, by default): what a coordinator hands its
// eligibility index. Non-movable, because the index keeps the store's and
// the space's addresses.
struct IndexedFleet {
  explicit IndexedFleet(const Fleet& fleet, std::size_t region_count = 1)
      : regions(fleet.devices.size(), region_count) {
    hot.init(fleet.devices, fleet.sessions);
  }
  IndexedFleet(const IndexedFleet&) = delete;
  IndexedFleet& operator=(const IndexedFleet&) = delete;

  FleetHotState hot;
  SignatureSpace space;
  topology::RegionMap regions;
};

}  // namespace venn
