// Test fleets: the device specs and their session column, built device by
// device (a device's id is its position) — the two halves a Coordinator
// takes — and the hot-state store and requirement space an
// EligibilityIndex works over.
#pragma once

#include <vector>

#include "device/eligibility.h"
#include "device/fleet.h"

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

// A hot-state store over a fleet, laid out as a coordinator lays it out,
// and a private requirement space: what a coordinator hands its
// eligibility index. Non-movable, because the index keeps their addresses.
struct IndexedFleet {
  explicit IndexedFleet(const Fleet& fleet) {
    hot.init(fleet.devices, fleet.sessions);
  }
  IndexedFleet(const IndexedFleet&) = delete;
  IndexedFleet& operator=(const IndexedFleet&) = delete;

  FleetHotState hot;
  SignatureSpace space;
};

}  // namespace venn
