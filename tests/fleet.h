// Test fleets: a device vector and its session column, built device by
// device with ids equal to positions — the two halves a Coordinator (or a
// standalone EligibilityIndex) takes.
#pragma once

#include <vector>

#include "device/device.h"

namespace venn {

struct Fleet {
  std::vector<Device> devices;
  SessionColumn sessions;

  Fleet& add(DeviceSpec spec, const std::vector<Session>& ss = {}) {
    devices.emplace_back(DeviceId(static_cast<std::int64_t>(devices.size())),
                         spec);
    sessions.push_device(ss);
    return *this;
  }
};

}  // namespace venn
