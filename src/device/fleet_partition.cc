#include "device/fleet_partition.h"

#include <algorithm>
#include <stdexcept>

#include "device/device.h"

namespace venn {

void FleetHotState::init(std::span<const Device> devices,
                         const SessionColumn& sessions) {
  const std::size_t n = devices.size();
  if (sessions.devices() != 0 && sessions.devices() != n) {
    throw std::invalid_argument("FleetHotState: session column size mismatch");
  }

  signature.assign(n, 0);
  idle_pos.assign(n, 0);
  participation_day.assign(n, Device::kNeverParticipated);
  spec.clear();
  spec.reserve(n);
  session_checkins.assign(n, 0.0);
  session_last_end.assign(n, 0.0);

  session_span = 0.0;
  session_time = 0.0;
  session_count = 0.0;

  for (const Device& d : devices) spec.push_back(d.spec());
  // One pass in device order, so every double aggregate reproduces a
  // per-device scan bit for bit.
  for (std::size_t d = 0; d < sessions.devices(); ++d) {
    const std::span<const Session> ss = sessions.of(d);
    session_checkins[d] = static_cast<double>(ss.size());
    if (!ss.empty()) {
      session_last_end[d] = ss.back().end;
      session_span = std::max(session_span, ss.back().end);
    }
    for (const Session& s : ss) {
      session_time += s.duration();
      session_count += 1.0;
    }
  }
}

}  // namespace venn
