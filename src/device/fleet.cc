#include "device/fleet.h"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <utility>

namespace venn {

void FleetHotState::init(std::vector<DeviceSpec> specs,
                         const SessionColumn& sessions) {
  const std::size_t n = specs.size();
  if (sessions.devices() != 0 && sessions.devices() != n) {
    throw std::invalid_argument("FleetHotState: session column size mismatch");
  }

  spec = std::move(specs);
  signature.assign(n, 0);
  idle_pos.assign(n, 0);
  participation_day.assign(n, kNeverParticipated);
  session_checkins.assign(n, 0.0);

  session_span = 0.0;
  session_time = 0.0;
  session_count = 0.0;

  // One pass in device order, so every double aggregate reproduces a
  // per-device scan bit for bit.
  for (std::size_t d = 0; d < sessions.devices(); ++d) {
    const std::span<const Session> ss = sessions.of(d);
    session_checkins[d] = static_cast<double>(ss.size());
    if (!ss.empty()) session_span = std::max(session_span, ss.back().end);
    for (const Session& s : ss) {
      session_time += s.duration();
      session_count += 1.0;
    }
  }
}

}  // namespace venn
