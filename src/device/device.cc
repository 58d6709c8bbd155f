#include "device/device.h"

#include <stdexcept>

namespace venn {

void SessionColumn::push_device(std::span<const Session> sessions) {
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    if (sessions[i].end <= sessions[i].start) {
      throw std::invalid_argument("SessionColumn: empty or inverted session");
    }
    if (i > 0 && sessions[i].start < sessions[i - 1].end) {
      throw std::invalid_argument("SessionColumn: overlapping sessions");
    }
  }
  Data& d = own();
  d.sessions.insert(d.sessions.end(), sessions.begin(), sessions.end());
  d.offsets.push_back(d.sessions.size());
}

double speed(const DeviceSpec& spec) {
  // Map capacity in [0,1] to speed in [0.12, 1.0]: an ~8x spread between the
  // weakest and strongest devices. AI-Benchmark (the paper's Fig. 2b data
  // source) reports on-device inference times spanning roughly an order of
  // magnitude across the smartphone population, which is what makes
  // straggler-aware tier matching (§4.3) worthwhile.
  return 0.12 + 0.88 * spec.capacity();
}

SimTime sample_exec_time(const DeviceSpec& spec, double nominal, double cv,
                         Rng& rng) {
  if (nominal <= 0.0) throw std::invalid_argument("nominal must be > 0");
  const double mean = nominal / speed(spec);
  return rng.lognormal_mean_cv(mean, cv);
}

}  // namespace venn
