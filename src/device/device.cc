#include "device/device.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>

namespace venn {

Device::Device(DeviceId id, DeviceSpec spec, std::vector<Session> sessions)
    : id_(id), spec_(spec), sessions_(std::move(sessions)) {
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    if (sessions_[i].end <= sessions_[i].start) {
      throw std::invalid_argument("Device: empty or inverted session");
    }
    if (i > 0 && sessions_[i].start < sessions_[i - 1].end) {
      throw std::invalid_argument("Device: overlapping sessions");
    }
  }
}

const Session* Device::session_at(SimTime t) const {
  const auto after = std::upper_bound(
      sessions_.begin(), sessions_.end(), t,
      [](SimTime x, const Session& s) { return x < s.start; });
  if (after == sessions_.begin()) return nullptr;
  const Session& s = *std::prev(after);
  return s.contains(t) ? &s : nullptr;
}

double Device::speed() const {
  // Map capacity in [0,1] to speed in [0.12, 1.0]: an ~8x spread between the
  // weakest and strongest devices. AI-Benchmark (the paper's Fig. 2b data
  // source) reports on-device inference times spanning roughly an order of
  // magnitude across the smartphone population, which is what makes
  // straggler-aware tier matching (§4.3) worthwhile.
  return 0.12 + 0.88 * spec_.capacity();
}

SimTime Device::sample_exec_time(double nominal, double cv, Rng& rng) const {
  if (nominal <= 0.0) throw std::invalid_argument("nominal must be > 0");
  const double mean = nominal / speed();
  return rng.lognormal_mean_cv(mean, cv);
}

}  // namespace venn
