#include "trace/availability.h"

#include <algorithm>
#include <cmath>

namespace venn::trace {

double sample_preferred_hour(const AvailabilityConfig& cfg, Rng& rng) {
  // Per-device preferred start hour, fixed across days (same person, same
  // routine) with small day-to-day jitter applied per session.
  return cfg.peak_hour + rng.normal(0.0, cfg.peak_spread_hours);
}

void append_day_sessions(const AvailabilityConfig& cfg, int day,
                         double preferred_hour, Rng& rng,
                         std::vector<Session>& out) {
  if (!rng.bernoulli(cfg.daily_online_prob)) return;

  const double jitter = rng.normal(0.0, 0.75);
  double start_h = preferred_hour + jitter;
  const double dur_h = std::max(
      0.25, rng.lognormal_mean_cv(cfg.mean_session_hours, cfg.session_cv));
  SimTime start = day * kDay + start_h * kHour;
  SimTime end = start + dur_h * kHour;
  if (start < 0.0) start = 0.0;
  if (end > start) out.push_back({start, end});

  if (rng.bernoulli(cfg.extra_session_prob)) {
    // Daytime top-up charge, uniform over working hours.
    const double s_h = rng.uniform(9.0, 18.0);
    const double d_h = std::max(
        0.1, rng.lognormal_mean_cv(cfg.extra_session_hours, cfg.session_cv));
    out.push_back(
        {day * kDay + s_h * kHour, day * kDay + (s_h + d_h) * kHour});
  }
}

std::vector<Session> generate_sessions(const AvailabilityConfig& cfg,
                                       Rng& rng) {
  std::vector<Session> sessions;
  const int days = static_cast<int>(std::ceil(cfg.horizon / kDay));
  const double preferred = sample_preferred_hour(cfg, rng);
  for (int day = 0; day < days; ++day) {
    append_day_sessions(cfg, day, preferred, rng, sessions);
  }

  std::sort(sessions.begin(), sessions.end(),
            [](const Session& a, const Session& b) { return a.start < b.start; });

  // Merge overlaps and clip to horizon.
  std::vector<Session> merged;
  for (const auto& s : sessions) {
    Session clipped{std::max(0.0, s.start), std::min(cfg.horizon, s.end)};
    if (clipped.end <= clipped.start) continue;
    if (!merged.empty() && clipped.start < merged.back().end) {
      merged.back().end = std::max(merged.back().end, clipped.end);
    } else {
      merged.push_back(clipped);
    }
  }
  return merged;
}

std::size_t max_sessions(const AvailabilityConfig& cfg) {
  return 2 * static_cast<std::size_t>(std::ceil(cfg.horizon / kDay));
}

std::vector<AvailabilityPoint> availability_curve(
    const SessionColumn& sessions, SimTime horizon, SimTime step) {
  std::vector<AvailabilityPoint> curve;
  const std::size_t devices = sessions.devices();
  if (devices == 0 || step <= 0.0) return curve;
  for (SimTime t = 0.0; t <= horizon; t += step) {
    std::size_t online = 0;
    for (std::size_t d = 0; d < devices; ++d) {
      for (const auto& s : sessions.of(d)) {
        if (s.contains(t)) {
          ++online;
          break;
        }
        if (s.start > t) break;
      }
    }
    curve.push_back(
        {t, static_cast<double>(online) / static_cast<double>(devices)});
  }
  return curve;
}

}  // namespace venn::trace
