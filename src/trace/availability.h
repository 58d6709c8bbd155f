// Synthetic device-availability trace with a diurnal pattern.
//
// Substitute for the FedScale client-availability trace used by the paper
// (§2.1, Fig. 2a: the fraction of available devices oscillates daily between
// roughly 15% and 30% of the population). Devices are modelled as mostly
// available during a personal "plugged-in window" (overnight charging +
// WiFi) whose start hour varies across the population, plus occasional
// daytime sessions. The scheduler only observes the resulting check-in /
// leave event stream, so matching the rate shape is sufficient fidelity.
// The legacy scenario path draws each device's sessions from the Rng its
// hardware spec uses, so it cannot stream without changing every seeded
// run: it fills a SessionColumn at setup. `churn=diurnal` streams.
#pragma once

#include <vector>

#include "device/device.h"
#include "util/ids.h"
#include "util/rng.h"

namespace venn::trace {

struct AvailabilityConfig {
  SimTime horizon = 7 * kDay;  // length of generated trace
  // Mean of the population's preferred session start hour (local time).
  double peak_hour = 22.0;
  // Spread of preferred start hours across devices (hours).
  double peak_spread_hours = 4.0;
  // Mean / cv of session duration (log-normal).
  double mean_session_hours = 6.0;
  double session_cv = 0.5;
  // Probability a device is online at all on a given day.
  double daily_online_prob = 0.85;
  // Probability of an extra short daytime session on a given day.
  double extra_session_prob = 0.25;
  double extra_session_hours = 1.5;
};

// Generates sorted, non-overlapping sessions for one device.
std::vector<Session> generate_sessions(const AvailabilityConfig& cfg,
                                       Rng& rng);
// Upper bound on generate_sessions' output size (two sessions a day), so
// a fleet's session column can be reserved once up front.
std::size_t max_sessions(const AvailabilityConfig& cfg);

// Building blocks of generate_sessions, shared with the lazy per-day
// streaming variant (workload/churn.h, `churn=diurnal`): the per-device
// preferred start hour, and the raw (unclipped, unmerged) sessions of one
// day. Draw order is part of the contract — both callers must produce the
// same stream of Rng draws for a given config.
double sample_preferred_hour(const AvailabilityConfig& cfg, Rng& rng);
void append_day_sessions(const AvailabilityConfig& cfg, int day,
                         double preferred_hour, Rng& rng,
                         std::vector<Session>& out);

// Fraction of the column's devices online at each multiple of `step` over
// the horizon — the series behind Fig. 2a.
struct AvailabilityPoint {
  SimTime t = 0.0;
  double fraction_online = 0.0;
};
std::vector<AvailabilityPoint> availability_curve(
    const SessionColumn& sessions, SimTime horizon, SimTime step);

}  // namespace venn::trace
