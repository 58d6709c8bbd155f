// Device-churn models: when devices are online.
//
// The paper drives everything off a diurnal client-availability trace
// (§2.1, Fig. 2a); this family makes device churn a scenario knob and —
// crucially — a *lazy* one. A model hands out per-device ChurnStreams that
// produce one session at a time; the coordinator's per-device session
// cursor pulls each one when the session before it starts, so a
// million-device population costs O(devices) memory instead of
// O(devices × horizon) sessions. Every churn run streams;
// materialize_sessions drains a stream for analyses and for the tests
// that replay a drained stream as a trace.
//
// Built-ins (churn=<name>, knobs as churn.<key>=<value>):
//   diurnal      the trace/availability.h model, streamed day by day
//                  peak-hour, peak-spread-h, session-h, session-cv,
//                  daily-online, extra-prob, extra-h
//   weibull      alternating Weibull on/off renewal process
//                  up-shape, up-scale-h, down-shape, down-scale-h,
//                  initial-online
//   flash-crowd  exponential on/off baseline + synchronized flash windows
//                  base-up-h, base-down-h, first-day, period-days, dur-h,
//                  join-prob
//   trace        CSV replay: lines `device,start_s,end_s`
//                  file (required)
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "device/device.h"
#include "util/ids.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace venn::workload {

// Identity of one device's stream. `seed` drives all randomness (derive it
// per device from the scenario seed: Rng::derive(churn_seed, index));
// `index` keys deterministic per-device data such as trace-replay rows;
// sessions stop before `horizon` (ends clipped to it).
struct DeviceStreamCtx {
  std::size_t index = 0;
  std::uint64_t seed = 0;
  SimTime horizon = 0.0;
};

// Lazy, monotone stream of non-overlapping sessions for one device.
// next() returns nullopt once the horizon is exhausted.
class ChurnStream {
 public:
  virtual ~ChurnStream() = default;
  [[nodiscard]] virtual std::optional<Session> next() = 0;
};

class ChurnModel {
 public:
  virtual ~ChurnModel() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::unique_ptr<ChurnStream> stream(
      const DeviceStreamCtx& ctx) const = 0;

  // Analytic shape statistics, used for supply-rate estimates (the §4.4
  // fairness bound) of churn runs, whose sessions the coordinator never
  // holds all at once.
  [[nodiscard]] virtual double mean_sessions_per_day() const = 0;
  [[nodiscard]] virtual double mean_session_seconds() const = 0;
};

// The churn-model registry, built-ins pre-registered.
[[nodiscard]] GeneratorRegistry<ChurnModel>& churn_registry();

// Drains one device's stream into a sorted session vector (analyses, and
// the reference side of the tests that replay a stream as a trace).
[[nodiscard]] std::vector<Session> materialize_sessions(
    const ChurnModel& model, const DeviceStreamCtx& ctx);

// THE per-device stream identity for a scenario: the coordinator derives
// every device's stream through this one function, so anything else that
// drains a device's sessions (a reference run replaying them as a trace,
// say) sees the identical world byte for byte.
[[nodiscard]] inline DeviceStreamCtx device_stream_ctx(
    std::uint64_t scenario_seed, std::size_t index, SimTime horizon) {
  const std::uint64_t churn_seed = Rng::derive(scenario_seed, "churn");
  return {index, Rng::derive(churn_seed, static_cast<std::uint64_t>(index)),
          horizon};
}

}  // namespace venn::workload
