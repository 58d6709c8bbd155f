// Experiment input generation (legacy single-model path).
//
// Builds a device population (hardware mixture + diurnal availability) and a
// workload (base job trace + workload sampler + optional §5.4 bias). The
// device/job traces depend only on the seed — never on the policy — so
// cross-policy comparisons see identical inputs (the paper's simulator
// replays the same traces for every baseline).
//
// The closed `Policy` enum, `make_scheduler`, `run_experiment` and
// `run_with_inputs` shims that used to live here were removed as promised
// one release after deprecation; use the open, string-keyed API behind
// `venn/venn.h` (PolicyRegistry + ScenarioSpec/ExperimentBuilder). The
// scenario-level generator path (api/builder.h + src/workload/) supersedes
// this config for new worlds; it remains the byte-stable substrate for
// generator-free scenarios.
#pragma once

#include <optional>

#include "core/metrics.h"
#include "scheduler/venn_sched.h"
#include "trace/availability.h"
#include "trace/hardware.h"
#include "trace/job_trace.h"

namespace venn {

struct ExperimentConfig {
  std::uint64_t seed = 42;

  // Population. Calibrated so that the default 50-job workloads run at the
  // paper's contention level (per-round scheduling delays of minutes to a
  // few hours, Fig. 5).
  std::size_t num_devices = 7000;
  trace::AvailabilityConfig availability;
  trace::HardwareConfig hardware;

  // Workload.
  std::size_t num_jobs = 50;
  trace::Workload workload = trace::Workload::kEven;
  std::optional<trace::BiasedWorkload> bias;
  trace::JobTraceConfig job_trace;

  // Simulation.
  SimTime horizon = 28.0 * kDay;

  // Venn knobs (ignored by baselines).
  VennConfig venn;
};

// Pre-generated inputs, reusable across policies. `devices` holds each
// device's hardware spec; a device's id is its position. `sessions` is the
// devices' availability trace, one column entry per device; it covers no
// device when the sessions stream from a churn model at run time.
struct ExperimentInputs {
  std::vector<DeviceSpec> devices;
  SessionColumn sessions;
  std::vector<trace::JobSpec> jobs;
};
[[nodiscard]] ExperimentInputs build_inputs(const ExperimentConfig& cfg);

}  // namespace venn
