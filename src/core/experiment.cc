#include "core/experiment.h"

namespace venn {

ExperimentInputs build_inputs(const ExperimentConfig& cfg) {
  ExperimentInputs in;
  // Dedicated streams so population and workload are independent of each
  // other and of anything the policies draw later.
  Rng root(cfg.seed);
  Rng dev_rng = root.fork();
  Rng job_rng = root.fork();

  in.devices.reserve(cfg.num_devices);
  trace::AvailabilityConfig avail = cfg.availability;
  avail.horizon = cfg.horizon;
  in.sessions.reserve(cfg.num_devices * trace::max_sessions(avail));
  for (std::size_t i = 0; i < cfg.num_devices; ++i) {
    in.devices.push_back(trace::sample_spec(cfg.hardware, dev_rng));
    in.sessions.push_device(trace::generate_sessions(avail, dev_rng));
  }

  const auto base = trace::generate_base_trace(cfg.job_trace, job_rng);
  in.jobs = trace::sample_workload(base, cfg.workload, cfg.num_jobs,
                                   cfg.job_trace, job_rng);
  if (cfg.bias) trace::apply_bias(in.jobs, *cfg.bias, job_rng);
  return in;
}

}  // namespace venn
