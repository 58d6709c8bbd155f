#include "api/builder.h"

#include "api/live.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "journal/writer.h"
#include "sim/engine.h"
#include "topology/topology.h"
#include "util/logging.h"

namespace venn::api {

namespace {

// The open-loop flag and the dotted knobs only make sense with the matching
// generator families configured; catch the mismatch before a run.
void validate_modes(const ScenarioSpec& s) {
  // Dotted knobs without a family name would otherwise be dropped silently
  // (`--churn.up-scale-h=4` with `--churn=weibull` forgotten).
  const std::pair<const workload::GeneratorSpec*, const char*> families[] = {
      {&s.arrival_gen, "arrival"},
      {&s.mix_gen, "mix"},
      {&s.churn_gen, "churn"},
      {&s.protocol_gen, "protocol"}};
  for (const auto& [spec, prefix] : families) {
    if (!spec->configured() && !spec->params.kv.empty()) {
      throw std::invalid_argument(
          std::string(prefix) + "." + spec->params.kv.begin()->first +
          " is set but no " + prefix + "=<name> is configured");
    }
  }
  if (s.open_loop &&
      (!s.arrival_gen.configured() || !s.mix_gen.configured())) {
    throw std::invalid_argument(
        "open-loop=1 requires arrival=<name> and mix=<name>");
  }
  if (s.open_loop && s.bias) {
    // apply_bias is a batch reassignment over the full job list; per-job
    // admission cannot honor it. The `biased` mix is the per-job spelling.
    throw std::invalid_argument(
        "open-loop=1 cannot apply a scenario bias; use mix=biased "
        "(mix.category=..., mix.frac=...) instead");
  }
  if (s.open_loop && s.num_jobs == 0 && s.arrival_gen.name == "static" &&
      s.arrival_gen.params.real("spacing-min", 0.0) <= 0.0) {
    // An unspaced batch never advances time; unbounded admission would
    // admit at one timestamp forever (the coordinator's livelock guard
    // would eventually fire, but fail eagerly with a usable message).
    throw std::invalid_argument(
        "open-loop=1 with unspaced arrival=static requires a jobs=N cap "
        "(or arrival.spacing-min>0)");
  }
  // Same rule for the topology knobs: a `topo.*` override with
  // topology=hier forgotten would otherwise silently model a flat run.
  if (s.topology != "hier") {
    if (s.topo_regions) {
      throw std::invalid_argument(
          "topo.regions is set but topology=hier is not");
    }
    if (s.topo_sync_latency) {
      throw std::invalid_argument(
          "topo.sync_latency is set but topology=hier is not");
    }
    if (s.topo_phase_spread) {
      throw std::invalid_argument(
          "topo.phase_spread is set but topology=hier is not");
    }
  }
  // Mirror the dotted-knob-without-family rule for the journal knobs: a
  // configured journal.dir / journal.halt-after with journaling off would
  // otherwise be dropped silently.
  if (!s.journal_enabled) {
    if (!s.journal_dir.empty()) {
      throw std::invalid_argument("journal.dir is set but journal=1 is not");
    }
    if (s.journal_halt_after != 0) {
      throw std::invalid_argument(
          "journal.halt-after is set but journal=1 is not");
    }
  }
}

// Injects `key=value` into the spec unless the user set it explicitly, and
// only when the generator accepts the key.
template <typename Iface>
void default_key(const workload::GeneratorRegistry<Iface>& reg,
                 workload::GeneratorSpec& spec, const std::string& key,
                 const std::string& value) {
  const auto& accepted = reg.keys(spec.name);
  if (std::find(accepted.begin(), accepted.end(), key) == accepted.end()) {
    return;
  }
  spec.params.kv.emplace(key, value);
}

// Scenario-level workload keys (workload, min/max-rounds, min/max-demand,
// task-s, interarrival-min, ...) flow into the configured generators as
// parameter defaults — explicit arrival.*/mix.* knobs win — so
// `--max-demand=12 --mix=heavy-tail` means what it says instead of the
// scenario key being silently ignored on the generator path.
workload::GeneratorSet build_scenario_generators(const ScenarioSpec& s) {
  workload::GeneratorSpec arrival = s.arrival_gen;
  workload::GeneratorSpec mix = s.mix_gen;
  if (arrival.configured()) {
    default_key(workload::arrival_registry(), arrival, "interarrival-min",
                std::to_string(s.job_trace.mean_interarrival / kMinute));
  }
  if (mix.configured()) {
    const auto& reg = workload::mix_registry();
    const trace::JobTraceConfig& jt = s.job_trace;
    default_key(reg, mix, "workload", trace::workload_cli_name(s.workload));
    default_key(reg, mix, "base-trace", std::to_string(jt.base_trace_size));
    default_key(reg, mix, "min-rounds", std::to_string(jt.min_rounds));
    default_key(reg, mix, "max-rounds", std::to_string(jt.max_rounds));
    default_key(reg, mix, "min-demand", std::to_string(jt.min_demand));
    default_key(reg, mix, "max-demand", std::to_string(jt.max_demand));
    default_key(reg, mix, "task-s", std::to_string(jt.nominal_task_s));
    default_key(reg, mix, "task-cv", std::to_string(jt.task_cv));
  }
  return workload::build_generators(arrival, mix, s.churn_gen, s.seed);
}

// Hierarchical topology: shift each device's availability sessions by its
// region's diurnal phase offset (timezone spread across a geo-distributed
// fleet), in place in the session column. Sessions pushed wholly past the
// horizon are dropped. Skipped entirely at phase_spread=0 — the
// zero-offset case must leave the world bit-for-bit untouched (the
// flat-equivalence contract). A streamed churn fleet has no column to
// shift: the coordinator applies the offset as it pulls from the stream.
void apply_region_phases(SessionColumn& sessions,
                         const topology::TopologySpec& topo, SimTime horizon) {
  if (!topo.hier || topo.phase_spread_h == 0.0) return;
  const topology::RegionMap map(sessions.devices(), topo.regions);
  sessions.shift(
      [&](std::size_t d) {
        return topology::phase_offset(topo, map.region_of(d));
      },
      horizon);
}

}  // namespace

ExperimentInputs build_inputs(const ScenarioSpec& s) {
  return build_inputs(s, build_scenario_generators(s));
}

std::uint64_t inputs_digest(const ExperimentInputs& in) {
  std::uint64_t h = journal::kFnvOffset;
  const auto mix_u64 = [&h](std::uint64_t v) {
    h = journal::fnv1a64(h, &v, sizeof v);
  };
  const auto mix_f64 = [&mix_u64](double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);  // raw IEEE-754 — exact
    mix_u64(bits);
  };
  mix_u64(static_cast<std::uint64_t>(in.devices.size()));
  for (std::size_t i = 0; i < in.devices.size(); ++i) {
    mix_u64(static_cast<std::uint64_t>(i));  // the device id
    mix_f64(in.devices[i].cpu_score);
    mix_f64(in.devices[i].mem_score);
    const std::span<const Session> ss =
        i < in.sessions.devices() ? in.sessions.of(i)
                                  : std::span<const Session>{};
    mix_u64(static_cast<std::uint64_t>(ss.size()));
    for (const Session& s : ss) {
      mix_f64(s.start);
      mix_f64(s.end);
    }
  }
  mix_u64(static_cast<std::uint64_t>(in.jobs.size()));
  for (const trace::JobSpec& j : in.jobs) {
    mix_u64(static_cast<std::uint64_t>(j.rounds));
    mix_u64(static_cast<std::uint64_t>(j.demand));
    mix_u64(static_cast<std::uint64_t>(j.category));
    mix_f64(j.arrival);
    mix_f64(j.nominal_task_s);
    mix_f64(j.task_cv);
    mix_f64(j.deadline_s);
  }
  return h;
}

std::string journal_file_path(const ScenarioSpec& scenario,
                              const std::string& label) {
  const std::string dir =
      scenario.journal_dir.empty() ? "." : scenario.journal_dir;
  return dir + "/" + scenario.name + "-" + label + ".vjl";
}

ExperimentInputs build_inputs(const ScenarioSpec& s,
                              const workload::GeneratorSet& gens) {
  validate_modes(s);
  ExperimentInputs in;
  // Dedicated streams so population and workload are independent of each
  // other and of anything the policies draw later.
  Rng root(s.seed);
  Rng dev_rng = root.fork();
  Rng job_rng = root.fork();

  // Devices: hardware specs from the mixture. A churn model's sessions
  // stream from it at run time, so its fleet gets no session column; the
  // diurnal generator draws from the same sequential dev_rng as the specs,
  // so its sessions are generated here.
  trace::AvailabilityConfig avail = s.availability;
  avail.horizon = s.horizon;
  in.devices.reserve(s.num_devices);
  if (gens.churn == nullptr) {
    in.sessions.reserve(s.num_devices * trace::max_sessions(avail));
  }
  for (std::size_t i = 0; i < s.num_devices; ++i) {
    in.devices.push_back(trace::sample_spec(s.hardware, dev_rng));
    if (gens.churn == nullptr) {
      in.sessions.push_device(trace::generate_sessions(avail, dev_rng));
    }
  }
  apply_region_phases(in.sessions, s.topology_spec(), s.horizon);

  // Jobs: open-loop scenarios admit them at run time.
  if (s.open_loop) return in;

  if (gens.mix != nullptr) {
    Rng mix_rng(Rng::derive(s.seed, "mix"));
    in.jobs.reserve(s.num_jobs);
    for (std::size_t i = 0; i < s.num_jobs; ++i) {
      in.jobs.push_back(gens.mix->sample(mix_rng));
    }
    // The §5.4 bias applies to generator-sampled jobs too.
    if (s.bias) {
      Rng bias_rng(Rng::derive(s.seed, "bias"));
      trace::apply_bias(in.jobs, *s.bias, bias_rng);
    }
  } else {
    const auto base = trace::generate_base_trace(s.job_trace, job_rng);
    in.jobs = trace::sample_workload(base, s.workload, s.num_jobs,
                                     s.job_trace, job_rng);
    if (s.bias) trace::apply_bias(in.jobs, *s.bias, job_rng);
  }

  if (gens.arrival != nullptr) {
    const auto arrivals = workload::materialize_arrivals(
        *gens.arrival, in.jobs.size(), s.horizon,
        Rng(Rng::derive(s.seed, "arrival")));
    if (arrivals.size() < in.jobs.size()) {
      VENN_WARN << "scenario \"" << s.name << "\": arrival process \""
                << s.arrival_gen.name << "\" yielded only " << arrivals.size()
                << " of " << in.jobs.size()
                << " requested jobs before the horizon; truncating";
      in.jobs.resize(arrivals.size());
    }
    for (std::size_t i = 0; i < in.jobs.size(); ++i) {
      in.jobs[i].arrival = arrivals[i];
    }
  } else if (gens.mix != nullptr) {
    // Mix without an arrival process: default Poisson submission times.
    Rng arr_rng(Rng::derive(s.seed, "arrival"));
    SimTime t = 0.0;
    for (auto& j : in.jobs) {
      t += arr_rng.exponential(1.0 / s.job_trace.mean_interarrival);
      j.arrival = t;
    }
  }
  return in;
}

Experiment::Experiment(ScenarioSpec scenario, ExperimentInputs inputs,
                       std::vector<RunObserver*> observers)
    : Experiment(std::move(scenario), std::move(inputs), nullptr,
                 std::move(observers)) {}

Experiment::Experiment(
    ScenarioSpec scenario, ExperimentInputs inputs,
    std::shared_ptr<const workload::GeneratorSet> generators,
    std::vector<RunObserver*> observers)
    : scenario_(std::move(scenario)),
      inputs_(std::move(inputs)),
      generators_(std::move(generators)),
      observers_(std::move(observers)) {
  validate_modes(scenario_);
  if (!generators_) {
    generators_ = std::make_shared<const workload::GeneratorSet>(
        build_scenario_generators(scenario_));
  }
  // Instantiating here (not per run) makes protocol knob validation an
  // Experiment-construction error, like generator knob validation.
  protocol_ = protocol::build_protocol(scenario_.protocol_gen,
                                       stream_seed("protocol"));
}

std::uint64_t Experiment::stream_seed(std::string_view tag) const {
  return Rng::derive(scenario_.seed, tag);
}

RunResult Experiment::run(const PolicySpec& policy) const {
  auto scheduler = PolicyRegistry::instance().create(policy.name, policy.params,
                                                     stream_seed("scheduler"));
  if (!scenario_.journal_enabled) {
    return run_with_sink(std::move(scheduler), {}, nullptr);
  }
  const std::string label = scheduler->name();
  journal::JournalHeader header;
  header.seed = scenario_.seed;
  header.scenario_kv = scenario_.to_kv();
  header.policy_kv = policy.to_kv();
  header.label = label;
  header.inputs_digest = inputs_digest(inputs_);
  if (!scenario_.journal_dir.empty()) {
    std::filesystem::create_directories(scenario_.journal_dir);
  }
  journal::JournalWriter writer(journal_file_path(scenario_, label), header);
  if (scenario_.journal_halt_after != 0) {
    writer.set_halt_after_commits(scenario_.journal_halt_after);
  }
  return run_with_sink(std::move(scheduler), label, &writer);
}

RunResult Experiment::run_with(std::unique_ptr<Scheduler> scheduler,
                               std::string label) const {
  if (scenario_.journal_enabled) {
    // The journal header records the policy's canonical key=value form so
    // replay can re-instantiate it; an externally constructed scheduler
    // has none. Journaled runs must name a registered policy.
    throw std::invalid_argument(
        "journal=1 requires a registered policy (Experiment::run); "
        "run_with cannot journal an externally constructed scheduler");
  }
  return run_with_sink(std::move(scheduler), std::move(label), nullptr);
}

RunResult Experiment::run_with_sink(std::unique_ptr<Scheduler> scheduler,
                                    std::string label,
                                    journal::JournalSink* sink) const {
  if (!scheduler) {
    throw std::invalid_argument("run_with: scheduler must not be null");
  }
  // A batch run is a live session advanced to the horizon in one breath:
  // start() schedules the trace, finish() runs it and collects. The live
  // daemon and the replay driver pace the same stack step by step, so the
  // recorded and the re-executed run share one construction path.
  LiveSession session(*this, std::move(scheduler), std::move(label), sink);
  session.start();
  return session.finish();
}

ExperimentBuilder& ExperimentBuilder::scenario(ScenarioSpec s) {
  scenario_ = std::move(s);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::policy(PolicySpec p) {
  policy_ = std::move(p);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::name(std::string v) {
  scenario_.name = std::move(v);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::seed(std::uint64_t v) {
  scenario_.seed = v;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::devices(std::size_t n) {
  scenario_.num_devices = n;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::jobs(std::size_t n) {
  scenario_.num_jobs = n;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::workload(trace::Workload w) {
  scenario_.workload = w;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::bias(trace::BiasedWorkload b) {
  scenario_.bias = b;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::horizon(SimTime t) {
  scenario_.horizon = t;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::rounds(int min, int max) {
  scenario_.job_trace.min_rounds = min;
  scenario_.job_trace.max_rounds = max;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::demand(int min, int max) {
  scenario_.job_trace.min_demand = min;
  scenario_.job_trace.max_demand = max;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::interarrival(SimTime mean) {
  scenario_.job_trace.mean_interarrival = mean;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::set(const std::string& key,
                                          const std::string& value) {
  if (!scenario_.try_set(key, value) && !policy_.try_set(key, value)) {
    throw std::invalid_argument("unknown experiment key \"" + key + "\"");
  }
  return *this;
}

ExperimentBuilder& ExperimentBuilder::override_kv(const std::string& token) {
  const auto eq = token.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw std::invalid_argument("override must be key=value, got \"" + token +
                                "\"");
  }
  return set(token.substr(0, eq), token.substr(eq + 1));
}

ExperimentBuilder& ExperimentBuilder::use_devices(
    std::vector<DeviceSpec> devices, SessionColumn sessions) {
  devices_override_ = std::move(devices);
  sessions_override_ = std::move(sessions);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::use_jobs(
    std::vector<trace::JobSpec> jobs) {
  jobs_override_ = std::move(jobs);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::observe(RunObserver& obs) {
  observers_.push_back(&obs);
  return *this;
}

Experiment ExperimentBuilder::build() const {
  auto generators = std::make_shared<const workload::GeneratorSet>(
      build_scenario_generators(scenario_));
  ExperimentInputs inputs;
  if (!devices_override_ || !jobs_override_) {
    inputs = build_inputs(scenario_, *generators);
  }
  if (devices_override_) {
    const std::size_t covered = sessions_override_->devices();
    if (covered != 0 && covered != devices_override_->size()) {
      throw std::invalid_argument(
          "use_devices: the session column covers " + std::to_string(covered) +
          " devices but " + std::to_string(devices_override_->size()) +
          " device specs were given (it must cover all of them, or none "
          "when the sessions stream from a churn model)");
    }
    inputs.devices = *devices_override_;
    inputs.sessions = *sessions_override_;
  }
  if (jobs_override_) inputs.jobs = *jobs_override_;
  return Experiment(scenario_, std::move(inputs), std::move(generators),
                    observers_);
}

RunResult ExperimentBuilder::run() const { return build().run(policy_); }

}  // namespace venn::api
