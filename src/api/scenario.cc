#include "api/scenario.h"

#include <cstdio>
#include <stdexcept>

#include "api/parse.h"
#include "protocol/registry.h"

namespace venn::api {

using internal::parse_double;
using internal::parse_int;
using internal::parse_long;
using internal::parse_size;
using internal::parse_u64;

trace::Workload parse_workload(const std::string& s) {
  const auto w = trace::workload_from_name(s);
  if (!w) {
    throw std::invalid_argument("unknown workload \"" + s +
                                "\" (even|small|large|low|high)");
  }
  return *w;
}

std::optional<trace::BiasedWorkload> parse_bias(const std::string& s) {
  if (s == "none") return std::nullopt;
  if (s == "general") return trace::BiasedWorkload::kGeneral;
  if (s == "compute") return trace::BiasedWorkload::kComputeHeavy;
  if (s == "memory") return trace::BiasedWorkload::kMemoryHeavy;
  if (s == "resource") return trace::BiasedWorkload::kResourceHeavy;
  throw std::invalid_argument(
      "unknown bias \"" + s + "\" (general|compute|memory|resource|none)");
}

bool ScenarioSpec::try_set(const std::string& key, const std::string& value) {
  if (key == "name") {
    name = value;
  } else if (key == "seed") {
    seed = parse_u64(key, value);
  } else if (key == "devices") {
    num_devices = parse_size(key, value);
  } else if (key == "jobs") {
    num_jobs = parse_size(key, value);
  } else if (key == "workload") {
    workload = parse_workload(value);
  } else if (key == "bias") {
    bias = parse_bias(value);
  } else if (key == "horizon-days") {
    horizon = parse_double(key, value) * kDay;
  } else if (key == "horizon-s") {
    // Exact spelling (raw seconds, no unit conversion): the one to_kv
    // emits, so a serialized horizon round-trips bit-for-bit.
    horizon = parse_double(key, value);
  } else if (key == "min-rounds") {
    job_trace.min_rounds = parse_int(key, value);
  } else if (key == "max-rounds") {
    job_trace.max_rounds = parse_int(key, value);
  } else if (key == "min-demand") {
    job_trace.min_demand = parse_int(key, value);
  } else if (key == "max-demand") {
    job_trace.max_demand = parse_int(key, value);
  } else if (key == "interarrival-min") {
    job_trace.mean_interarrival = parse_double(key, value) * kMinute;
  } else if (key == "interarrival-s") {
    job_trace.mean_interarrival = parse_double(key, value);  // exact
  } else if (key == "base-trace") {
    job_trace.base_trace_size = parse_size(key, value);
  } else if (key == "task-s") {
    job_trace.nominal_task_s = parse_double(key, value);
  } else if (key == "task-cv") {
    job_trace.task_cv = parse_double(key, value);
  } else if (key == "arrival") {
    (void)workload::arrival_registry().keys(value);  // throws on unknown name
    arrival_gen.name = value;
  } else if (key == "mix") {
    (void)workload::mix_registry().keys(value);  // throws on unknown name
    mix_gen.name = value;
  } else if (key == "churn") {
    (void)workload::churn_registry().keys(value);  // throws on unknown name
    churn_gen.name = value;
  } else if (key == "protocol") {
    (void)protocol::protocol_registry().keys(value);  // throws on unknown
    if (protocol_gen.configured() && protocol_gen.name != value) {
      // Overrides accumulate from several sources (CLI flags, sweep
      // grids, config files); two different aggregation regimes in one
      // scenario is a conflict, not a last-writer-wins.
      throw std::invalid_argument("conflicting values for protocol: \"" +
                                  protocol_gen.name + "\" vs \"" + value +
                                  "\"");
    }
    protocol_gen.name = value;
  } else if (key.starts_with("arrival.")) {
    arrival_gen.params.kv[key.substr(8)] = value;
  } else if (key.starts_with("mix.")) {
    mix_gen.params.kv[key.substr(4)] = value;
  } else if (key.starts_with("churn.")) {
    churn_gen.params.kv[key.substr(6)] = value;
  } else if (key.starts_with("protocol.")) {
    protocol_gen.params.kv[key.substr(9)] = value;
  } else if (key == "open-loop") {
    open_loop = parse_long(key, value) != 0;
  } else if (key == "shards") {
    const std::size_t n = parse_size(key, value);
    if (n < 1 || n > 64) {
      throw std::invalid_argument("shards must be in [1, 64], got \"" + value +
                                  "\"");
    }
    shards = n;
  } else if (key == "topology") {
    if (value != "flat" && value != "hier") {
      throw std::invalid_argument("unknown topology \"" + value +
                                  "\" (flat|hier)");
    }
    if (!topology.empty() && topology != value) {
      // Same rule as `protocol=`: two different coordination topologies in
      // one scenario is a conflict, not a last-writer-wins.
      throw std::invalid_argument("conflicting values for topology: \"" +
                                  topology + "\" vs \"" + value + "\"");
    }
    topology = value;
  } else if (key == "topo.regions") {
    const std::size_t n = parse_size(key, value);
    if (n < 2 || n > 64) {
      throw std::invalid_argument("topo.regions must be in [2, 64], got \"" +
                                  value + "\"");
    }
    topo_regions = n;
  } else if (key == "topo.sync_latency") {
    const double v = parse_double(key, value);
    if (v < 0.0) {
      throw std::invalid_argument(
          "topo.sync_latency (seconds) must be >= 0, got \"" + value + "\"");
    }
    topo_sync_latency = v;
  } else if (key == "topo.phase_spread") {
    const double v = parse_double(key, value);
    if (v < 0.0) {
      throw std::invalid_argument(
          "topo.phase_spread (hours) must be >= 0, got \"" + value + "\"");
    }
    topo_phase_spread = v;
  } else if (key.starts_with("topo.")) {
    // Unlike the generator families there is no registry behind `topo.*`,
    // so a typoed knob would otherwise be silently carried and never read.
    throw std::invalid_argument(
        "unknown topology key \"" + key +
        "\" (topo.regions|topo.sync_latency|topo.phase_spread)");
  } else if (key == "journal") {
    journal_enabled = parse_long(key, value) != 0;
  } else if (key == "journal.dir") {
    journal_dir = value;
  } else if (key == "snapshot_every" || key == "snapshot-every") {
    snapshot_every = parse_size(key, value);
  } else if (key == "journal.halt-after") {
    journal_halt_after = parse_size(key, value);
  } else {
    return false;
  }
  return true;
}

void ScenarioSpec::set(const std::string& key, const std::string& value) {
  if (!try_set(key, value)) {
    throw std::invalid_argument("unknown scenario key \"" + key + "\"");
  }
}

namespace {

// %.17g prints the shortest-or-17-significant-digit decimal that strtod
// maps back to the identical IEEE-754 double — the exactness the journal
// header depends on. (parse.h rejects hexfloat, so %a is not an option.)
std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string bias_cli_name(const std::optional<trace::BiasedWorkload>& b) {
  if (!b) return "none";
  switch (*b) {
    case trace::BiasedWorkload::kGeneral: return "general";
    case trace::BiasedWorkload::kComputeHeavy: return "compute";
    case trace::BiasedWorkload::kMemoryHeavy: return "memory";
    case trace::BiasedWorkload::kResourceHeavy: return "resource";
  }
  throw std::logic_error("bias_cli_name: unhandled BiasedWorkload");
}

void emit_generator(std::string& out, const std::string& family,
                    const workload::GeneratorSpec& gen) {
  if (!gen.configured()) return;
  out += family + "=" + gen.name + "\n";
  // GenParams.kv is a std::map: sorted, so the serialization is canonical.
  for (const auto& [k, v] : gen.params.kv) {
    out += family + "." + k + "=" + v + "\n";
  }
}

}  // namespace

std::string ScenarioSpec::to_kv() const {
  if (name.find('\n') != std::string::npos) {
    throw std::invalid_argument(
        "ScenarioSpec::to_kv: scenario name contains a newline");
  }
  std::string out;
  out += "name=" + name + "\n";
  out += "seed=" + std::to_string(seed) + "\n";
  out += "devices=" + std::to_string(num_devices) + "\n";
  out += "jobs=" + std::to_string(num_jobs) + "\n";
  out += "workload=" + trace::workload_cli_name(workload) + "\n";
  out += "bias=" + bias_cli_name(bias) + "\n";
  out += "horizon-s=" + fmt_double(horizon) + "\n";
  out += "min-rounds=" + std::to_string(job_trace.min_rounds) + "\n";
  out += "max-rounds=" + std::to_string(job_trace.max_rounds) + "\n";
  out += "min-demand=" + std::to_string(job_trace.min_demand) + "\n";
  out += "max-demand=" + std::to_string(job_trace.max_demand) + "\n";
  out += "interarrival-s=" + fmt_double(job_trace.mean_interarrival) + "\n";
  out += "base-trace=" + std::to_string(job_trace.base_trace_size) + "\n";
  out += "task-s=" + fmt_double(job_trace.nominal_task_s) + "\n";
  out += "task-cv=" + fmt_double(job_trace.task_cv) + "\n";
  emit_generator(out, "arrival", arrival_gen);
  emit_generator(out, "mix", mix_gen);
  emit_generator(out, "churn", churn_gen);
  emit_generator(out, "protocol", protocol_gen);
  out += "open-loop=" + std::string(open_loop ? "1" : "0") + "\n";
  out += "shards=" + std::to_string(shards) + "\n";
  // Topology shapes the world (phases, uplink latency), so a journaled
  // hier run must replay hier. Only configured knobs are emitted; flat
  // specs serialize byte-identically to pre-topology journals.
  if (!topology.empty()) out += "topology=" + topology + "\n";
  if (topo_phase_spread) {
    out += "topo.phase_spread=" + fmt_double(*topo_phase_spread) + "\n";
  }
  if (topo_regions) {
    out += "topo.regions=" + std::to_string(*topo_regions) + "\n";
  }
  if (topo_sync_latency) {
    out += "topo.sync_latency=" + fmt_double(*topo_sync_latency) + "\n";
  }
  // Part of the world: a replayed run must snapshot at the same cadence.
  // The journal plumbing knobs (journal / journal.dir / journal.halt-after)
  // are NOT — replay decides its own sinks.
  out += "snapshot_every=" + std::to_string(snapshot_every) + "\n";
  return out;
}

topology::TopologySpec ScenarioSpec::topology_spec() const {
  topology::TopologySpec t;
  t.hier = topology == "hier";
  if (topo_regions) t.regions = *topo_regions;
  if (topo_sync_latency) t.sync_latency = *topo_sync_latency;
  if (topo_phase_spread) t.phase_spread_h = *topo_phase_spread;
  return t;
}

bool PolicySpec::try_set(const std::string& key, const std::string& value) {
  if (key == "policy") {
    name = value;
  } else if (key == "epsilon") {
    params.venn.epsilon = parse_double(key, value);
  } else if (key == "tiers") {
    params.venn.num_tiers = parse_size(key, value);
  } else if (key == "supply-window-h") {
    params.venn.supply_window = parse_double(key, value) * kHour;
  } else if (key == "supply-window-s") {
    params.venn.supply_window = parse_double(key, value);  // exact spelling
  } else if (key == "tail-pct") {
    params.venn.tail_percentile = parse_double(key, value);
  } else if (key == "ewma-alpha") {
    params.venn.ewma_alpha = parse_double(key, value);
  } else if (key == "order-total") {
    params.venn.order_by_total_remaining = parse_long(key, value) != 0;
  } else if (key.starts_with("param.")) {
    params.extra[key.substr(6)] = value;
  } else {
    return false;
  }
  return true;
}

void PolicySpec::set(const std::string& key, const std::string& value) {
  if (!try_set(key, value)) {
    throw std::invalid_argument("unknown policy key \"" + key + "\"");
  }
}

std::string PolicySpec::to_kv() const {
  std::string out;
  out += "policy=" + name + "\n";
  out += "epsilon=" + fmt_double(params.venn.epsilon) + "\n";
  out += "tiers=" + std::to_string(params.venn.num_tiers) + "\n";
  out += "supply-window-s=" + fmt_double(params.venn.supply_window) + "\n";
  out += "tail-pct=" + fmt_double(params.venn.tail_percentile) + "\n";
  out += "ewma-alpha=" + fmt_double(params.venn.ewma_alpha) + "\n";
  out += "order-total=" +
         std::string(params.venn.order_by_total_remaining ? "1" : "0") + "\n";
  // params.extra is a std::map: sorted, canonical.
  for (const auto& [k, v] : params.extra) {
    out += "param." + k + "=" + v + "\n";
  }
  return out;
}

}  // namespace venn::api
