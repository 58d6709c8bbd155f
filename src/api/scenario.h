// ScenarioSpec / PolicySpec: the declarative experiment description.
//
// A *scenario* is everything that defines the world a policy is dropped
// into — device population, workload, bias, horizon, seed. A *policy spec*
// names a registered policy plus its knobs. Keeping the two separate is
// what makes sweeps well-formed: a (scenario × policy × seed) grid replays
// the identical trace for every policy (the paper's paired-comparison
// methodology, §5.1).
//
// Both specs parse `key=value` overrides, so the CLI, benches and config
// files share one construction path:
//
//   ScenarioSpec sc;
//   sc.set("jobs", "50");          // known keys are typed + validated
//   PolicySpec pol;
//   pol.set("policy", "venn");
//   pol.set("epsilon", "2");       // Venn knob
//   pol.set("param.threshold", "20");  // free-form, for external policies
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "api/registry.h"
#include "topology/topology.h"
#include "trace/availability.h"
#include "trace/hardware.h"
#include "trace/job_trace.h"
#include "util/ids.h"
#include "workload/workload.h"

namespace venn::api {

struct ScenarioSpec {
  std::string name = "default";  // label for sweep reports
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

  // Pluggable generators (src/workload/). An unconfigured family (empty
  // name) keeps the legacy single-model path for that axis, so existing
  // scenarios reproduce byte-identically. Names are validated against the
  // family registry when set.
  workload::GeneratorSpec arrival_gen;  // arrival=..., arrival.<key>=...
  workload::GeneratorSpec mix_gen;      // mix=...,     mix.<key>=...
  workload::GeneratorSpec churn_gen;    // churn=...,   churn.<key>=...

  // Round protocol (src/protocol/): sync | overcommit | async plus dotted
  // knobs (protocol.overcommit=1.3, protocol.buffer=64, ...). Unconfigured
  // (empty name) keeps the paper's synchronous protocol byte-identically.
  // Unlike the generator families, re-setting `protocol=` to a *different*
  // name throws: a scenario assembled from several override sources must
  // not silently run whichever protocol was named last.
  workload::GeneratorSpec protocol_gen;  // protocol=..., protocol.<key>=...

  // open-loop=1: jobs are admitted mid-run from the arrival stream
  // (requires arrival= and mix=); `jobs` caps admissions, 0 = unbounded.
  bool open_loop = false;

  // Simulation.
  SimTime horizon = 28.0 * kDay;

  // Coordination topology (src/topology/). topology=flat (the default,
  // spelled "" here) is the paper's single coordinator loop; topology=hier
  // models regional edge coordinators, each owning a contiguous
  // FleetPartition device range with its own diurnal phase, feeding the
  // global coordinator with a configurable region→global sync latency.
  // Like `protocol=`, re-setting `topology=` to a *different* value
  // throws. The dotted `topo.*` knobs require topology=hier (orphans throw
  // at build): topo.regions (regional coordinators, [2, 64], default 4),
  // topo.sync_latency (uplink latency in seconds ≥ 0, default 0 — which is
  // byte-identical to flat), topo.phase_spread (diurnal peak spread across
  // regions in hours ≥ 0, default 0).
  std::string topology;                     // "", "flat" or "hier"
  std::optional<std::size_t> topo_regions;  // topo.regions
  std::optional<double> topo_sync_latency;  // topo.sync_latency (s)
  std::optional<double> topo_phase_spread;  // topo.phase_spread (h)

  // Durability (src/journal/). journal=1 mirrors every external event of
  // the run into an append-only journal file (off by default — journaling
  // is purely observational and a journaled run is byte-identical to an
  // unjournaled one). journal.dir= names the directory the journal and its
  // snapshots land in (default "."). snapshot_every=N (alias
  // snapshot-every=N) captures a coordinator state snapshot every N round
  // commits (0 = off). journal.halt-after=N is the crash-injection hook
  // behind the recovery tests: the run halts (SimulationHalted) right
  // after the Nth commit record is flushed, leaving a torn-tail journal
  // plus whatever snapshots were captured (0 = off).
  bool journal_enabled = false;
  std::string journal_dir;
  std::size_t snapshot_every = 0;
  std::size_t journal_halt_after = 0;

  // Applies one `key=value` override. Known keys: name, seed, devices,
  // jobs, workload (even|small|large|low|high), bias
  // (none|general|compute|memory|resource), horizon-days, horizon-s,
  // min-rounds, max-rounds, min-demand, max-demand, interarrival-min,
  // interarrival-s, base-trace, task-s, task-cv, arrival, arrival.<key>,
  // mix, mix.<key>, churn, churn.<key>, protocol (sync|overcommit|async),
  // protocol.<key>, open-loop (0|1), topology (flat|hier), topo.regions
  // (2-64), topo.sync_latency, topo.phase_spread, journal (0|1),
  // journal.dir, snapshot_every / snapshot-every, journal.halt-after.
  // Returns false if the key is not a scenario key. Throws
  // std::invalid_argument on a known key with a bad value, on an unknown
  // `topo.*` key, and on a `protocol=` or `topology=` value conflicting
  // with one set earlier.
  bool try_set(const std::string& key, const std::string& value);

  // As try_set, but an unknown key throws std::invalid_argument.
  void set(const std::string& key, const std::string& value);

  // Canonical `key=value\n` serialization: every field that shapes the
  // simulated world, spelled so that parsing the lines back through
  // try_set reconstructs an equivalent spec — including exact doubles
  // (horizon-s / interarrival-s carry raw seconds at %.17g, which strtod
  // round-trips bit-for-bit; the lossy -days / -min spellings remain
  // accepted on input). This is what the journal header stores, so replay
  // can rebuild the experiment from the journal alone. Journal plumbing
  // knobs (journal, journal.dir, journal.halt-after) are deliberately NOT
  // part of the world and are excluded; snapshot_every IS included (the
  // replayed run must capture at the original cadence). Throws
  // std::invalid_argument if `name` contains a newline.
  [[nodiscard]] std::string to_kv() const;

  // True when any workload generator family is configured (the scenario
  // leaves the legacy single-model world).
  [[nodiscard]] bool uses_generators() const {
    return arrival_gen.configured() || mix_gen.configured() ||
           churn_gen.configured();
  }

  // Resolved topology configuration (defaults applied). hier iff
  // topology == "hier"; flat specs get an all-default (inactive) spec.
  [[nodiscard]] topology::TopologySpec topology_spec() const;
};

struct PolicySpec {
  std::string name = "venn";  // a PolicyRegistry key
  PolicyParams params;

  PolicySpec() = default;
  PolicySpec(std::string policy_name)  // NOLINT: implicit by design —
      : name(std::move(policy_name)) {}  // lets {"random", "venn"} spell a grid
  PolicySpec(const char* policy_name) : name(policy_name) {}  // NOLINT
  PolicySpec(std::string policy_name, PolicyParams p)
      : name(std::move(policy_name)), params(std::move(p)) {}

  // Applies one `key=value` override. Known keys: policy, epsilon, tiers,
  // supply-window-h, supply-window-s, tail-pct, ewma-alpha, order-total
  // (0|1), plus `param.<key>` which lands in params.extra for external
  // policies. Returns false if the key is not a policy key; throws on bad
  // values.
  bool try_set(const std::string& key, const std::string& value);
  void set(const std::string& key, const std::string& value);

  // Canonical `key=value\n` serialization (journal header, replay).
  // Doubles at %.17g; supply-window-s carries raw seconds (exact), the
  // lossy supply-window-h spelling remains accepted on input. The
  // scheduling/matching enables are not knobs — the policy *name* implies
  // them through its factory, so name + knobs round-trip the policy.
  [[nodiscard]] std::string to_kv() const;
};

// Workload / bias spellings shared by CLI flags and key=value overrides.
// parse_bias maps "none" to nullopt (no bias); both throw
// std::invalid_argument on unknown spellings.
[[nodiscard]] trace::Workload parse_workload(const std::string& s);
[[nodiscard]] std::optional<trace::BiasedWorkload> parse_bias(
    const std::string& s);

}  // namespace venn::api
