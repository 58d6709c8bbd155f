// ExperimentBuilder / Experiment: the one construction path for runs.
//
// Every bench, example and the CLI builds experiments the same way:
//
//   const auto ex = venn::ExperimentBuilder().seed(7).devices(3000).jobs(8)
//                       .build();               // generates inputs once
//   const RunResult venn = ex.run("venn");      // policies share the trace
//   const RunResult rnd  = ex.run("random");
//
// An Experiment is an immutable (scenario, generated inputs) pair; run()
// instantiates a registered policy against it, installs the standard
// observers plus any user-supplied ones, and collects results. Seed streams
// are derived centrally (Rng::derive) so runs are reproducible.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "api/scenario.h"
#include "core/metrics.h"
#include "core/observer.h"
#include "journal/sink.h"
#include "protocol/registry.h"

namespace venn {

// Pre-generated inputs, reusable across policies. `devices` holds each
// device's hardware spec; a device's id is its position. `sessions` is the
// devices' availability trace, one column entry per device; it covers no
// device when the sessions stream from a churn model at run time.
struct ExperimentInputs {
  std::vector<DeviceSpec> devices;
  SessionColumn sessions;
  std::vector<trace::JobSpec> jobs;
};

}  // namespace venn

namespace venn::api {

// Input generation for a scenario (trace depends only on the seed — never
// on the policy, so every baseline replays the same world). Two streams
// forked from the seed: the first draws the devices' hardware specs and,
// without a churn model, their diurnal sessions (a churn model leaves the
// session column empty; its sessions stream at run time); the second draws
// the base job trace and samples the workload from it, unless a mix
// sampler draws the job list. Arrival processes assign submission times.
[[nodiscard]] ExperimentInputs build_inputs(const ScenarioSpec& scenario);

// As above with the generator set already instantiated (avoids rebuilding
// base traces / replay files when the caller keeps the set, as the
// ExperimentBuilder does).
[[nodiscard]] ExperimentInputs build_inputs(
    const ScenarioSpec& scenario, const workload::GeneratorSet& generators);

// FNV-1a fingerprint of generated inputs (device ids/specs/sessions, full
// job specs — doubles as raw bits). Stored in the journal header: replay
// regenerates the inputs from the header's scenario kv and refuses to
// verify against a world it could not reproduce — which catches scenario
// state NOT expressible as key=value overrides (programmatic
// availability/hardware configs, use_devices/use_jobs).
[[nodiscard]] std::uint64_t inputs_digest(const ExperimentInputs& inputs);

// Canonical journal file path of a run: <journal.dir>/<scenario>-<label>
// .vjl (journal.dir defaults to "."). Snapshots land next to it as
// <path>.snap-NNNNNN.
[[nodiscard]] std::string journal_file_path(const ScenarioSpec& scenario,
                                            const std::string& label);

// Options for Experiment::replay.
struct ReplayOptions {
  // Accept a journal whose final stretch is torn or corrupt: the reader
  // recovers everything before the tear instead of throwing. Implies the
  // journal may end mid-run, so pair with `resume` to finish the run.
  bool tolerate_torn_tail = false;
  // Continue the run live past the journal's end (crash recovery). Off =
  // strict mode: the journal must cover the whole run and close with the
  // kRunEnd footer.
  bool resume = false;
  // When the journal marks snapshots, load the newest stored snapshot file
  // and compare the re-executed coordinator's state against it field for
  // field at the marked commit — the zero-drift restore check. Strict
  // replay fails when that file is unreadable. Resume falls back to the
  // newest marked snapshot that reads cleanly, or to none: the journal
  // alone recovers the run, and the snapshot only anchors it.
  bool verify_snapshot = true;
};

// What a replay proved, alongside the re-executed run's results.
struct ReplayReport {
  RunResult result;
  std::string label;  // scheduler label recorded in the journal header
  std::uint64_t events_verified = 0;  // events matched byte-for-byte
  // True when the journal ended mid-run and the re-execution continued
  // live past it (resume mode: verified prefix + live tail).
  bool resumed_past_journal = false;
  bool snapshot_verified = false;     // stored snapshot compared clean
  std::uint64_t snapshot_commits = 0; // commit count of that snapshot (0=none)
  // Resume only: the newer marked snapshots that did not read cleanly and
  // were passed over, newest first, each with its read error.
  std::vector<std::string> snapshots_skipped;
};

class Experiment {
 public:
  Experiment(ScenarioSpec scenario, ExperimentInputs inputs,
             std::vector<RunObserver*> observers = {});

  // Adopts an already-instantiated generator set (must match the scenario;
  // the ExperimentBuilder uses this to instantiate generators exactly once
  // per build). A null set is built from the scenario.
  Experiment(ScenarioSpec scenario, ExperimentInputs inputs,
             std::shared_ptr<const workload::GeneratorSet> generators,
             std::vector<RunObserver*> observers);

  [[nodiscard]] const ScenarioSpec& scenario() const { return scenario_; }
  [[nodiscard]] const ExperimentInputs& inputs() const { return inputs_; }
  // The instantiated workload generators (never null after construction)
  // and the subscribed observers — the LiveSession construction surface.
  [[nodiscard]] const workload::GeneratorSet& generators() const {
    return *generators_;
  }
  [[nodiscard]] const std::vector<RunObserver*>& observers() const {
    return observers_;
  }

  // The named seed stream for this experiment (engine, scheduler, ...).
  [[nodiscard]] std::uint64_t stream_seed(std::string_view tag) const;

  // The round protocol every run of this experiment uses (instantiated
  // once at construction from `protocol=` / `protocol.<key>` — the sync
  // default when unconfigured).
  [[nodiscard]] const protocol::RoundProtocol& round_protocol() const {
    return *protocol_;
  }

  // Runs a registered policy against the shared inputs. With `journal=1`
  // this is the journaled entry point: a JournalWriter is installed for
  // the run (the header records the policy's canonical key=value form —
  // which is why run_with() rejects journaled scenarios) and every event
  // is persisted to journal_file_path(scenario, label).
  [[nodiscard]] RunResult run(const PolicySpec& policy) const;

  // Runs an externally constructed scheduler (e.g. to keep a handle on it
  // for introspection, or a policy variant no factory exposes). `label`
  // defaults to the scheduler's name(). Throws std::invalid_argument when
  // the scenario has journal=1: an external scheduler has no key=value
  // form for the journal header, so journaled runs must go through run().
  [[nodiscard]] RunResult run_with(std::unique_ptr<Scheduler> scheduler,
                                   std::string label = {}) const;

  // Runs with a journal sink observing every event (null = none): a
  // LiveSession started and finished in one breath. Replay re-executes
  // through the same LiveSession (api/rebuild.h), so a recorded and a
  // re-executed run are driven by the identical code path.
  [[nodiscard]] RunResult run_with_sink(std::unique_ptr<Scheduler> scheduler,
                                        std::string label,
                                        journal::JournalSink* sink) const;

  // Byte-identical replay of a journaled run (api/replay.cc): rebuilds the
  // experiment from the journal header (scenario + policy key=value, seed),
  // verifies the regenerated inputs against the header's digest, and
  // re-executes the run with a JournalVerifier installed — every event the
  // re-execution emits is compared byte-for-byte against the journal.
  // Throws std::runtime_error on any divergence, corruption (see
  // ReplayOptions::tolerate_torn_tail) or an inputs-digest mismatch.
  [[nodiscard]] static ReplayReport replay(const std::string& journal_path,
                                           const ReplayOptions& opts = {});

 private:
  ScenarioSpec scenario_;
  ExperimentInputs inputs_;
  // Instantiated workload generators (shared: Experiment is copyable and
  // the generators are immutable — per-run randomness lives in streams).
  std::shared_ptr<const workload::GeneratorSet> generators_;
  // Instantiated round protocol (same sharing rationale). Never null.
  std::shared_ptr<const protocol::RoundProtocol> protocol_;
  std::vector<RunObserver*> observers_;
};

class ExperimentBuilder {
 public:
  // Wholesale scenario / policy assignment.
  ExperimentBuilder& scenario(ScenarioSpec s);
  ExperimentBuilder& policy(PolicySpec p);  // default policy for run()

  // Fluent scenario shortcuts.
  ExperimentBuilder& name(std::string v);
  ExperimentBuilder& seed(std::uint64_t v);
  ExperimentBuilder& devices(std::size_t n);
  ExperimentBuilder& jobs(std::size_t n);
  ExperimentBuilder& workload(trace::Workload w);
  ExperimentBuilder& bias(trace::BiasedWorkload b);
  ExperimentBuilder& horizon(SimTime t);
  ExperimentBuilder& rounds(int min, int max);
  ExperimentBuilder& demand(int min, int max);
  ExperimentBuilder& interarrival(SimTime mean);

  // `key=value` overrides: tries scenario keys, then policy keys; throws
  // std::invalid_argument on unknown keys or bad values.
  ExperimentBuilder& set(const std::string& key, const std::string& value);
  ExperimentBuilder& override_kv(const std::string& token);  // "key=value"

  // Replaces the generated population / workload with explicit inputs
  // (lower-level scenarios like the Fig. 3 toy example). `devices` are the
  // hardware specs, device d being devices[d]. `sessions` is their trace,
  // one column entry per device, or a column covering no device when the
  // sessions stream from the scenario's churn model; build() rejects any
  // other device count.
  ExperimentBuilder& use_devices(std::vector<DeviceSpec> devices,
                                 SessionColumn sessions);
  ExperimentBuilder& use_jobs(std::vector<trace::JobSpec> jobs);

  // Subscribes an observer to every run of the built experiment. The caller
  // keeps ownership; the observer must outlive the runs.
  ExperimentBuilder& observe(RunObserver& obs);

  // Generates inputs (unless overridden) and freezes the experiment.
  [[nodiscard]] Experiment build() const;

  // build() + run the default policy (set via policy()/"policy=" override).
  [[nodiscard]] RunResult run() const;

  [[nodiscard]] const ScenarioSpec& current_scenario() const {
    return scenario_;
  }
  [[nodiscard]] const PolicySpec& current_policy() const { return policy_; }

 private:
  ScenarioSpec scenario_;
  PolicySpec policy_;
  std::optional<std::vector<DeviceSpec>> devices_override_;
  std::optional<SessionColumn> sessions_override_;
  std::optional<std::vector<trace::JobSpec>> jobs_override_;
  std::vector<RunObserver*> observers_;
};

}  // namespace venn::api
