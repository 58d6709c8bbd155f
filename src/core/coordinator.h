// Simulation coordinator: drives the CL protocol end to end.
//
// Replays the device availability trace and the job workload against a
// ResourceManager (the paper's "high-fidelity simulator that replays client
// and job traces", §5.1):
//
//   job arrival  -> register + submit round-0 resource request
//   session open -> device checks in; assigned or parked in the idle pool
//   assignment   -> device computes (log-normal exec time); fails if its
//                   session ends first (ephemerality)
//   responses    -> the round protocol decides completion; under the
//                   default sync protocol a round completes at >= 80% of
//                   target reports (§5.1) and the reporting deadline
//                   (5-15 min, from full allocation) aborts and resubmits
//                   otherwise
//   round done   -> next round submitted immediately; last round records JCT
//
// Each device participates in at most one job per day (§5.1 realism rule).
//
// A device is its position in the fleet. The constructor moves the fleet's
// specs into the coordinator's FleetHotState (device/fleet.h), the run's
// only per-device store: specs, eligibility signatures, idle-pool
// positions and the one-job-per-day budgets are columns indexed by that
// position, and every hook below (external_checkin, session_end, ...)
// names a device by it. Likewise a job is its position in the
// coordinator's job table: job i has JobId(i), in creation order, and the
// per-job in-flight lists are indexed the same way. A job is live from
// creation until finish_job records its completion.
//
// The round lifecycle — selection target, completion predicate, deadline
// behavior, straggler disposition — is pluggable via
// `CoordinatorConfig::protocol` (src/protocol/): `sync` reproduces the
// paper byte-identically, `overcommit` over-selects and releases
// stragglers at commit/abort (budget refunded, work wasted), `async` runs
// FedBuff-style buffered aggregation (continuous admission, a commit every
// B responses, per-response staleness tracked, no deadline).
//
// Sessions have one path into the run: each device's cursor (its next
// session, and the end of its running one) feeds the event queue's
// presorted start lane. A trace run fills the cursors from a SessionColumn
// covering the fleet; a churn run (`CoordinatorConfig::churn` set, a
// column covering no device) pulls each device's sessions lazily from its
// workload::ChurnStream (seeded per device via Rng::derive), one ahead of
// the running one — O(devices) memory, not O(devices × horizon).
//
// Open loop composes with either: when `arrival` + `mix` are set, jobs are
// admitted mid-run from the arrival stream (the paper's dynamic-arrival
// setting) instead of coming from a pre-built spec list.
//
// Supply estimation and idle-pool sweeps run against an incremental
// eligibility index (core/elig_index.h). Supply has one path in both
// topologies: the index's per-region partials, summed (flat mode has one
// region). Its answers equal a brute-force scan of the run's device specs
// and sessions exactly (asserted by tests/supply_oracle_test.cc).
//
// Sweeps and index rebuckets run serially on the event loop: one check-in
// or request arrival triggers one sweep and one offer sequence, as in the
// paper. Sweep wall time is kept in ShardStats, outside RunResult.
#pragma once

#include <array>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "core/elig_index.h"
#include "core/metrics.h"
#include "core/resource_manager.h"
#include "device/fleet.h"
#include "journal/sink.h"
#include "journal/snapshot.h"
#include "protocol/protocol.h"
#include "sim/engine.h"
#include "topology/topology.h"
#include "trace/job_trace.h"
#include "workload/arrival.h"
#include "workload/churn.h"
#include "workload/mix.h"

namespace venn {

struct CoordinatorConfig {
  SimTime horizon = 28.0 * kDay;  // hard stop for the simulation

  // Open-loop workload: non-null `arrival` admits jobs mid-run (requires
  // `mix`), capped at `max_jobs` admissions (0 = unbounded until horizon).
  const workload::ArrivalProcess* arrival = nullptr;
  const workload::JobMixSampler* mix = nullptr;
  std::size_t max_jobs = 0;

  // Churn model of the device population, when one is configured. Always
  // used for the analytic supply-rate / session statistics behind
  // solo_jct_estimate. When the constructor's session column covers no
  // device, the sessions also stream from this model; a column covering
  // the fleet (a drained stream, say) is replayed under the same
  // estimates.
  const workload::ChurnModel* churn = nullptr;

  // Round protocol driving the request lifecycle (src/protocol/). Null
  // keeps the paper's synchronous protocol (protocol::sync_protocol()),
  // byte-identical to the pre-extraction coordinator. The caller retains
  // ownership and must keep the protocol alive for the run.
  const protocol::RoundProtocol* protocol = nullptr;

  // Base seed for the arrival/mix/churn streams. Derive it from the
  // scenario seed (NOT the engine's), so every policy replays the same
  // world.
  std::uint64_t seed = 0;

  // Durability hook (src/journal/): every external event — check-ins,
  // check-outs, submissions, admissions, assignments, responses,
  // commits/aborts, straggler releases, finishes — is mirrored into this
  // sink. Purely observational (no state mutation, no randomness), so a
  // null sink (the default) and a live one produce byte-identical runs.
  // Caller retains ownership for the duration of the run.
  journal::JournalSink* journal = nullptr;
  // Capture a state snapshot into the sink every N protocol commits
  // (0 = off). Only meaningful with a journal sink installed.
  std::size_t snapshot_every = 0;

  // Coordination topology (src/topology/). With `topo.hier`, the fleet is
  // split into contiguous regional ranges: supply-rate queries aggregate
  // exact per-region partials, per-region protocol activity is counted in
  // TopologyStats, device results ride a region→global uplink of
  // `topo.sync_latency` seconds, and (for streamed churn) each region's
  // sessions are shifted by its diurnal phase offset. At sync_latency=0
  // and phase_spread=0 a hier run is byte-identical to flat — the
  // equivalence the topology differential wall enforces.
  topology::TopologySpec topo;
};

class Coordinator final : private sim::EventHandler {
 public:
  // `devices` are the fleet's hardware specs (device d is devices[d]; they
  // move into the hot-state store) and `sessions` their trace, one column
  // entry per device — or a column covering no device, when the sessions
  // stream from `cfg.churn` (without a churn model the fleet is then
  // sessionless). `specs` define the workload: spec i becomes job i, created
  // here and submitted at its arrival time once the run is set up. The
  // coordinator owns the Job objects.
  Coordinator(sim::Engine& engine, ResourceManager& manager,
              std::vector<DeviceSpec> devices, SessionColumn sessions,
              std::vector<trace::JobSpec> specs, CoordinatorConfig cfg = {});

  // Non-copyable and non-movable: the eligibility index holds the address
  // of the hot-state store for the run's lifetime.
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  // Schedules all trace events and runs the engine until every job finishes
  // or the horizon is reached. Equivalent to setup() + run_until(horizon).
  void run();

  // --- live service hooks (src/service/) --------------------------------
  // Schedules all trace events WITHOUT running the engine: the live daemon
  // (and the replay driver for journals carrying external commands) paces
  // the run itself through Engine::run_until, interleaving the external
  // events below at its sim-clock cursor. Batch runs never call these, so
  // their trajectories are untouched.
  void setup();

  // Grants `dev` an out-of-trace session [now, now+duration) and attempts
  // a check-in. Deterministic no-op (returns false) when the device is
  // already online — live refusals must replay identically.
  bool external_checkin(std::size_t dev, double duration);
  // Ends the device's external session now and retires any idle-pool entry
  // (also works for a device parked on a trace session). Returns false
  // when there was nothing to end.
  bool external_checkout(std::size_t dev);
  // Registers and submits a fully specified job now (arrival is forced to
  // the current sim time). Returns the assigned id, the job's position in
  // jobs().
  JobId external_submit(trace::JobSpec spec);
  // One open-loop admission drawn from the configured mix (requires an
  // open-loop scenario; returns false otherwise).
  bool external_admit();
  // Delivers the in-flight computation of `dev` early, as if the device
  // responded now. Deterministic no-op when the device is not computing.
  bool external_response(std::size_t dev);

  // End of the session covering the current sim time for `dev` (trace,
  // streamed or external grant), or a negative value when it is offline.
  [[nodiscard]] SimTime session_end(std::size_t dev) const {
    return active_session_end(dev, engine_.now());
  }

  // Status accessors for the daemon's admin surface and the inspector.
  [[nodiscard]] std::size_t idle_pool_size() const { return idle_vec_.size(); }
  [[nodiscard]] std::size_t unfinished_jobs() const { return unfinished_jobs_; }
  [[nodiscard]] std::uint64_t external_submitted() const {
    return ext_submitted_;
  }

  [[nodiscard]] const std::vector<std::unique_ptr<Job>>& jobs() const {
    return jobs_;
  }
  [[nodiscard]] SimTime horizon() const { return cfg_.horizon; }

  // Contention-free JCT estimate sd_i for a job spec given this device
  // population (rounds x (solo scheduling delay + expected response time)).
  // Used for the §4.4 fairness bound and the Fig. 14b metric.
  [[nodiscard]] double solo_jct_estimate(const trace::JobSpec& spec) const;
  // Estimated eligible check-in rate (devices/sec, daily average) for a
  // requirement — the supply term of solo_jct_estimate: the sum of the
  // eligibility index's per-region partials over the fleet's session span.
  [[nodiscard]] double supply_rate(const Requirement& req) const;

  // --- session accounting -----------------------------------------------
  // Total sessions pulled from churn streams so far, and the number of
  // Session objects resident: the whole column for a trace run, the
  // cursors' pending sessions (at most one per device) for streamed churn
  // — the evidence that streaming never materializes a device's sessions.
  [[nodiscard]] std::uint64_t sessions_streamed() const {
    return sessions_streamed_;
  }
  [[nodiscard]] std::size_t resident_session_count() const;

  // --- hot-path accounting ----------------------------------------------
  // Per-event work evidence for the perf-regression harness: sweep offers
  // do not scale with fleet size (a sweep skips ineligible devices outright
  // and ends once no unvisited idle device matches a wanted group), and
  // supply queries do not rescan devices.
  struct HotpathStats {
    std::uint64_t sweeps = 0;            // idle-pool sweep passes executed
    std::uint64_t sweep_visits = 0;      // idle devices visited across sweeps
    std::uint64_t sweep_offers = 0;      // offers actually made to the manager
    std::uint64_t sweep_skips = 0;       // visits skipped via the index
    std::uint64_t supply_queries = 0;    // supply_rate evaluations
    std::uint64_t resweeps = 0;          // reentrant sweep requests deferred
  };
  [[nodiscard]] const HotpathStats& hotpath_stats() const { return hstats_; }

  // Test hook for the sweep's early exit: while on, every exit (a sweep
  // that stops with devices still unvisited, or draws none) first checks
  // that no unvisited idle device matches the wants mask, and throws
  // std::logic_error if one does. Off in every run outside the tests.
  void check_sweep_exits(bool on) { check_sweep_exits_ = on; }
  [[nodiscard]] std::uint64_t sweep_exits_checked() const {
    return sweep_exits_checked_;
  }

  // Test hook for the lane source: while on, every refill of session starts
  // is held against the O(devices) scan of the next-start column it
  // replaced (the same starts in the same order, or the same earliest
  // start after an empty refill), and a mismatch throws std::logic_error.
  // Off in every run outside the tests.
  void check_lane_refills(bool on) { check_lane_refills_ = on; }
  [[nodiscard]] std::uint64_t lane_refills_checked() const {
    return lane_refills_checked_;
  }

  // The eligibility index. For tests and the journal inspector.
  [[nodiscard]] const EligibilityIndex& index() const { return *index_; }

  // The struct-of-arrays hot-state store: the fleet's specs, the sweep
  // filter's signatures, the participation budgets. Its size() is the
  // fleet size. Also read by tests (the brute-force supply oracle and the
  // SoA-vs-live signature property check).
  [[nodiscard]] const FleetHotState& hot_state() const { return hot_; }

  // Sweep wall time, the denominator of the sweep-throughput metric that
  // bench/hotpath_index and perfbench report. Wall time, so machine-variant
  // and never part of RunResult. The struct keeps the name it had when it
  // also held sharded-execution counters, because perfbench/ reads
  // `shard_stats().sweep_wall_s`.
  struct ShardStats {
    double sweep_wall_s = 0.0;  // wall time spent inside sweep passes
  };
  [[nodiscard]] const ShardStats& shard_stats() const { return sstats_; }

  // The round protocol in effect (the configured one, or the sync default).
  [[nodiscard]] const protocol::RoundProtocol& round_protocol() const {
    return *protocol_;
  }

  // --- hierarchical topology --------------------------------------------
  // Hier telemetry (cross-region supply aggregations, uplink reports,
  // per-region protocol activity). Like ShardStats, deliberately OUTSIDE
  // RunResult: the zero-latency equivalence contract compares hier results
  // byte-for-byte against flat runs, which have no regions. Empty
  // per_region in flat mode. The differential wall's vacuousness guards
  // read these.
  [[nodiscard]] const topology::TopologyStats& topology_stats() const {
    return tstats_;
  }
  // The device→region map (regions=1 single range in flat mode).
  [[nodiscard]] const topology::RegionMap& region_map() const {
    return regions_;
  }

  // --- durability -------------------------------------------------------
  // Serializes the coordinator's full mutable state — engine clock + RNG,
  // idle pool, per-device participation budgets,
  // per-job round/request state, protocol and hot-path counters, open-loop
  // and streaming progress — into named snapshot sections. Called at the
  // `snapshot_every` cadence during journaled runs; public so tests can
  // compare live and re-executed coordinators directly. Deterministic:
  // two coordinators in identical states produce identical bytes.
  [[nodiscard]] journal::StateSnapshot capture_snapshot();

  // --- protocol accounting ----------------------------------------------
  // Aggregate round-protocol counters (core/metrics.h): commits, response
  // staleness (buffered aggregation) and wasted work (over-selection
  // straggler releases, results discarded after a round ended).
  // collect_results copies them into RunResult::protocol.
  [[nodiscard]] const ProtocolCounters& protocol_stats() const {
    return pstats_;
  }

  // Assignment accounting (the Fig. 8a matrix) is no longer baked in here;
  // install an AssignmentMatrixObserver (core/observer.h) on the
  // ResourceManager instead — the api::Experiment run path does so
  // automatically.

 private:
  // Typed events (sim/event_queue.h), all run by on_event. `dev` is the
  // event's device; the report kinds carry a reports_ slot as payload.
  enum : sim::EventKind {
    kSessionStart = 1,  // a session start: the lane's kind, and its
                        // in-chunk successor scheduled into the heap
    kRearm,             // day-boundary check-in re-arm
    kRetireIdle,        // a parked device's session end
    kResponse,          // a device's result reaches the coordinator
    kFailure,           // a computation outlived its session
    kDeadline,          // a request's reporting deadline (no device)
  };
  void on_event(sim::EventKind kind, std::uint32_t dev,
                std::uint32_t payload) override;
  // Schedules a typed event for device `dev` at `t`.
  void post(SimTime t, sim::EventKind kind, std::size_t dev,
            std::uint32_t payload = 0);

  // What a response, failure or deadline event needs beyond its device.
  // Kept in a coordinator-owned slab, one slot per pending event, reused
  // through a free list once the event has run.
  struct Report {
    JobId job;
    RequestId request;
    int round = 0;
    double exec = 0.0;
  };
  std::uint32_t put_report(const Report& r);
  Report take_report(std::uint32_t slot);
  std::vector<Report> reports_;
  std::vector<std::uint32_t> free_reports_;

  // Appends job JobId(jobs_.size()) with its (empty) in-flight list.
  Job* create_job(trace::JobSpec spec);
  // The job if it is still live (its completion not yet recorded), else
  // null.
  [[nodiscard]] Job* live_job(JobId id) const;
  void schedule_job_arrival(std::size_t job_idx);
  // Mid-run admission of a just-created job: journals it, registers it
  // with the manager and submits its first request.
  void admit(Job* job);
  void submit_request(Job* job);
  // Open-loop admission: create + register a job sampled from the mix.
  void admit_job();
  // Loads the device's next session into its cursor, from the column or
  // its churn stream (kNoStart when it has none left).
  void load_next_session(std::size_t dev_idx);
  // The event queue's lane source: appends every device's next start
  // before `end` (at most one per device), taking it out of its hour list,
  // and returns the earliest start left at or before the horizon (kNoStart
  // when none). Walks only the hours the chunk overlaps.
  SimTime refill_session_starts(SimTime end, std::vector<sim::LaneEvent>& out);
  // The hour list a start at `t` sits in: about [h, h+1) hours for list
  // h, and monotone in t; the last list also holds every later start.
  [[nodiscard]] std::size_t start_hour(SimTime t) const;
  // Files the device's pending start under its hour.
  void hold_start(std::uint32_t dev_idx);
  // The check_lane_refills hook: holds one refill's appended starts, or the
  // earliest start an empty refill returned, against a scan of the whole
  // next-start column. The scan sees the column as it was before the
  // refill; the lists' removals do not change it.
  void check_lane_refill(SimTime limit, std::span<const sim::LaneEvent> got,
                         SimTime rest);
  // The device's pending session starts: advances its cursor, sends a
  // successor that falls inside the lane's current chunk to the heap, then
  // attempts the check-in.
  void on_session_start(std::uint32_t dev_idx);
  // End of the session covering `now` for this device, or a negative value
  // when the device is offline. O(1): the cursor holds both the running
  // and the pending session.
  [[nodiscard]] SimTime active_session_end(std::size_t dev_idx,
                                           SimTime now) const;
  // Device checks in if a session covers `now` and today's participation
  // budget is unspent; otherwise re-arms at the next day boundary while the
  // session lasts (multi-day sessions — e.g. plugged-in desktops — regain
  // their one-job-per-day budget at midnight).
  void attempt_checkin(std::size_t dev_idx);
  void handle_outcome(std::size_t dev_idx, const AssignOutcome& outcome);
  // Reentrancy-guarded entry point: runs sweeps until no follow-up is
  // pending; a call arriving while a sweep is in flight only flags one.
  void offer_idle_pool(SimTime now);
  // One pass over the idle pool. Only offer_idle_pool may call this.
  void sweep_idle_pool(SimTime now);
  // The check_sweep_exits hook's full scan of the devices a sweep left
  // unvisited.
  void check_sweep_exit(std::span<const std::size_t> unvisited,
                        std::uint64_t wants);
  void on_response(JobId job, RequestId request, std::size_t dev_idx,
                   int assigned_round, double response_time);
  void maybe_complete(Job* job);
  // The session ended before the computation did: one failure of the
  // request, reopening one unit of demand while it is still allocating.
  void on_failure(JobId job, RequestId request, std::size_t dev_idx);
  void on_deadline(JobId job, RequestId request);
  void finish_job(Job* job);
  // Straggler disposition: release every device still computing for
  // request `rid` of `job` back to the idle pool (day budget refunded,
  // in-flight work counted as wasted). Returns the number released. Only
  // called for protocols with releases_stragglers(), after the request has
  // been committed or aborted (a released device must not be re-offerable
  // to the round that just cut it off). Works on finished jobs too: a
  // release deferred past finish_job must still reach observers, and
  // jobs_ keeps every Job for the run.
  std::size_t release_stragglers(Job* job, RequestId rid, SimTime now);

  sim::Engine& engine_;
  ResourceManager& manager_;
  SessionColumn sessions_;  // covers the fleet unless streamed_
  CoordinatorConfig cfg_;

  std::vector<std::unique_ptr<Job>> jobs_;  // job i is jobs_[i]

  // Struct-of-arrays hot state (device/fleet.h), the only per-device
  // store: specs, eligibility signatures (written by the index), idle-pool
  // positions, participation budgets, and the session check-in column the
  // index's supply partials sum. Initialized in the constructor; array
  // addresses are stable for the run.
  FleetHotState hot_;

  // Idle pool as a dense vector + position map (hot_.idle_pos): O(1)
  // insert / erase / membership without hashing, and an O(k)
  // lazy-Fisher-Yates draw of the first k sweep positions. Vector order is
  // an implementation detail but fully deterministic (it depends only on
  // the event sequence).
  std::vector<std::size_t> idle_vec_;   // members, arbitrary order
  void idle_insert(std::size_t d);
  void idle_erase(std::size_t d);
  // Session-end retirement of a pool entry — the journal's check-out
  // event. Assignment-side erases are NOT check-outs (they are recorded
  // as assignments), so the session-end sites call this instead.
  void retire_idle(std::size_t d);

  ShardStats sstats_;

  // --- hierarchical topology state --------------------------------------
  // Region partition (1 region in flat mode), the uplink latency every
  // region→global result report rides (0.0 in flat mode — and x + 0.0 == x
  // keeps zero-latency hier event times bit-identical to flat), hier
  // telemetry.
  topology::RegionMap regions_;
  double uplink_ = 0.0;
  mutable topology::TopologyStats tstats_;

  std::size_t unfinished_jobs_ = 0;
  double mean_exec_factor_ = 1.0;  // population mean of 1/speed
  std::uint64_t sweep_counter_ = 0;  // seeds the per-sweep selection stream

  // One sweep's lazily drawn permutation of the idle pool (coordinator.cc).
  class SweepOrder;
  // One position of its side array: `dev` is the device a draw displaced
  // into this pool position, valid only while `gen` equals the running
  // sweep's generation (a new sweep invalidates every slot by bumping the
  // generation, without clearing).
  struct SweepSlot {
    std::uint64_t gen = 0;
    std::size_t dev = 0;
  };
  std::vector<SweepSlot> sweep_slots_;  // grows to the largest pool swept
  std::uint64_t sweep_gen_ = 0;         // generation 0 never stamps a slot
  bool check_sweep_exits_ = false;
  std::uint64_t sweep_exits_checked_ = 0;

  // Sweep reentrancy guard: a round that completes synchronously mid-sweep
  // (handle_outcome -> maybe_complete -> submit_request) would otherwise
  // start a nested sweep over a pool snapshot the outer sweep still holds.
  bool sweeping_ = false;
  bool resweep_ = false;
  // True exactly while one sweep_idle_pool pass executes. Straggler
  // releases arriving then are deferred (idle_insert would be defeated by
  // the pass's end-of-loop erase of the just-assigned device); the
  // offer_idle_pool driver drains them between passes. Unreachable for the
  // built-in protocols (overcommit commits in the response event, never in
  // a sweep's allocation), but an external sync-style protocol with
  // releases_stragglers() can commit mid-sweep.
  bool in_sweep_pass_ = false;
  struct PendingRelease {
    Job* job = nullptr;
    RequestId rid;
  };
  std::vector<PendingRelease> deferred_releases_;

  // Incremental eligibility/availability index. Mutable mechanics live
  // behind the pointer: supply_rate() is const but lazily registers
  // requirements with the index on first sight.
  std::unique_ptr<EligibilityIndex> index_;
  mutable HotpathStats hstats_;

  // Round protocol in effect: cfg_.protocol or the sync default. Never
  // null after construction.
  const protocol::RoundProtocol* protocol_ = nullptr;
  ProtocolCounters pstats_;

  // Devices currently computing, per job (inflight_[i] is job i's list,
  // created with the job) — the straggler set a release disposition acts
  // on. Entries are added at assignment and removed when the response or
  // the in-session failure fires; each list stays selection-target sized.
  // Walks over them run in id order, which is job-creation order.
  struct InFlight {
    RequestId rid;
    std::size_t dev = 0;
    SimTime started = 0.0;
    int round = 0;  // round the device was assigned to (staleness basis)
  };
  // Entries removed by a straggler release stop being tracked; the
  // cut-off computation's still-scheduled response/failure event then
  // finds nothing to remove and must not be accounted a second time —
  // inflight_remove reports whether the computation was still tracked.
  std::vector<std::vector<InFlight>> inflight_;
  std::vector<InFlight>& inflight_of(JobId jid) {
    return inflight_[static_cast<std::size_t>(jid.value())];
  }
  bool inflight_remove(JobId jid, RequestId rid, std::size_t dev);

  // Session cursors, one dense entry per device: the pending session
  // (next_start_/next_end_, kNoStart when none is left) and the end of the
  // one whose start fired last (session_end_, -1 before the first). A trace
  // run reads session next_k_ of the device's column slice; a streamed run
  // pulls from streams_ (null once exhausted). Every start of device d runs
  // under the one seq lane_seq_ + d, reserved at setup before any runtime
  // event: no device has two starts at one instant, so (t, seq) orders the
  // starts exactly as scheduling them all eagerly at setup would.
  static constexpr SimTime kNoStart = std::numeric_limits<SimTime>::infinity();
  bool streamed_ = false;
  std::uint64_t lane_seq_ = 0;
  std::vector<SimTime> next_start_;
  std::vector<SimTime> next_end_;
  std::vector<SimTime> session_end_;
  std::vector<std::uint32_t> next_k_;
  std::vector<std::unique_ptr<workload::ChurnStream>> streams_;
  // The lane's source, bucketed by hour. A device whose pending start the
  // lane has not taken (lane_end() <= t <= horizon) is listed under that
  // start's hour: start_head_[start_hour(t)] is the first of a chain of
  // chunks of device ids, linked by `next` and ending at kNoChunk. The
  // chunks come from one pool with a free list, so an hour owns no
  // storage of its own, and a walk loads one link per chunk, not one per
  // device: a chain of per-device links made each refill wait on a
  // dependent load per start. Hours below start_low_ are empty. A refill
  // collects its devices in start_marks_, one bit each, and emits them in
  // device order (ascending seq) by walking the set words.
  static constexpr std::uint32_t kNoChunk = 0xFFFFFFFFu;
  struct StartChunk {
    static constexpr std::size_t kDevices = 62;  // 256 bytes a chunk
    std::uint32_t next = kNoChunk;
    std::uint32_t size = 0;
    std::array<std::uint32_t, kDevices> dev{};
  };
  std::vector<std::uint32_t> start_head_;
  std::vector<StartChunk> start_chunks_;
  std::uint32_t free_chunk_ = kNoChunk;
  // Devices whose next start arrived (at or past lane_end()) since the
  // last refill, which files them under their hours first.
  std::vector<std::uint32_t> start_arrivals_;
  std::size_t start_low_ = 0;
  std::vector<std::uint64_t> start_marks_;
  bool check_lane_refills_ = false;
  std::uint64_t lane_refills_checked_ = 0;
  std::uint64_t sessions_streamed_ = 0;

  // Open-loop state: job specs sampled as arrivals fire.
  Rng mix_rng_{0};
  std::size_t admitted_ = 0;

  // External-session state (live service mode). Lazily sized on the first
  // external_checkin so batch runs carry no trace of it — including in
  // snapshots, whose ext-sessions section only exists once this is live.
  std::vector<SimTime> ext_session_end_;
  std::uint64_t ext_submitted_ = 0;
  [[nodiscard]] bool ext_sessions_live() const {
    return !ext_session_end_.empty();
  }
};

}  // namespace venn
