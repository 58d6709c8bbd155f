// Round-protocol subsystem tests: unit coverage of the three built-in
// protocols and their registry, deterministic end-to-end lifecycles under
// controlled device populations (over-selection straggler release with
// day-budget refunds, buffered-async commits with staleness), and the
// replay lock on the sweep/index hot path (every protocol must replay
// byte-identically at a fixed seed).
#include <gtest/gtest.h>

#include "core/metrics.h"
#include "core/resource_manager.h"
#include "protocol/builtins.h"
#include "protocol/registry.h"
#include "scheduler/fifo_sched.h"
#include "sim/engine.h"
#include "fleet.h"
#include "venn/venn.h"

namespace venn {
namespace {

trace::JobSpec one_job(int rounds, int demand, SimTime arrival = 0.0,
                       double nominal = 60.0, SimTime deadline = 600.0) {
  trace::JobSpec s;
  s.rounds = rounds;
  s.demand = demand;
  s.category = ResourceCategory::kGeneral;
  s.arrival = arrival;
  s.nominal_task_s = nominal;
  s.task_cv = 0.0;  // deterministic execution
  s.deadline_s = deadline;
  return s;
}

Fleet always_on(int n, DeviceSpec spec, SimTime horizon) {
  Fleet out;
  for (int i = 0; i < n; ++i) out.add(spec, {{0.0, horizon}});
  return out;
}

// Runs a FIFO-scheduled coordinator under an explicit protocol, returning
// (results, coordinator protocol stats via the result's counters).
RunResult run_proto(Fleet devices,
                    std::vector<trace::JobSpec> jobs,
                    const protocol::RoundProtocol& proto,
                    SimTime horizon = 2.0 * kDay,
                    RunObserver* observer = nullptr) {
  sim::Engine engine(1);
  ResourceManager mgr(std::make_unique<FifoScheduler>());
  if (observer != nullptr) mgr.add_observer(observer);
  CoordinatorConfig cfg;
  cfg.horizon = horizon;
  cfg.protocol = &proto;
  Coordinator coord(engine, mgr, std::move(devices.devices),
                    std::move(devices.sessions), std::move(jobs), cfg);
  coord.run();
  return collect_results(coord, proto.name());
}

// ---------------------------------------------------------------- units --

TEST(ProtocolUnit, SyncMatchesThePaperRule) {
  const protocol::SyncProtocol p;
  EXPECT_EQ(p.name(), "sync");
  EXPECT_EQ(p.selection_target(10), 10);
  EXPECT_EQ(p.commit_threshold(10), 8);  // ceil(0.8 x 10)
  EXPECT_EQ(p.commit_threshold(5), 4);
  EXPECT_EQ(p.commit_threshold(1), 1);
  EXPECT_FALSE(p.commit_while_pending());
  EXPECT_FALSE(p.keeps_request_open());
  EXPECT_FALSE(p.continuous_admission());
  EXPECT_TRUE(p.deadline_aborts());
  EXPECT_FALSE(p.releases_stragglers());
  // The process-wide default instance is the same protocol.
  EXPECT_EQ(protocol::sync_protocol().commit_threshold(10), 8);
  EXPECT_EQ(protocol::sync_protocol().name(), "sync");
}

TEST(ProtocolUnit, OvercommitSelectsKTimesTargetAndValidates) {
  const protocol::OvercommitProtocol p(1.3);
  EXPECT_EQ(p.selection_target(10), 13);
  EXPECT_EQ(p.selection_target(1), 2);  // ceil(1.3)
  EXPECT_EQ(p.commit_threshold(10), 8);  // cutoff at the sync target
  EXPECT_TRUE(p.commit_while_pending());
  EXPECT_TRUE(p.releases_stragglers());
  EXPECT_TRUE(p.deadline_aborts());
  EXPECT_FALSE(p.keeps_request_open());
  // Selection never drops below the commit threshold.
  const protocol::OvercommitProtocol unity(1.0);
  EXPECT_EQ(unity.selection_target(10), 10);
  EXPECT_THROW(protocol::OvercommitProtocol(0.9), std::invalid_argument);
}

TEST(ProtocolUnit, AsyncDefaultsDeriveFromDemand) {
  const protocol::AsyncProtocol def;
  EXPECT_EQ(def.selection_target(10), 10);   // concurrency defaults to D
  EXPECT_EQ(def.commit_threshold(10), 8);    // buffer defaults to ceil(.8 D)
  const protocol::AsyncProtocol p(64, 128);
  EXPECT_EQ(p.commit_threshold(10), 64);
  EXPECT_EQ(p.selection_target(10), 128);
  EXPECT_TRUE(p.keeps_request_open());
  EXPECT_TRUE(p.continuous_admission());
  EXPECT_TRUE(p.commit_while_pending());
  EXPECT_FALSE(p.deadline_aborts());
  EXPECT_FALSE(p.releases_stragglers());
}

// ------------------------------------------------------------- registry --

TEST(ProtocolRegistryTest, BuiltinsRegisteredWithValidatedKeys) {
  auto& reg = protocol::protocol_registry();
  for (const char* name : {"sync", "overcommit", "async"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
  }

  workload::GenParams params;
  params.kv["overcommit"] = "1.5";
  const auto oc = reg.create("overcommit", params, 0);
  EXPECT_EQ(oc->selection_target(10), 15);

  // Unknown names list the registered ones; unknown keys name the key.
  try {
    (void)reg.create("quorum", {}, 0);
    FAIL() << "unknown protocol accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("sync"), std::string::npos);
  }
  workload::GenParams typo;
  typo.kv["bufer"] = "3";
  try {
    (void)reg.create("async", typo, 0);
    FAIL() << "unaccepted key accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bufer"), std::string::npos);
  }

  // Knob range validation flows through util/parse.h accessors.
  workload::GenParams bad_frac;
  bad_frac.kv["report-fraction"] = "1.5";
  EXPECT_THROW((void)reg.create("sync", bad_frac, 0), std::invalid_argument);
  workload::GenParams bad_factor;
  bad_factor.kv["overcommit"] = "0.5";
  EXPECT_THROW((void)reg.create("overcommit", bad_factor, 0),
               std::invalid_argument);

  // An unconfigured spec builds the sync default.
  const auto def = protocol::build_protocol(workload::GeneratorSpec{}, 7);
  EXPECT_EQ(def->name(), "sync");

  const std::string listing = protocol::describe_protocols();
  EXPECT_NE(listing.find("overcommit"), std::string::npos);
  EXPECT_NE(listing.find("buffer"), std::string::npos);
}

// ------------------------------------------------- overcommit lifecycle --

TEST(ProtocolRun, OvercommitReleasesStragglerAndRefundsDayBudget) {
  // Two devices: fast (exec 60 s) and medium (exec ~107 s). Job 0 (demand
  // 1) over-selects both with K=2; the fast response commits the round at
  // t=60 and the medium device — still computing — is released: its work
  // so far is wasted, its day budget refunded. Job 1 (demand 1, arrival
  // t=100) can then complete the same day ONLY because of that refund:
  // both devices were charged for day 0 at t=0 and no other device exists.
  const double exec_fast = 60.0 / speed({1.0, 1.0});
  const double exec_med = 60.0 / speed({0.5, 0.5});
  Fleet devices;
  devices.add(DeviceSpec{1.0, 1.0}, {{0.0, kDay}});
  devices.add(DeviceSpec{0.5, 0.5}, {{0.0, kDay}});

  const protocol::OvercommitProtocol oc(2.0);  // selection 2 for demand 1
  api::TimeSeriesRecorder recorder;
  const RunResult r =
      run_proto(std::move(devices), {one_job(1, 1, 0.0), one_job(1, 1, 100.0)},
                oc, 1.0 * kDay, &recorder);

  ASSERT_EQ(r.finished_jobs(), 2u);
  ASSERT_EQ(r.jobs[0].rounds.size(), 1u);
  EXPECT_NEAR(r.jobs[0].rounds[0].response_collection, exec_fast, 1e-6);
  // The released medium device served job 1 from t=100.
  EXPECT_NEAR(r.jobs[1].jct, exec_med, 1e-6);

  EXPECT_EQ(r.protocol.stragglers_released, 1u);
  // Wasted work: exactly the 60 s the medium device computed before the
  // cutoff. Its still-scheduled job-0 response fires later into a stale
  // request but must NOT be charged again (the device stopped computing
  // for job 0 at the release).
  EXPECT_EQ(r.protocol.wasted_responses, 0u);
  EXPECT_NEAR(r.protocol.wasted_work_s, 60.0, 1e-6);
  EXPECT_EQ(r.protocol.commits, 2u);

  // The release reached observers (tsdb wasted-work stream).
  const tsdb::Series* released =
      recorder.store().find(api::TimeSeriesRecorder::kStragglersReleased);
  ASSERT_NE(released, nullptr);
  EXPECT_EQ(released->size(), 1u);
}

TEST(ProtocolRun, OvercommitReleasesStragglerReparkedAcrossMidnight) {
  // Regression: the midnight-budget rule re-parks a device whose
  // computation spans a day boundary (attempt_checkin at the boundary —
  // budget fresh, no open demand), so a straggler release after that
  // boundary finds the device ALREADY in the idle pool. The release must
  // keep that pool entry, not throw the same-day stale-entry invariant.
  // Pre-fix this run died with "straggler release found the device
  // already parked" — exactly the failure every paper-scale overcommit
  // cell hit (long tasks assigned late in a day).
  //
  // Timeline: demand 2, K=1.5 selects all 3 devices at kDay-30. The two
  // fast devices (exec 60 s) respond at kDay+30; the slow one is still
  // computing. At kDay every device is re-parked by its day-boundary
  // check-in. The commit at kDay+30 releases the slow straggler — parked,
  // and assigned on the previous day.
  const double speed_slow = speed({0.5, 0.5});
  Fleet devices;
  for (int i = 0; i < 2; ++i) {
    devices.add(DeviceSpec{1.0, 1.0}, {{0.0, 2.0 * kDay}});
  }
  devices.add(DeviceSpec{0.5, 0.5}, {{0.0, 2.0 * kDay}});

  const protocol::OvercommitProtocol oc(1.5);  // selection 3 for demand 2
  const RunResult r = run_proto(
      std::move(devices),
      {one_job(1, 2, kDay - 30.0, 60.0, /*deadline=*/4000.0)}, oc);

  ASSERT_EQ(r.finished_jobs(), 1u);
  EXPECT_EQ(r.jobs[0].total_aborts, 0);
  EXPECT_EQ(r.protocol.stragglers_released, 1u);
  // The slow device computed from kDay-30 to the kDay+30 cutoff.
  EXPECT_NEAR(r.protocol.wasted_work_s, 60.0, 1e-6);
  EXPECT_EQ(r.protocol.commits, 1u);
  // Sanity that the regression shape is real: the slow device was still
  // computing at the commit, and the release happened on the day AFTER
  // the assignment (the only case where a re-park is legal).
  EXPECT_GT(60.0 / speed_slow, 60.0);
  EXPECT_EQ(day_of(kDay + 30.0), day_of(kDay - 30.0) + 1);
}

TEST(ProtocolRun, OvercommitCommitsWhileAllocationStillPending) {
  // Demand 2 with K=1.5 asks for 3 devices but only 2 exist: the request
  // never fully allocates, yet both responses land at t=60 and the commit
  // threshold (2) is met — the early cutoff must commit from kPending.
  auto devices = always_on(2, {1.0, 1.0}, kDay);
  const protocol::OvercommitProtocol oc(1.5);
  const RunResult r = run_proto(std::move(devices), {one_job(1, 2)}, oc);

  ASSERT_EQ(r.finished_jobs(), 1u);
  ASSERT_EQ(r.jobs[0].rounds.size(), 1u);
  // Never-reached full allocation: the commit instant closes the round, so
  // the whole span reads as scheduling delay with zero collection time.
  EXPECT_NEAR(r.jobs[0].rounds[0].scheduling_delay, 60.0, 1e-6);
  EXPECT_NEAR(r.jobs[0].rounds[0].response_collection, 0.0, 1e-9);
  EXPECT_EQ(r.jobs[0].total_aborts, 0);
  EXPECT_EQ(r.protocol.stragglers_released, 0u);
}

TEST(ProtocolRun, OvercommitArmsDeadlineWithoutFullAllocation) {
  // K=2 inflates demand 5 to a selection target of 10 that a 5-device
  // fleet can never fully allocate, so the sync arming point (full
  // allocation) never comes. The deadline must arm anyway — once a
  // committable cohort (threshold 4) is in flight — because two of the
  // five responders die mid-computation and the round stalls at 3 < 4
  // responses: without the pending-state deadline it would hang to the
  // horizon instead of aborting and retrying.
  Fleet devices;
  for (int i = 0; i < 3; ++i) {
    devices.add(DeviceSpec{0.5, 0.5}, {{0.0, 30 * kDay}});
  }
  for (int i = 3; i < 5; ++i) {  // die at t=10, mid-computation
    devices.add(DeviceSpec{0.5, 0.5}, {{0.0, 10.0}});
  }
  const protocol::OvercommitProtocol oc(2.0);
  const RunResult r =
      run_proto(std::move(devices), {one_job(1, 5)}, oc, 2.0 * kDay);
  EXPECT_EQ(r.finished_jobs(), 0u);
  EXPECT_GE(r.jobs[0].total_aborts, 1);
}

// ------------------------------------------------------ async lifecycle --

TEST(ProtocolRun, AsyncCommitsPerBufferAndTracksStaleness) {
  // Two devices, buffer 1, concurrency 2, two rounds. Both respond at
  // t=60: the first response commits round 1; the second was assigned
  // under round 0 and lands in round 1 — staleness 1 — and commits round 2.
  auto devices = always_on(2, {1.0, 1.0}, kDay);
  const protocol::AsyncProtocol async(/*buffer=*/1, /*concurrency=*/2);
  api::TimeSeriesRecorder recorder;
  const RunResult r = run_proto(std::move(devices), {one_job(2, 2)}, async,
                                2.0 * kDay, &recorder);

  ASSERT_EQ(r.finished_jobs(), 1u);
  EXPECT_EQ(r.jobs[0].completed_rounds, 2);
  EXPECT_EQ(r.jobs[0].total_aborts, 0);
  ASSERT_EQ(r.jobs[0].rounds.size(), 2u);
  EXPECT_NEAR(r.jobs[0].rounds[0].response_collection, 60.0, 1e-6);
  EXPECT_NEAR(r.jobs[0].rounds[1].response_collection, 0.0, 1e-9);
  EXPECT_NEAR(r.jobs[0].jct, 60.0, 1e-6);

  EXPECT_EQ(r.protocol.commits, 2u);
  EXPECT_EQ(r.protocol.responses, 2u);
  EXPECT_EQ(r.protocol.stale_responses, 1u);
  EXPECT_EQ(r.protocol.staleness_sum, 1u);
  EXPECT_EQ(r.protocol.wasted_responses, 0u);
  EXPECT_NEAR(r.protocol.mean_staleness(), 0.5, 1e-9);
  EXPECT_NEAR(recorder.mean_staleness(kDay, kDay), 0.5, 1e-9);
}

TEST(ProtocolRun, AsyncAdmitsDevicesContinuously) {
  // Rounds 3 x buffer 2 = 6 responses needed; concurrency is capped at 2,
  // so completion requires freed slots to refill from the idle pool —
  // seven distinct devices are admitted over the run (the seventh is in
  // flight when the final commit finishes the job; its result is wasted).
  auto devices = always_on(8, {1.0, 1.0}, kDay);
  const protocol::AsyncProtocol async(/*buffer=*/2, /*concurrency=*/2);
  AssignmentMatrixObserver matrix;
  sim::Engine engine(1);
  ResourceManager mgr(std::make_unique<FifoScheduler>());
  mgr.add_observer(&matrix);
  CoordinatorConfig cfg;
  cfg.horizon = kDay;
  cfg.protocol = &async;
  Coordinator coord(engine, mgr, std::move(devices.devices),
                    std::move(devices.sessions), {one_job(3, 2)}, cfg);
  coord.run();
  const RunResult r = collect_results(coord, "async");

  ASSERT_EQ(r.finished_jobs(), 1u);
  EXPECT_EQ(r.jobs[0].completed_rounds, 3);
  EXPECT_NEAR(r.jobs[0].jct, 180.0, 1e-6);  // three 60 s waves
  EXPECT_EQ(matrix.total(), 7);
  EXPECT_EQ(r.protocol.commits, 3u);
  EXPECT_EQ(r.protocol.responses, 6u);
  EXPECT_EQ(r.protocol.wasted_responses, 1u);
  // One in-flight device per wave after the first carries staleness 1.
  EXPECT_EQ(r.protocol.stale_responses, 2u);
  // No reporting deadline was ever armed.
  EXPECT_EQ(r.jobs[0].total_aborts, 0);
}

// External sync-style protocol that releases stragglers — the only shape
// that can commit a round inside a sweep's allocating offer (the built-in
// overcommit has commit_while_pending, so it always commits in the
// response event that crossed the threshold, never in a sweep).
class ReleasingSyncProtocol final : public protocol::RoundProtocol {
 public:
  [[nodiscard]] std::string name() const override { return "releasing-sync"; }
  [[nodiscard]] int selection_target(int demand) const override {
    return std::max(1, demand);
  }
  [[nodiscard]] int commit_threshold(int demand) const override {
    return report_threshold(kReportFraction, demand);
  }
  [[nodiscard]] bool releases_stragglers() const override { return true; }
};

// FIFO, except one device is refused placement before a gate time (same
// rig as coordinator_test.cc's mid-sweep reentrancy test).
class GateScheduler final : public Scheduler {
 public:
  GateScheduler(DeviceId blocked, SimTime open_at)
      : blocked_(blocked), open_at_(open_at) {}
  [[nodiscard]] std::string name() const override { return "GATE"; }
  [[nodiscard]] std::optional<std::size_t> assign(
      const DeviceView& dev, std::span<const PendingJob> candidates,
      SimTime now) override {
    if (dev.id == blocked_ && now < open_at_) return std::nullopt;
    return fifo_.assign(dev, candidates, now);
  }

 private:
  DeviceId blocked_;
  SimTime open_at_;
  FifoScheduler fifo_;
};

class AssignmentLog final : public RunObserver {
 public:
  void on_assignment(const DeviceView& dev, const Job&, const AssignOutcome&,
                     SimTime now) override {
    entries.push_back({dev.id, now});
  }
  std::vector<std::pair<DeviceId, SimTime>> entries;
};

TEST(ProtocolRun, FinishedJobsHoldNoOpenRequest) {
  // A job is live until finish_job records its completion, and every
  // protocol closes the job's request at that moment. So a response,
  // failure or deadline that fires for a finished job is discarded by the
  // handlers' open-request checks as well as by their live-job checks.
  const protocol::SyncProtocol sync;
  const protocol::OvercommitProtocol oc(2.0);
  const protocol::AsyncProtocol async(/*buffer=*/1, /*concurrency=*/2);
  const protocol::RoundProtocol* const protocols[] = {&sync, &oc, &async};
  for (const protocol::RoundProtocol* proto : protocols) {
    Fleet devices = always_on(16, {1.0, 1.0}, 2.0 * kDay);
    sim::Engine engine(1);
    ResourceManager mgr(std::make_unique<FifoScheduler>());
    CoordinatorConfig cfg;
    cfg.horizon = 2.0 * kDay;
    cfg.protocol = proto;
    Coordinator coord(engine, mgr, std::move(devices.devices),
                      std::move(devices.sessions),
                      {one_job(2, 2), one_job(1, 3, 30.0)}, cfg);
    coord.run();
    ASSERT_EQ(coord.unfinished_jobs(), 0u) << proto->name();
    for (const auto& job : coord.jobs()) {
      EXPECT_TRUE(job->completion_recorded()) << proto->name();
      EXPECT_FALSE(job->request().has_value()) << proto->name();
    }
  }
}

TEST(ProtocolRun, MidSweepCommitDefersStragglerReleaseUntilPoolIsStable) {
  // Job 0 (demand 5, threshold 4) has 4 responses banked while the gate
  // parks device 4. Job 1's arrival sweep at t=600 assigns device 4, fully
  // allocating job 0, which commits INSIDE the sweep — and the protocol
  // releases device 4, the straggler the sweep itself just assigned. The
  // release must be deferred until the sweep pass ends: a direct
  // idle_insert would be undone by the pass's deferred erase and the
  // released device silently dropped from the pool. With the deferral it
  // is re-offered at the same timestamp (the follow-up sweep assigns it to
  // job 0's round 2).
  auto devices = always_on(5, {0.5, 0.5}, 20 * kDay);
  sim::Engine engine(1);
  ResourceManager mgr(
      std::make_unique<GateScheduler>(DeviceId(4), 500.0));
  AssignmentLog log;
  mgr.add_observer(&log);
  const ReleasingSyncProtocol proto;
  CoordinatorConfig cfg;
  cfg.protocol = &proto;
  Coordinator coord(engine, mgr, std::move(devices.devices),
                    std::move(devices.sessions),
                    {one_job(2, 5, 10.0), one_job(1, 1, 600.0)}, cfg);
  coord.run();
  const RunResult r = collect_results(coord, "GATE");

  ASSERT_EQ(r.finished_jobs(), 2u);
  // One release is the mid-sweep one under test; job 0's later rounds may
  // legitimately release more from ordinary response-event commits.
  EXPECT_GE(r.protocol.stragglers_released, 1u);
  // Two assignments at t=600: device 4 into job 0's committing round, then
  // — after the deferred release — device 4 again into the next round.
  std::size_t at_600 = 0;
  bool dev4_reassigned = false;
  for (const auto& [dev, at] : log.entries) {
    if (at == 600.0) {
      ++at_600;
      dev4_reassigned |= (dev == DeviceId(4));
    }
  }
  EXPECT_EQ(at_600, 2u);
  EXPECT_TRUE(dev4_reassigned);
}

// FIFO, except one job is withheld from assignment before a gate time —
// lets a test hold a pending request across a day boundary.
class JobGateScheduler final : public Scheduler {
 public:
  JobGateScheduler(JobId gated, SimTime open_at)
      : gated_(gated), open_at_(open_at) {}
  [[nodiscard]] std::string name() const override { return "JOBGATE"; }
  [[nodiscard]] std::optional<std::size_t> assign(
      const DeviceView&, std::span<const PendingJob> candidates,
      SimTime now) override {
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (candidates[i].job == gated_ && now < open_at_) continue;
      return i;  // candidates arrive in ascending job-id order
    }
    return std::nullopt;
  }

 private:
  JobId gated_;
  SimTime open_at_;
};

TEST(ProtocolRun, ReleasedStragglerAssignedByDayBoundaryRearmLeavesPool) {
  // A released straggler is re-parked in the idle pool while the
  // day-boundary attempt_checkin re-arm from its original assignment is
  // still pending. When that re-arm fires at midnight and assigns the
  // device (to a request held pending across midnight by the gate), the
  // device must leave the pool — otherwise a later sweep offers the busy
  // device a second time and double-assigns it.
  //
  // t=0       job 0 (demand 1, K=2 -> selection 2) takes devices 0 and 1.
  // t=60      device 0's response commits; device 1 released into the pool
  //           (its day-1 re-arm stays scheduled).
  // t=1000    job 1 arrives; the gate withholds it until midnight, so the
  //           sweep leaves device 1 parked.
  // t=86400   device 1's re-arm fires, gate open: assigned to job 1.
  // t=86450   job 2 arrives. Its sweep must NOT find device 1 (busy until
  //           ~86507); pre-fix it did, double-assigning the device.
  // t=172800  device 1's next re-arm serves job 2.
  Fleet devices;
  devices.add(DeviceSpec{1.0, 1.0}, {{0.0, 1000.0}});
  devices.add(DeviceSpec{0.5, 0.5}, {{0.0, 3.0 * kDay}});
  sim::Engine engine(1);
  ResourceManager mgr(
      std::make_unique<JobGateScheduler>(JobId(1), 86400.0));
  AssignmentLog log;
  mgr.add_observer(&log);
  const protocol::OvercommitProtocol oc(2.0);
  CoordinatorConfig cfg;
  cfg.horizon = 3.0 * kDay;
  cfg.protocol = &oc;
  Coordinator coord(
      engine, mgr, std::move(devices.devices), std::move(devices.sessions),
      {one_job(1, 1, 0.0), one_job(1, 1, 1000.0), one_job(1, 1, 86450.0)},
      cfg);
  coord.run();
  const RunResult r = collect_results(coord, "JOBGATE");

  ASSERT_EQ(r.finished_jobs(), 3u);
  std::vector<SimTime> dev1_assignments;
  for (const auto& [dev, at] : log.entries) {
    if (dev == DeviceId(1)) dev1_assignments.push_back(at);
  }
  // Exactly one assignment per task, never while computing: t=0 (job 0,
  // released at 60), t=86400 (job 1), t=172800 (job 2). The pre-fix bug
  // showed an extra assignment at t=86450 mid-computation.
  EXPECT_EQ(dev1_assignments,
            (std::vector<SimTime>{0.0, 86400.0, 172800.0}));
}

// -------------------------------------------------- scenario-level wiring --

TEST(ProtocolScenario, BuilderWiresProtocolEndToEnd) {
  ExperimentBuilder b;
  b.devices(300).jobs(4).horizon(4.0 * kDay).seed(11);
  b.set("protocol", "overcommit");
  b.set("protocol.overcommit", "1.4");
  const Experiment ex = b.build();
  EXPECT_EQ(ex.round_protocol().name(), "overcommit");
  EXPECT_EQ(ex.round_protocol().selection_target(10), 14);
  const RunResult r = ex.run("venn");
  EXPECT_EQ(r.jobs.size(), 4u);
  // Over-selection produced at least one cutoff with a straggler in
  // flight somewhere in 4 jobs x several rounds.
  EXPECT_GT(r.protocol.commits, 0u);
}

TEST(ProtocolScenario, SyncScenarioKeepsZeroProtocolOverheads) {
  ExperimentBuilder b;
  b.devices(300).jobs(4).horizon(4.0 * kDay).seed(11);
  b.set("protocol", "sync");
  const RunResult r = b.build().run(PolicySpec{"venn"});
  EXPECT_EQ(r.protocol.stragglers_released, 0u);
  EXPECT_EQ(r.protocol.staleness_sum, 0u);
  EXPECT_EQ(r.protocol.stale_responses, 0u);
}

// The sweep/index hot path must be protocol-agnostic: for every protocol,
// re-running at the same seed replays byte-identically. (This is the
// test-side lock of the scenario_gallery determinism column. The index's
// answers themselves are pinned to a brute-force fleet scan by
// SupplyRate.MatchesBruteForceScan; the test keeps its historical name.)
class ProtocolIndexEquivalenceTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ProtocolIndexEquivalenceTest, IndexAndScanTrajectoriesIdentical) {
  const std::string proto = GetParam();
  RunResult results[2];
  for (RunResult& result : results) {
    ExperimentBuilder b;
    b.devices(350).jobs(6).horizon(5.0 * kDay).seed(23);
    b.set("arrival", "poisson");
    b.set("churn", "diurnal");
    b.set("protocol", proto);
    result = b.build().run(PolicySpec{"venn"});
  }
  const RunResult& first = results[0];
  const RunResult& replay = results[1];
  ASSERT_EQ(first.jobs.size(), replay.jobs.size());
  for (std::size_t i = 0; i < first.jobs.size(); ++i) {
    EXPECT_EQ(first.jobs[i].jct, replay.jobs[i].jct) << proto << " job " << i;
    EXPECT_EQ(first.jobs[i].completed_rounds, replay.jobs[i].completed_rounds);
    EXPECT_EQ(first.jobs[i].total_aborts, replay.jobs[i].total_aborts);
  }
  EXPECT_TRUE(first.protocol == replay.protocol) << proto;
}

INSTANTIATE_TEST_SUITE_P(Protocols, ProtocolIndexEquivalenceTest,
                         ::testing::Values("sync", "overcommit", "async"));

}  // namespace
}  // namespace venn
