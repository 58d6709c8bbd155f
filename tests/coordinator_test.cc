// Protocol-level tests for the coordinator: the CL round lifecycle under
// controlled device populations — deadline aborts, ephemeral-device
// failures, the one-job-per-day rule and idle-pool behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/coordinator.h"
#include "core/metrics.h"
#include "core/resource_manager.h"
#include "fleet.h"
#include "protocol/builtins.h"
#include "scheduler/fifo_sched.h"
#include "sim/engine.h"
#include "trace/availability.h"
#include "trace/hardware.h"
#include "workload/churn.h"

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
  s.task_cv = 0.0;  // deterministic execution by default
  s.deadline_s = deadline;
  return s;
}

// `n` always-on devices of the given spec.
Fleet always_on(int n, DeviceSpec spec, SimTime horizon) {
  Fleet out;
  for (int i = 0; i < n; ++i) out.add(spec, {{0.0, horizon}});
  return out;
}

RunResult run(Fleet fleet, std::vector<trace::JobSpec> jobs,
              SimTime horizon = 14.0 * kDay) {
  sim::Engine engine(1);
  ResourceManager mgr(std::make_unique<FifoScheduler>());
  CoordinatorConfig cfg;
  cfg.horizon = horizon;
  Coordinator coord(engine, mgr, std::move(fleet.devices),
                    std::move(fleet.sessions), std::move(jobs), cfg);
  coord.run();
  return collect_results(coord, "FIFO");
}

TEST(Coordinator, SingleRoundCompletesFromIdlePool) {
  // 10 devices online at t=0; job arrives at t=100 needing 5: instant fill,
  // response collection = deterministic exec time of a speed-s device.
  auto devices = always_on(10, {0.5, 0.5}, kDay);
  const double exec = 60.0 / speed({0.5, 0.5});
  const RunResult r = run(std::move(devices), {one_job(1, 5, 100.0)});
  ASSERT_EQ(r.finished_jobs(), 1u);
  ASSERT_EQ(r.jobs[0].rounds.size(), 1u);
  EXPECT_NEAR(r.jobs[0].rounds[0].scheduling_delay, 0.0, 1e-9);
  EXPECT_NEAR(r.jobs[0].rounds[0].response_collection, exec, 1e-6);
  EXPECT_NEAR(r.jobs[0].jct, exec, 1e-6);
}

TEST(Coordinator, SchedulingDelayWaitsForCheckins) {
  // Devices come online one per hour; a demand-3 job submitted at t=0 is
  // fully allocated when the third device appears.
  Fleet devices;
  for (int i = 0; i < 5; ++i) {
    devices.add(DeviceSpec{0.5, 0.5},
                {{(i + 1) * kHour, (i + 1) * kHour + 10 * kHour}});
  }
  const RunResult r = run(std::move(devices), {one_job(1, 3)});
  ASSERT_EQ(r.finished_jobs(), 1u);
  EXPECT_NEAR(r.jobs[0].rounds[0].scheduling_delay, 3 * kHour, 1.0);
}

TEST(Coordinator, EightyPercentRuleIgnoresStragglers) {
  // 10 devices: 8 fast, 2 very slow. Round of demand 10 completes when the
  // 8th (fast) response arrives; the slow pair never gates completion.
  Fleet devices;
  for (int i = 0; i < 8; ++i) {
    devices.add(DeviceSpec{1.0, 1.0}, {{0.0, kDay}});
  }
  for (int i = 8; i < 10; ++i) {
    devices.add(DeviceSpec{0.0, 0.0}, {{0.0, kDay}});
  }
  const double fast_exec = 60.0 / speed({1.0, 1.0});
  const RunResult r = run(std::move(devices), {one_job(1, 10)});
  ASSERT_EQ(r.finished_jobs(), 1u);
  EXPECT_NEAR(r.jobs[0].rounds[0].response_collection, fast_exec, 1e-6);
}

TEST(Coordinator, DeadlineAbortsAndRetries) {
  // Demand 5 but only 4 devices can ever respond (the 5th fails: its
  // session ends before it finishes). With <80%*5=4 responses... 4 of 5 is
  // exactly 80%, so make 2 fail: 3 responses < 4 needed -> deadline abort,
  // retry also fails, job never finishes (censored at horizon).
  Fleet devices;
  for (int i = 0; i < 3; ++i) {
    devices.add(DeviceSpec{0.5, 0.5}, {{0.0, 30 * kDay}});
  }
  // Two ephemeral devices whose sessions end mid-computation (exec ~120 s).
  for (int i = 3; i < 5; ++i) {
    devices.add(DeviceSpec{0.5, 0.5}, {{0.0, 10.0}});
  }
  sim::Engine engine(1);
  ResourceManager mgr(std::make_unique<FifoScheduler>());
  CoordinatorConfig cfg;
  cfg.horizon = 2.0 * kDay;
  Coordinator coord(engine, mgr, std::move(devices.devices),
                    std::move(devices.sessions), {one_job(1, 5)}, cfg);
  coord.run();
  const RunResult r = collect_results(coord, "FIFO");
  EXPECT_EQ(r.finished_jobs(), 0u);
  EXPECT_GE(r.jobs[0].total_aborts, 1);
}

TEST(Coordinator, FailedPendingAssignmentReopensDemand) {
  // Demand 3. Devices 0 and 1 are assigned at t=0, but device 0's session
  // ends at t=10 — before it can finish — while the request is still
  // pending (2/3 assigned). The freed unit of demand must be re-openable:
  // devices arriving at 1 h and 2 h complete the allocation.
  Fleet devices;
  devices.add(DeviceSpec{0.5, 0.5}, {{0.0, 10.0}});  // dies at t=10
  devices.add(DeviceSpec{0.5, 0.5}, {{0.0, kDay}});
  devices.add(DeviceSpec{0.5, 0.5}, {{kHour, kDay}});
  devices.add(DeviceSpec{0.5, 0.5}, {{2 * kHour, kDay}});
  const RunResult r = run(std::move(devices), {one_job(1, 3)});
  ASSERT_EQ(r.finished_jobs(), 1u);
  // Full allocation required the 2 h arrival (the failed unit re-opened).
  EXPECT_GE(r.jobs[0].rounds[0].scheduling_delay, 2 * kHour - 1.0);
}

// Replays fixed per-device session lists as churn streams, abutting
// sessions included (the built-in models never emit those), stopping at
// the horizon like every churn stream.
class ReplayChurn final : public workload::ChurnModel {
 public:
  explicit ReplayChurn(std::vector<std::vector<Session>> traces)
      : traces_(std::move(traces)) {}
  [[nodiscard]] std::string name() const override { return "replay"; }
  [[nodiscard]] std::unique_ptr<workload::ChurnStream> stream(
      const workload::DeviceStreamCtx& ctx) const override {
    class Stream final : public workload::ChurnStream {
     public:
      Stream(const std::vector<Session>& ss, SimTime horizon)
          : ss_(ss), horizon_(horizon) {}
      std::optional<Session> next() override {
        if (i_ == ss_.size() || ss_[i_].start >= horizon_) return std::nullopt;
        return ss_[i_++];
      }

     private:
      const std::vector<Session>& ss_;
      SimTime horizon_;
      std::size_t i_ = 0;
    };
    return std::make_unique<Stream>(traces_[ctx.index], ctx.horizon);
  }
  [[nodiscard]] double mean_sessions_per_day() const override { return 1.0; }
  [[nodiscard]] double mean_session_seconds() const override { return kHour; }

 private:
  std::vector<std::vector<Session>> traces_;
};

// The O(1) session cursor answers exactly what a search of the device's
// sessions does, at every probe: session starts and ends, just before
// each, inside gaps, and on touching sessions (end == next start) probed
// at the shared boundary both before the next start's event has fired
// (probes scheduled before setup order ahead of every reserved start seq)
// and after it (probes scheduled after setup). Boundaries on whole hours
// land on the event queue's lane chunk edges. The same sessions run once
// from a trace column and once streamed from a churn model, searched in
// the sessions each stream drains to.
TEST(Coordinator, SessionCursorMatchesTraceSearch) {
  const SimTime horizon = 2.0 * kDay;
  std::vector<std::vector<Session>> traces{
      {{100.0, 200.0}, {200.0, 300.0}, {300.0, 3600.0}, {3600.0, 3700.0},
       {7200.0, 10800.0}, {10800.0, 10900.0}},
      {{0.0, 3600.0}, {3600.0, 7200.0}, {7200.0, 7201.0}},
      // The last session starts exactly at the horizon.
      {{50.0, 60.0}, {horizon, horizon + 10.0}},
      {}};
  Rng rng(17);
  for (int d = 0; d < 40; ++d) {
    std::vector<Session> ss;
    SimTime t = rng.uniform(0.0, 2.0 * kHour);
    while (t < horizon + kHour) {
      const SimTime end = t + rng.uniform(60.0, 3.0 * kHour);
      ss.push_back({t, end});
      t = rng.uniform() < 0.4 ? end : end + rng.uniform(1.0, 4.0 * kHour);
    }
    traces.push_back(std::move(ss));
  }
  const ReplayChurn churn(traces);

  for (const bool streamed : {false, true}) {
    SCOPED_TRACE(streamed ? "streamed churn" : "trace column");
    Fleet fleet;
    std::vector<std::vector<Session>> searched;
    std::vector<SimTime> probes;
    std::size_t touching = 0;
    for (std::size_t d = 0; d < traces.size(); ++d) {
      fleet.add(DeviceSpec{0.5, 0.5}, traces[d]);
      searched.push_back(
          streamed ? workload::materialize_sessions(churn, {d, 0, horizon})
                   : traces[d]);
      const std::vector<Session>& ss = searched.back();
      for (std::size_t k = 0; k < ss.size(); ++k) {
        const Session& s = ss[k];
        touching += k > 0 && ss[k - 1].end == s.start ? 1 : 0;
        for (SimTime t :
             {s.start, s.end, 0.5 * (s.start + s.end),
              std::nextafter(s.start, 0.0), std::nextafter(s.end, 0.0)}) {
          if (t >= 0.0 && t <= horizon) probes.push_back(t);
        }
      }
    }
    ASSERT_GT(touching, 20u);
    std::sort(probes.begin(), probes.end());
    probes.erase(std::unique(probes.begin(), probes.end()), probes.end());

    sim::Engine engine(1);
    ResourceManager mgr(std::make_unique<FifoScheduler>());
    CoordinatorConfig cfg;
    cfg.horizon = horizon;
    if (streamed) cfg.churn = &churn;
    Coordinator coord(engine, mgr, fleet.devices,
                      streamed ? SessionColumn{} : fleet.sessions,
                      {one_job(2, 5, 600.0)}, cfg);
    std::size_t checks = 0;
    auto probe = [&] {
      const SimTime now = engine.now();
      for (std::size_t d = 0; d < searched.size(); ++d) {
        SimTime expected = -1.0;
        for (const Session& s : searched[d]) {
          if (s.contains(now)) expected = s.end;
        }
        EXPECT_EQ(coord.session_end(d), expected)
            << "device " << d << " at t=" << now;
        ++checks;
      }
    };
    for (SimTime t : probes) engine.at(t, probe);  // ahead of every start
    coord.setup();
    for (SimTime t : probes) engine.at(t, probe);  // behind every start
    engine.run_until(horizon);
    EXPECT_EQ(checks, 2 * probes.size() * searched.size());
    if (streamed) {
      EXPECT_LE(coord.resident_session_count(), searched.size());
      EXPECT_GT(coord.sessions_streamed(), searched.size());
    }
  }
}

TEST(Coordinator, OneJobPerDayPerDevice) {
  // 5 always-on devices, one 3-round job of demand 5: every round consumes
  // all devices for the day, so rounds complete ~one per day.
  auto devices = always_on(5, {0.5, 0.5}, 10 * kDay);
  const RunResult r = run(std::move(devices), {one_job(3, 5)});
  ASSERT_EQ(r.finished_jobs(), 1u);
  // Three rounds need three distinct days of participation.
  EXPECT_GE(r.jobs[0].jct, 2 * kDay);
  EXPECT_LE(r.jobs[0].jct, 4 * kDay);
}

TEST(Coordinator, IneligibleDevicesNeverAssigned) {
  // High-perf job, low-end population: the job can never start.
  auto devices = always_on(20, {0.1, 0.1}, 5 * kDay);
  trace::JobSpec hp = one_job(1, 2);
  hp.category = ResourceCategory::kHighPerf;
  const RunResult r = run(std::move(devices), {hp}, 5 * kDay);
  EXPECT_EQ(r.finished_jobs(), 0u);
  EXPECT_EQ(r.jobs[0].completed_rounds, 0);
  EXPECT_TRUE(r.jobs[0].rounds.empty());
}

TEST(Coordinator, AssignmentMatrixObserverAccountsEveryAssignment) {
  auto devices = always_on(30, {0.6, 0.6}, 5 * kDay);
  sim::Engine engine(1);
  ResourceManager mgr(std::make_unique<FifoScheduler>());
  AssignmentMatrixObserver matrix;
  mgr.add_observer(&matrix);
  CoordinatorConfig cfg;
  cfg.horizon = 5 * kDay;
  Coordinator coord(engine, mgr, std::move(devices.devices),
                    std::move(devices.sessions), {one_job(2, 8)}, cfg);
  coord.run();
  EXPECT_EQ(matrix.total(), 16);  // 2 rounds x 8 devices, no failures
  // A {0.6, 0.6} device sits in the High-Perf region; the job is General.
  EXPECT_EQ(matrix.matrix()[static_cast<int>(ResourceCategory::kHighPerf)]
                           [static_cast<int>(ResourceCategory::kGeneral)],
            16);
}

TEST(Coordinator, SoloJctEstimateIsPositiveAndScalesWithRounds) {
  auto devices = always_on(50, {0.5, 0.5}, 7 * kDay);
  sim::Engine engine(1);
  ResourceManager mgr(std::make_unique<FifoScheduler>());
  Coordinator coord(engine, mgr, std::move(devices.devices),
                    std::move(devices.sessions), {}, {});
  const double one = coord.solo_jct_estimate(one_job(1, 10));
  const double ten = coord.solo_jct_estimate(one_job(10, 10));
  EXPECT_GT(one, 0.0);
  EXPECT_NEAR(ten / one, 10.0, 1e-6);
}

TEST(Coordinator, HorizonCensorsUnfinishedJobs) {
  auto devices = always_on(2, {0.5, 0.5}, 100 * kDay);
  // Demand 10 with only 2 devices/day: cannot finish within 1 day horizon.
  const RunResult r = run(std::move(devices), {one_job(1, 10)}, 1.0 * kDay);
  EXPECT_EQ(r.finished_jobs(), 0u);
  EXPECT_NEAR(r.jobs[0].jct, 1.0 * kDay, 1.0);  // censored at horizon
}

// FIFO, except one device is refused placement before a gate time. Lets a
// test park an eligible device in the idle pool while a job still wants it
// — the greedy baselines would otherwise grab it at check-in.
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

TEST(Coordinator, SpentBudgetBlocksASecondSessionTheSameDay) {
  // The one-job-per-day budget, not the day-boundary re-arm, is what keeps
  // a device with two sessions in one day from a second job that day.
  // Device 0 is assigned job 0 at t=0 and reports long before its first
  // session ends; its second session opens at 2 h with job 1 waiting, and
  // the spent day-0 budget turns it away. Its next assignment is at the
  // first session of day 1.
  Fleet fleet;
  fleet.add(DeviceSpec{0.5, 0.5},
            {{0.0, kHour}, {2.0 * kHour, 3.0 * kHour}, {kDay, kDay + kHour}});
  sim::Engine engine(1);
  ResourceManager mgr(std::make_unique<FifoScheduler>());
  AssignmentLog log;
  mgr.add_observer(&log);
  CoordinatorConfig cfg;
  cfg.horizon = 2.0 * kDay;
  Coordinator coord(engine, mgr, std::move(fleet.devices),
                    std::move(fleet.sessions),
                    {one_job(1, 1), one_job(1, 1, 1.5 * kHour)}, cfg);
  coord.run();
  ASSERT_EQ(log.entries.size(), 2u);
  EXPECT_EQ(log.entries[0].second, 0.0);
  EXPECT_EQ(log.entries[1].second, kDay);
  EXPECT_EQ(coord.hot_state().participation_day[0], 1);
}

TEST(Coordinator, MidSweepRoundCompletionDefersNestedSweep) {
  // Regression test for idle-sweep reentrancy: a round whose last device is
  // assigned *by a sweep* while >= 80% of its responses already landed
  // completes synchronously inside that sweep (handle_outcome ->
  // maybe_complete -> submit_request), and the resubmission calls back into
  // offer_idle_pool mid-iteration. The guard must defer that nested sweep;
  // without it the nested sweep re-read the outer sweep's pool snapshot and
  // could re-offer the device the outer sweep had just assigned.
  //
  // Devices 0-3 plus the gated device 4, all always-on. Job 0 (demand 5,
  // 2 rounds) arrives at t=10 and takes devices 0-3; the gate keeps device
  // 4 parked even though job 0 still wants one more. All four responses
  // land at t = 10 + exec < 600, so job 0 sits at exactly
  // needed_responses() with one unit of demand open. Job 1's arrival at
  // t=600 sweeps the pool (gate now open): device 4's assignment fully
  // allocates job 0 and completes its round inside the sweep.
  auto devices = always_on(5, {0.5, 0.5}, 20 * kDay);
  sim::Engine engine(1);
  ResourceManager mgr(std::make_unique<GateScheduler>(DeviceId(4), 500.0));
  AssignmentLog log;
  mgr.add_observer(&log);
  Coordinator coord(engine, mgr, std::move(devices.devices),
                    std::move(devices.sessions),
                    {one_job(2, 5, 10.0), one_job(1, 1, 600.0)}, {});
  coord.run();
  const RunResult r = collect_results(coord, "GATE");

  ASSERT_EQ(r.finished_jobs(), 2u);
  ASSERT_EQ(r.jobs[0].rounds.size(), 2u);
  // Round 1 completed the instant it was fully allocated, inside the t=600
  // sweep: delay 600-10, zero response-collection time.
  EXPECT_NEAR(r.jobs[0].rounds[0].scheduling_delay, 590.0, 1e-9);
  EXPECT_NEAR(r.jobs[0].rounds[0].response_collection, 0.0, 1e-9);
  // The mid-sweep resubmission hit the reentrancy guard and was deferred.
  EXPECT_GE(coord.hotpath_stats().resweeps, 1u);
  // The t=600 sweep made exactly one assignment (device 4 -> job 0); a
  // nested sweep would have re-offered the already-assigned device 4 to
  // round 2 at the same timestamp.
  std::size_t at_600 = 0;
  for (const auto& [dev, at] : log.entries) at_600 += (at == 600.0) ? 1 : 0;
  EXPECT_EQ(at_600, 1u);
}

TEST(Coordinator, SoloJctProbeCannotDesyncIndexBits) {
  // solo_jct_estimate() is public and lazily registers requirements with
  // the eligibility index on first sight. The index registers into the
  // manager's space, so a probe for a category that never becomes a job
  // only takes a bit no job group uses: a run after such a probe must
  // simulate exactly like the same run without it.
  RunResult results[2];
  for (const bool probed : {false, true}) {
    // {0.4, 0.4}: eligible for General but NOT High-Perf (threshold 0.5),
    // so a desynced index signature has no overlap with the wanted bit.
    auto devices = always_on(10, {0.4, 0.4}, 5 * kDay);
    sim::Engine engine(1);
    ResourceManager mgr(std::make_unique<FifoScheduler>());
    CoordinatorConfig cfg;
    cfg.horizon = 5 * kDay;
    Coordinator coord(engine, mgr, std::move(devices.devices),
                    std::move(devices.sessions),
                      {one_job(2, 5, 100.0)}, cfg);
    if (probed) {
      trace::JobSpec probe = one_job(1, 2);
      probe.category = ResourceCategory::kHighPerf;
      (void)coord.solo_jct_estimate(probe);  // HighPerf takes index bit 0
      ASSERT_TRUE(coord.index().requirement(0) ==
                  requirement_for(ResourceCategory::kHighPerf));
    }
    coord.run();
    results[probed ? 1 : 0] = collect_results(coord, "FIFO");
  }
  ASSERT_EQ(results[1].finished_jobs(), 1u);
  ASSERT_EQ(results[0].finished_jobs(), 1u);
  EXPECT_EQ(results[1].jobs[0].jct, results[0].jobs[0].jct);
  EXPECT_EQ(results[1].jobs[0].rounds[0].scheduling_delay,
            results[0].jobs[0].rounds[0].scheduling_delay);
}

TEST(Coordinator, SweepOffersEveryDeviceOfAManagerFirstRequirement) {
  // The coordinator registers each job's requirement with the index (the
  // solo-JCT estimate) before the manager. Reverse that: job 1's
  // Memory-Rich requirement enters the shared space through the manager
  // alone, after every device parked idle, so no index registration ever
  // rebuckets its bit. The sweep of job 0's second round must still read
  // a column carrying that bit and offer job 1 every eligible device.
  constexpr int kPerKind = 5;
  Fleet devices;
  for (int i = 0; i < 2 * kPerKind; ++i) {
    const DeviceSpec spec =
        i < kPerKind ? DeviceSpec{0.9, 0.1} : DeviceSpec{0.1, 0.9};
    devices.add(spec, {{0.0, kDay}});
  }
  trace::JobSpec compute = one_job(2, 1, 10.0, 300.0, 3000.0);
  compute.category = ResourceCategory::kComputeRich;
  // Arrives past the horizon: the coordinator never registers it itself.
  trace::JobSpec memory = one_job(1, kPerKind, kDay);
  memory.category = ResourceCategory::kMemoryRich;

  sim::Engine engine(1);
  ResourceManager mgr(std::make_unique<FifoScheduler>());
  AssignmentLog log;
  mgr.add_observer(&log);
  CoordinatorConfig cfg;
  cfg.horizon = 0.5 * kDay;
  Coordinator coord(engine, mgr, std::move(devices.devices),
                    std::move(devices.sessions), {compute, memory}, cfg);
  coord.setup();
  constexpr SimTime kManagerFirst = 20.0;
  engine.at(kManagerFirst, [&] {
    Job* job = coord.jobs()[1].get();
    mgr.register_job(job, 1.0);
    (void)mgr.open_request(job->id(), engine.now(), 0.5);
  });
  engine.run_until(cfg.horizon);

  // Check-ins all happen at t=0, so assignments after the manager-first
  // registration come from sweeps: one sweep took every Memory-Rich device.
  std::vector<SimTime> memory_at;
  for (const auto& [dev, at] : log.entries) {
    if (dev.value() >= kPerKind) memory_at.push_back(at);
  }
  ASSERT_EQ(memory_at.size(), static_cast<std::size_t>(kPerKind));
  EXPECT_GT(memory_at[0], kManagerFirst);
  for (const SimTime at : memory_at) EXPECT_EQ(at, memory_at[0]);
  EXPECT_EQ(coord.jobs()[1]->completed_rounds(), 1);
  EXPECT_EQ(coord.index().maintenance_stats().requirement_registrations, 2u);
}

TEST(Coordinator, ResponseLandingExactlyAtDeadlineCompletes) {
  // Demand 1, exec time tuned to land exactly at the reporting deadline:
  // full allocation at t=0, deadline span 60 s, deterministic exec 60 s.
  // Both events fire at t=60; the response event was scheduled first in
  // the same handle_outcome call, and the event queue is FIFO among
  // same-time events, so the round completes and the deadline is a no-op.
  // This pins the boundary semantics: "at the deadline" counts.
  const double exec = 60.0 / speed({1.0, 1.0});
  ASSERT_DOUBLE_EQ(exec, 60.0);
  auto devices = always_on(1, {1.0, 1.0}, kDay);
  const RunResult r = run(std::move(devices),
                          {one_job(1, 1, 0.0, 60.0, /*deadline=*/exec)});
  ASSERT_EQ(r.finished_jobs(), 1u);
  EXPECT_EQ(r.jobs[0].total_aborts, 0);
  EXPECT_NEAR(r.jobs[0].rounds[0].response_collection, exec, 1e-9);
}

TEST(Coordinator, AbortMidComputationStragglerDisposition) {
  // Demand 2: a fast device responds at t=60, a weak device's exec (500 s)
  // overruns the 300 s reporting deadline — the abort fires while it is
  // mid-computation. The two protocols dispose of that straggler
  // differently:
  //   sync       — the device stays charged for the day; the retry finds
  //                an empty pool and the job never finishes (2 lifetime
  //                assignments).
  //   overcommit — the abort releases it (budget refunded), the retry's
  //                sweep re-acquires it immediately (>= 3 assignments),
  //                and the release is visible in the wasted-work counters.
  for (const bool overcommit : {false, true}) {
    Fleet devices;
    devices.add(DeviceSpec{1.0, 1.0}, {{0.0, kDay}});
    devices.add(DeviceSpec{0.0, 0.0}, {{0.0, kDay}});  // exec 500 s
    sim::Engine engine(1);
    ResourceManager mgr(std::make_unique<FifoScheduler>());
    const protocol::SyncProtocol sync_proto;
    const protocol::OvercommitProtocol oc_proto(1.0);  // selection = demand
    AssignmentLog log;
    mgr.add_observer(&log);
    CoordinatorConfig cfg;
    cfg.horizon = 0.9 * kDay;  // no day-boundary budget reset
    cfg.protocol = overcommit
                       ? static_cast<const protocol::RoundProtocol*>(&oc_proto)
                       : &sync_proto;
    Coordinator coord(engine, mgr, std::move(devices.devices),
                    std::move(devices.sessions),
                      {one_job(1, 2, 0.0, 60.0, /*deadline=*/300.0)}, cfg);
    coord.run();
    const RunResult r = collect_results(coord, "FIFO");

    EXPECT_EQ(r.finished_jobs(), 0u) << "overcommit=" << overcommit;
    EXPECT_GE(r.jobs[0].total_aborts, 1) << "overcommit=" << overcommit;
    if (overcommit) {
      EXPECT_GE(r.protocol.stragglers_released, 1u);
      EXPECT_GE(log.entries.size(), 3u);
      // The straggler was re-acquired at the abort instant, same day.
      bool reacquired_after_abort = false;
      for (const auto& [dev, at] : log.entries) {
        reacquired_after_abort |= (dev == DeviceId(1) && at > 60.0);
      }
      EXPECT_TRUE(reacquired_after_abort);
    } else {
      EXPECT_EQ(r.protocol.stragglers_released, 0u);
      EXPECT_EQ(log.entries.size(), 2u);
    }
  }
}

// Property sweep: under arbitrary seeds, protocol invariants hold for a
// mixed population and several jobs.
class ProtocolInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(ProtocolInvariantTest, RoundAccountingConsistent) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  trace::HardwareConfig hw;
  trace::AvailabilityConfig av;
  av.horizon = 14 * kDay;
  Fleet devices;
  for (int i = 0; i < 400; ++i) {
    const std::vector<Session> sessions = trace::generate_sessions(av, rng);
    devices.add(trace::sample_spec(hw, rng), sessions);
  }
  std::vector<trace::JobSpec> jobs;
  for (int j = 0; j < 5; ++j) {
    trace::JobSpec s = one_job(1 + static_cast<int>(rng.index(4)),
                               2 + static_cast<int>(rng.index(10)),
                               rng.uniform(0.0, kDay));
    s.task_cv = 0.3;
    jobs.push_back(s);
  }
  const RunResult r = run(std::move(devices), jobs);
  for (const auto& j : r.jobs) {
    EXPECT_LE(j.completed_rounds, j.spec.rounds);
    EXPECT_EQ(static_cast<int>(j.rounds.size()), j.completed_rounds);
    if (j.finished) {
      EXPECT_EQ(j.completed_rounds, j.spec.rounds);
      double lower = 0.0;
      for (const auto& round : j.rounds) {
        EXPECT_GE(round.scheduling_delay, -1e-9);
        EXPECT_GE(round.response_collection, -1e-9);
        EXPECT_LE(round.response_collection, j.spec.deadline_s + 1e-6);
        lower += round.scheduling_delay + round.response_collection;
      }
      EXPECT_GE(j.jct + 1e-6, lower);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolInvariantTest, ::testing::Range(1, 11));

}  // namespace
}  // namespace venn
