// Oracles for the request path's incremental state.
//
//  * RequestPathOracle: the resource manager's wanting-row table against a
//    fresh walk of Job state. A recording policy around Venn holds every
//    queue change's pending span, and every offer's candidate span, field
//    by field against the rows a walk of the coordinator's jobs builds at
//    that instant, under the sync, overcommit and async protocols. A row
//    that goes stale (a path that changes a row field without invalidating
//    the table) shows up here even where no decision happens to move.
//  * SweepExit: the idle-pool sweep's early exit. With the coordinator's
//    check_sweep_exits hook on, every exit first scans the devices the
//    sweep left unvisited and throws if one of them matches the wants
//    mask, including a sweep whose offer completes a round and resubmits
//    it mid-sweep.
//  * LaneRefill: the lane's hour-bucketed source of session starts. With
//    the coordinator's check_lane_refills hook on, every refill is held
//    against a scan of the whole next-start column: the same starts in the
//    same (device) order, and after an empty refill the same earliest
//    start left.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/live.h"
#include "fleet.h"
#include "protocol/builtins.h"
#include "scheduler/fifo_sched.h"
#include "scheduler/venn_sched.h"
#include "service/dump.h"
#include "venn/venn.h"

namespace venn {
namespace {

// Venn, with every span it is handed checked against a fresh walk.
class RecordingVenn final : public Scheduler {
 public:
  explicit RecordingVenn(std::uint64_t seed) : inner_(VennConfig{}, Rng(seed)) {}

  // The run to walk; set once both exist, before the run starts.
  void watch(const Coordinator* coord, const ResourceManager* manager) {
    coord_ = coord;
    manager_ = manager;
  }

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void on_device_checkin(const DeviceView& dev, SimTime now) override {
    inner_.on_device_checkin(dev, now);
  }
  void on_queue_change(std::span<const PendingJob> pending,
                       SimTime now) override {
    ++queue_changes;
    check(pending, ~0ULL, "queue change", now);
    inner_.on_queue_change(pending, now);
  }
  void on_response(JobId job, double capacity, double response_time,
                   SimTime now) override {
    inner_.on_response(job, capacity, response_time, now);
  }
  void on_round_complete(JobId job, SimTime sched_delay,
                         SimTime response_time, SimTime now) override {
    inner_.on_round_complete(job, sched_delay, response_time, now);
  }
  [[nodiscard]] std::optional<std::size_t> assign(
      const DeviceView& dev, std::span<const PendingJob> candidates,
      SimTime now) override {
    ++offers;
    const std::size_t wanting = check(candidates, dev.signature, "offer", now);
    if (candidates.size() < wanting) ++partial_offers;
    return inner_.assign(dev, candidates, now);
  }

  std::uint64_t queue_changes = 0;
  std::uint64_t offers = 0;
  std::uint64_t partial_offers = 0;  // offers of a strict subset of rows
  std::uint64_t stale_advances = 0;  // rows whose completed rounds moved
                                     // while their request stayed open
  std::string first_mismatch;

 private:
  // The group index of a job: its requirement's bit in the manager's space.
  std::size_t group_of(const Job& job) const {
    const SignatureSpace& sigs = manager_->signatures();
    const Requirement want = requirement_for(job.spec().category);
    for (std::size_t g = 0; g < sigs.size(); ++g) {
      if (sigs.requirement(g) == want) return g;
    }
    throw std::logic_error("job requirement not registered");
  }

  // Compares `got` with the wanting rows of the jobs eligible under
  // `signature`, built from Job state; returns the number of all wanting
  // rows. The two fields no Job holds (the solo-JCT estimate and the
  // request's random priority) come from the manager's fresh pending view.
  std::size_t check(std::span<const PendingJob> got, std::uint64_t signature,
                    const char* what, SimTime now) {
    const std::vector<PendingJob> view = manager_->pending_view();
    std::vector<PendingJob> want;
    std::size_t wanting = 0;
    for (const auto& owned : coord_->jobs()) {
      const Job& job = *owned;
      const auto& req = job.request();
      if (!req || !req->wants_devices()) continue;
      ++wanting;
      PendingJob pj;
      pj.job = job.id();
      pj.request = req->id;
      pj.group = group_of(job);
      if (!((signature >> pj.group) & 1ULL)) continue;
      pj.remaining_demand = req->demand - req->assigned;
      pj.request_demand = req->demand;
      pj.remaining_service =
          static_cast<double>(job.spec().rounds - job.completed_rounds()) *
          static_cast<double>(job.spec().demand);
      pj.total_rounds = job.spec().rounds;
      pj.completed_rounds = job.completed_rounds();
      pj.job_arrival = job.spec().arrival;
      pj.request_submitted = req->submitted;
      for (const PendingJob& v : view) {
        if (v.job != pj.job) continue;
        pj.solo_jct_estimate = v.solo_jct_estimate;
        pj.random_priority = v.random_priority;
      }
      const auto seen = last_round_.find(pj.request.value());
      if (seen != last_round_.end() && seen->second != pj.completed_rounds) {
        ++stale_advances;
      }
      last_round_[pj.request.value()] = pj.completed_rounds;
      want.push_back(pj);
    }
    if (first_mismatch.empty()) {
      const std::string diff = compare(got, want);
      if (!diff.empty()) {
        std::ostringstream os;
        os << what << " at t=" << now << ": " << diff;
        first_mismatch = os.str();
      }
    }
    return wanting;
  }

  static std::string compare(std::span<const PendingJob> got,
                             const std::vector<PendingJob>& want) {
    std::ostringstream os;
    if (got.size() != want.size()) {
      os << got.size() << " rows, a fresh walk has " << want.size();
      return os.str();
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      const PendingJob& a = got[i];
      const PendingJob& b = want[i];
      const auto field = [&](const char* name, auto x, auto y) {
        if (x != y && os.tellp() == 0) {
          os << "row " << i << " (job " << b.job.value() << ") " << name
             << " " << x << ", a fresh walk has " << y;
        }
      };
      field("job", a.job.value(), b.job.value());
      field("request", a.request.value(), b.request.value());
      field("group", a.group, b.group);
      field("remaining_demand", a.remaining_demand, b.remaining_demand);
      field("request_demand", a.request_demand, b.request_demand);
      field("remaining_service", a.remaining_service, b.remaining_service);
      field("total_rounds", a.total_rounds, b.total_rounds);
      field("completed_rounds", a.completed_rounds, b.completed_rounds);
      field("job_arrival", a.job_arrival, b.job_arrival);
      field("request_submitted", a.request_submitted, b.request_submitted);
      field("solo_jct_estimate", a.solo_jct_estimate, b.solo_jct_estimate);
      field("random_priority", a.random_priority, b.random_priority);
    }
    return os.str();
  }

  VennScheduler inner_;
  const Coordinator* coord_ = nullptr;
  const ResourceManager* manager_ = nullptr;
  std::unordered_map<std::int64_t, int> last_round_;  // by request id
};

// A contended mixed-category world: every category's jobs, a fleet that
// satisfies only some of them per device.
ScenarioSpec contended_scenario() {
  ScenarioSpec sc;
  sc.seed = 5;
  sc.num_devices = 1'500;
  sc.num_jobs = 14;
  sc.horizon = 3.0 * kDay;
  sc.job_trace.min_demand = 4;
  sc.job_trace.max_demand = 40;
  return sc;
}

struct ProtocolCase {
  const char* name;
  const protocol::RoundProtocol* proto;
};

TEST(RequestPathOracle, CandidateSpansMatchAFreshWalkOfJobState) {
  const protocol::SyncProtocol sync;
  const protocol::OvercommitProtocol overcommit(1.5);
  const protocol::AsyncProtocol async;
  for (const ProtocolCase& pc : {ProtocolCase{"sync", &sync},
                                 ProtocolCase{"overcommit", &overcommit},
                                 ProtocolCase{"async", &async}}) {
    SCOPED_TRACE(pc.name);
    const ScenarioSpec sc = contended_scenario();
    const auto inputs = api::build_inputs(sc);
    sim::Engine engine(Rng::derive(sc.seed, "engine"));
    auto policy = std::make_unique<RecordingVenn>(sc.seed);
    RecordingVenn* rec = policy.get();
    ResourceManager manager(std::move(policy));
    CoordinatorConfig ccfg;
    ccfg.horizon = sc.horizon;
    ccfg.seed = sc.seed;
    ccfg.protocol = pc.proto;
    Coordinator coord(engine, manager, inputs.devices, inputs.sessions,
                      inputs.jobs, ccfg);
    rec->watch(&coord, &manager);
    coord.run();

    EXPECT_EQ(rec->first_mismatch, "");
    // Not vacuous: many offers and queue changes were checked, both
    // candidate paths (the whole table, a copy of eligible rows) ran, and
    // jobs finished.
    EXPECT_GT(rec->offers, 1000u);
    EXPECT_GT(rec->queue_changes, 50u);
    EXPECT_GT(rec->partial_offers, 0u);
    EXPECT_LT(rec->partial_offers, rec->offers);
    EXPECT_GT(coord.protocol_stats().commits, 0u);
    if (pc.proto->keeps_request_open()) {
      // Buffered commits advanced open requests' rounds, the row change
      // that comes with no queue change.
      EXPECT_GT(rec->stale_advances, 0u);
    }
  }
}

// ----------------------------------------------------------- sweep exit --

trace::JobSpec high_perf_job(int rounds, int demand, SimTime arrival) {
  trace::JobSpec s;
  s.rounds = rounds;
  s.demand = demand;
  s.category = ResourceCategory::kHighPerf;
  s.arrival = arrival;
  s.nominal_task_s = 60.0;
  s.task_cv = 0.0;
  s.deadline_s = 600.0;
  return s;
}

// FIFO that keeps one device back until `open_at`.
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

TEST(SweepExit, MidSweepResubmissionExitsOnlyPastTheLastMatch) {
  // Rich devices 0-3 and the gated rich device 4, plus 20 low-spec devices
  // that no High-Perf job can use, all always on. Job 0 (demand 5, 2
  // rounds) takes devices 0-3 at t=10; their responses land before t=600,
  // so job 0 waits at its commit threshold with one unit of demand open.
  // Job 1's arrival at t=600 sweeps the pool: device 4's assignment fills
  // job 0, commits its round and resubmits round 2 inside the sweep. No
  // idle device is left for High-Perf after device 4, so the sweep exits
  // with low-spec devices unvisited, and the follow-up sweep that the
  // resubmission flagged draws nothing.
  Fleet fleet;
  for (int i = 0; i < 5; ++i) fleet.add({0.9, 0.9}, {{0.0, 20 * kDay}});
  for (int i = 0; i < 20; ++i) fleet.add({0.2, 0.2}, {{0.0, 20 * kDay}});
  sim::Engine engine(1);
  ResourceManager mgr(std::make_unique<GateScheduler>(DeviceId(4), 500.0));
  CoordinatorConfig cfg;
  cfg.horizon = 2 * kDay;
  Coordinator coord(engine, mgr, std::move(fleet.devices),
                    std::move(fleet.sessions),
                    {high_perf_job(2, 5, 10.0), high_perf_job(1, 1, 600.0)},
                    cfg);
  coord.check_sweep_exits(true);
  coord.setup();
  ASSERT_NO_THROW(engine.run_until(599.0));
  const Coordinator::HotpathStats before = coord.hotpath_stats();
  const std::uint64_t exits_before = coord.sweep_exits_checked();
  ASSERT_EQ(coord.idle_pool_size(), 21u);
  ASSERT_NO_THROW(engine.run_until(601.0));
  const Coordinator::HotpathStats& at_600 = coord.hotpath_stats();
  // The resubmission happened inside the sweep, and both the sweep's exit
  // and its follow-up's were checked.
  EXPECT_EQ(at_600.resweeps, before.resweeps + 1);
  EXPECT_EQ(at_600.sweeps, before.sweeps + 2);
  EXPECT_EQ(coord.sweep_exits_checked(), exits_before + 2);
  // A full walk would visit all 21 idle devices; the exit stopped at the
  // one device High-Perf could use.
  EXPECT_LT(at_600.sweep_visits - before.sweep_visits, 21u);
  EXPECT_EQ(at_600.sweep_offers, before.sweep_offers + 1);

  ASSERT_NO_THROW(engine.run_until(cfg.horizon));
  const RunResult r = collect_results(coord, "GATE");
  ASSERT_EQ(r.jobs[0].rounds.size(), 2u);
  // Round 1 committed the instant device 4 filled it, inside the sweep.
  EXPECT_NEAR(r.jobs[0].rounds[0].scheduling_delay, 590.0, 1e-9);
  EXPECT_NEAR(r.jobs[0].rounds[0].response_collection, 0.0, 1e-9);
}

TEST(SweepExit, NoUnvisitedIdleDeviceMatchesAtAnyExit) {
  // The contended world under every protocol, with the full-scan check on
  // at every exit; the run must equal the same run without the check.
  const protocol::SyncProtocol sync;
  const protocol::OvercommitProtocol overcommit(1.5);
  const protocol::AsyncProtocol async;
  for (const ProtocolCase& pc : {ProtocolCase{"sync", &sync},
                                 ProtocolCase{"overcommit", &overcommit},
                                 ProtocolCase{"async", &async}}) {
    SCOPED_TRACE(pc.name);
    const ScenarioSpec sc = contended_scenario();
    const auto inputs = api::build_inputs(sc);
    std::string dumps[2];
    for (const bool checked : {false, true}) {
      sim::Engine engine(Rng::derive(sc.seed, "engine"));
      ResourceManager manager(PolicyRegistry::instance().create(
          "venn", {}, Rng::derive(sc.seed, "scheduler")));
      CoordinatorConfig ccfg;
      ccfg.horizon = sc.horizon;
      ccfg.seed = sc.seed;
      ccfg.protocol = pc.proto;
      Coordinator coord(engine, manager, inputs.devices, inputs.sessions,
                        inputs.jobs, ccfg);
      coord.check_sweep_exits(checked);
      ASSERT_NO_THROW(coord.run());
      dumps[checked ? 1 : 0] =
          service::dump_run(collect_results(coord, "Venn"), nullptr);
      if (checked) {
        EXPECT_GT(coord.sweep_exits_checked(), 10u);
        EXPECT_GT(coord.hotpath_stats().sweep_offers, 0u);
      }
    }
    EXPECT_EQ(dumps[0], dumps[1]);
  }
}

TEST(LaneRefill, EveryRefillMatchesAScanOfTheNextStartColumn) {
  // Trace sessions (sync, async), streamed churn (overcommit) and a
  // phase-shifted hier fleet, each run with and without the check; the
  // runs must be equal.
  struct Case {
    const char* name;
    std::vector<std::pair<const char*, const char*>> keys;
  };
  const std::vector<Case> cases = {
      {"sync", {{"protocol", "sync"}}},
      {"overcommit+weibull",
       {{"protocol", "overcommit"}, {"churn", "weibull"}}},
      {"async", {{"protocol", "async"}}},
      {"hier+async",
       {{"protocol", "async"},
        {"topology", "hier"},
        {"topo.regions", "4"},
        {"topo.phase_spread", "8"}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ScenarioSpec sc = contended_scenario();
    for (const auto& [k, v] : c.keys) sc.set(k, v);
    ExperimentBuilder b;
    b.scenario(sc);
    const Experiment ex = b.build();
    const PolicySpec policy = b.current_policy();
    std::string dumps[2];
    for (const bool checked : {false, true}) {
      api::LiveSession live(
          ex,
          PolicyRegistry::instance().create(policy.name, policy.params,
                                            ex.stream_seed("scheduler")),
          {}, nullptr);
      live.coordinator().check_lane_refills(checked);
      live.start();
      RunResult r;
      ASSERT_NO_THROW(r = live.finish());
      dumps[checked ? 1 : 0] = service::dump_run(r, nullptr);
      if (checked) {
        // About one refill per simulated hour; an empty stretch is
        // skipped in one.
        EXPECT_GT(live.coordinator().lane_refills_checked(), 24u);
      } else {
        EXPECT_EQ(live.coordinator().lane_refills_checked(), 0u);
      }
    }
    EXPECT_EQ(dumps[0], dumps[1]);
  }
}

TEST(LaneRefill, SparseStartsSkipEmptyHoursAndKeepTheirHour) {
  // Starts on hour boundaries, a hair before one, two in one hour, one
  // alone days later and one past the horizon: the lane skips the empty
  // stretches through the earliest start an empty refill returns, and a
  // lane chunk that ends inside an hour leaves that hour's later starts
  // filed.
  Fleet fleet;
  const DeviceSpec spec{0.9, 0.9};
  fleet.add(spec, {{kHour, kHour + 60.0}, {30.5 * kHour, 31 * kHour}});
  fleet.add(spec, {{std::nextafter(2 * kHour, 0.0), 2 * kHour + 60.0}});
  fleet.add(spec, {{2 * kHour + 1.0, 2 * kHour + 90.0},
                   {2 * kHour + 120.0, 2 * kHour + 200.0}});
  fleet.add(spec, {{3 * kDay + 17.0, 3 * kDay + 600.0}});
  fleet.add(spec, {{9 * kDay, 9 * kDay + 60.0}});  // past the horizon
  fleet.add(spec, {{0.0, 30.0}, {30.5 * kHour + 1.0, 31 * kHour}});
  // After the skip to 30.5 h the lane chunk ends at 31.5 h, inside this
  // start's hour: it must stay filed for the next refill.
  fleet.add(spec, {{31.5 * kHour + 10.0, 31.5 * kHour + 100.0}});
  sim::Engine engine(1);
  ResourceManager mgr(std::make_unique<FifoScheduler>());
  CoordinatorConfig cfg;
  cfg.horizon = 5 * kDay;
  Coordinator coord(engine, mgr, std::move(fleet.devices),
                    std::move(fleet.sessions), {}, cfg);
  coord.check_lane_refills(true);
  coord.setup();
  std::vector<SimTime> starts;
  // Each start checks its device in: the idle pool grows by one.
  std::size_t idle = 0;
  while (engine.queue().next_time()) {
    const SimTime t = *engine.queue().next_time();
    if (t > cfg.horizon) break;
    ASSERT_NO_THROW(engine.run_until(t));
    if (coord.idle_pool_size() > idle) starts.push_back(t);
    idle = coord.idle_pool_size();
  }
  const std::vector<SimTime> want = {0.0,
                                     kHour,
                                     std::nextafter(2 * kHour, 0.0),
                                     2 * kHour + 1.0,
                                     2 * kHour + 120.0,
                                     30.5 * kHour,
                                     30.5 * kHour + 1.0,
                                     31.5 * kHour + 10.0,
                                     3 * kDay + 17.0};
  ASSERT_EQ(starts.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(starts[i], want[i]) << "start " << i;
  }
  EXPECT_GE(coord.lane_refills_checked(), 4u);
}

}  // namespace
}  // namespace venn
