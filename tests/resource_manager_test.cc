// Unit tests for the resource manager (Fig. 6 workflow, steps 0-2).
#include <gtest/gtest.h>

#include <vector>

#include "core/resource_manager.h"
#include "protocol/builtins.h"
#include "scheduler/fifo_sched.h"
#include "scheduler/srsf_sched.h"
#include "venn/venn.h"

namespace venn {
namespace {

trace::JobSpec make_spec(ResourceCategory cat, int rounds = 2,
                         int demand = 3, SimTime arrival = 0.0) {
  trace::JobSpec s;
  s.category = cat;
  s.rounds = rounds;
  s.demand = demand;
  s.arrival = arrival;
  s.deadline_s = 600.0;
  return s;
}

Device make_device(int id, double cpu, double mem) {
  return Device(DeviceId(id), {cpu, mem});
}

TEST(ResourceManager, RegisterAndPendingView) {
  ResourceManager mgr(std::make_unique<FifoScheduler>());
  Job job(JobId(1), make_spec(ResourceCategory::kGeneral));
  mgr.register_job(&job, 500.0);
  EXPECT_EQ(mgr.num_pending_jobs(), 0u);  // no request yet

  mgr.open_request(job.id(), 10.0, 0.5);
  const auto pending = mgr.pending_view();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].job, JobId(1));
  EXPECT_EQ(pending[0].remaining_demand, 3);
  EXPECT_DOUBLE_EQ(pending[0].solo_jct_estimate, 500.0);
  EXPECT_DOUBLE_EQ(pending[0].random_priority, 0.5);
}

TEST(ResourceManager, DuplicateRegistrationThrows) {
  ResourceManager mgr(std::make_unique<FifoScheduler>());
  Job job(JobId(1), make_spec(ResourceCategory::kGeneral));
  mgr.register_job(&job, 1.0);
  EXPECT_THROW(mgr.register_job(&job, 1.0), std::invalid_argument);
  EXPECT_THROW(mgr.register_job(nullptr, 1.0), std::invalid_argument);
}

TEST(ResourceManager, DeregisterUnknownThrows) {
  ResourceManager mgr(std::make_unique<FifoScheduler>());
  EXPECT_THROW(mgr.deregister_job(JobId(9)), std::invalid_argument);
}

TEST(ResourceManager, EligibilityFiltersCandidates) {
  ResourceManager mgr(std::make_unique<FifoScheduler>());
  Job hp_job(JobId(1), make_spec(ResourceCategory::kHighPerf));
  mgr.register_job(&hp_job, 1.0);
  mgr.open_request(hp_job.id(), 0.0, 0.1);

  // Low-end device: not eligible for the HP job.
  const Device weak = make_device(0, 0.1, 0.1);
  EXPECT_FALSE(mgr.device_checkin(weak, 1.0).has_value());

  // Strong device: assigned.
  const Device strong = make_device(1, 0.9, 0.9);
  const auto outcome = mgr.device_checkin(strong, 2.0);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->job, JobId(1));
  EXPECT_FALSE(outcome->fully_allocated);  // demand 3, assigned 1
}

TEST(ResourceManager, FullyAllocatedFlagAndSchedulingDelay) {
  ResourceManager mgr(std::make_unique<FifoScheduler>());
  Job job(JobId(1), make_spec(ResourceCategory::kGeneral, 1, 2));
  mgr.register_job(&job, 1.0);
  mgr.open_request(job.id(), 10.0, 0.1);

  const Device d0 = make_device(0, 0.5, 0.5);
  const Device d1 = make_device(1, 0.5, 0.5);
  auto o1 = mgr.device_checkin(d0, 20.0);
  ASSERT_TRUE(o1.has_value());
  EXPECT_FALSE(o1->fully_allocated);
  auto o2 = mgr.device_checkin(d1, 30.0);
  ASSERT_TRUE(o2.has_value());
  EXPECT_TRUE(o2->fully_allocated);
  EXPECT_EQ(job.request()->state, RequestState::kAllocated);
  EXPECT_DOUBLE_EQ(job.request()->scheduling_delay(), 20.0);
  // No more demand: next device is not assigned.
  const Device d2 = make_device(2, 0.5, 0.5);
  EXPECT_FALSE(mgr.device_checkin(d2, 40.0).has_value());
}

TEST(ResourceManager, SchedulerSeesQueueNotifications) {
  // Counting scheduler to verify notification plumbing.
  struct CountingSched final : Scheduler {
    int queue_changes = 0, checkins = 0, responses = 0, rounds = 0;
    std::string name() const override { return "count"; }
    void on_queue_change(std::span<const PendingJob>, SimTime) override {
      ++queue_changes;
    }
    void on_device_checkin(const DeviceView&, SimTime) override {
      ++checkins;
    }
    void on_response(JobId, double, double, SimTime) override { ++responses; }
    void on_round_complete(JobId, SimTime, SimTime, SimTime) override {
      ++rounds;
    }
    std::optional<std::size_t> assign(const DeviceView&,
                                      std::span<const PendingJob>,
                                      SimTime) override {
      return 0;
    }
  };
  auto sched = std::make_unique<CountingSched>();
  CountingSched* raw = sched.get();
  ResourceManager mgr(std::move(sched));
  Job job(JobId(1), make_spec(ResourceCategory::kGeneral, 1, 1));
  mgr.register_job(&job, 1.0);
  mgr.open_request(job.id(), 0.0, 0.1);
  EXPECT_EQ(raw->queue_changes, 1);
  const Device d = make_device(0, 0.5, 0.5);
  (void)mgr.device_checkin(d, 1.0);
  EXPECT_EQ(raw->checkins, 1);
  mgr.notify_response(JobId(1), 0.5, 60.0, 2.0);
  EXPECT_EQ(raw->responses, 1);
  mgr.notify_round_complete(JobId(1), 1.0, 60.0, 2.0);
  EXPECT_EQ(raw->rounds, 1);
  mgr.close_request(job.id(), 2.0);
  EXPECT_EQ(raw->queue_changes, 2);
}

TEST(ResourceManager, PendingViewSortedByJobId) {
  ResourceManager mgr(std::make_unique<FifoScheduler>());
  Job j3(JobId(3), make_spec(ResourceCategory::kGeneral));
  Job j1(JobId(1), make_spec(ResourceCategory::kGeneral));
  Job j2(JobId(2), make_spec(ResourceCategory::kGeneral));
  for (Job* j : {&j3, &j1, &j2}) {
    mgr.register_job(j, 1.0);
    mgr.open_request(j->id(), 0.0, 0.1);
  }
  const auto pending = mgr.pending_view();
  ASSERT_EQ(pending.size(), 3u);
  EXPECT_EQ(pending[0].job, JobId(1));
  EXPECT_EQ(pending[1].job, JobId(2));
  EXPECT_EQ(pending[2].job, JobId(3));
}

TEST(ResourceManager, JobsInSameCategoryShareGroup) {
  ResourceManager mgr(std::make_unique<SrsfScheduler>());
  Job a(JobId(1), make_spec(ResourceCategory::kComputeRich));
  Job b(JobId(2), make_spec(ResourceCategory::kComputeRich));
  Job c(JobId(3), make_spec(ResourceCategory::kMemoryRich));
  for (Job* j : {&a, &b, &c}) {
    mgr.register_job(j, 1.0);
    mgr.open_request(j->id(), 0.0, 0.1);
  }
  const auto pending = mgr.pending_view();
  EXPECT_EQ(pending[0].group, pending[1].group);
  EXPECT_NE(pending[0].group, pending[2].group);
  EXPECT_EQ(mgr.signatures().size(), 2u);
}

TEST(ResourceManager, DeviceViewSignatureMatchesRegistry) {
  ResourceManager mgr(std::make_unique<FifoScheduler>());
  Job g(JobId(1), make_spec(ResourceCategory::kGeneral));
  Job h(JobId(2), make_spec(ResourceCategory::kHighPerf));
  mgr.register_job(&g, 1.0);
  mgr.register_job(&h, 1.0);
  const Device strong = make_device(0, 0.9, 0.9);
  const Device weak = make_device(1, 0.1, 0.1);
  EXPECT_EQ(mgr.device_view(strong).signature, 0b11ULL);
  EXPECT_EQ(mgr.device_view(weak).signature, 0b01ULL);
}

// Brute force: the groups of the jobs whose request still wants devices.
std::uint64_t wanting_groups(ResourceManager& mgr,
                             const std::vector<Job*>& jobs) {
  std::uint64_t mask = 0;
  for (const Job* j : jobs) {
    const auto& req = j->request();
    if (!req || !req->wants_devices()) continue;
    mask |= 1ULL << mgr.signatures().register_requirement(
                requirement_for(j->spec().category));
  }
  return mask;
}

TEST(ResourceManager, WantsMaskFollowsFillsAndReopens) {
  // Partial fills leave the wanting set as it is, the fill that completes a
  // request takes its group out, and a reopen brings it back. A synchronous
  // round reopens through assignment_failed (a pre-allocation failure), an
  // asynchronous one through release_assignment (a response frees a slot
  // of its long-lived request).
  for (const bool async : {false, true}) {
    ResourceManager mgr(std::make_unique<FifoScheduler>());
    Job general(JobId(1), make_spec(ResourceCategory::kGeneral, 5, 3));
    Job high(JobId(2), make_spec(ResourceCategory::kHighPerf, 5, 2));
    const std::vector<Job*> jobs{&general, &high};
    for (Job* j : jobs) {
      mgr.register_job(j, 1.0);
      mgr.open_request(j->id(), 0.0, 0.1);
    }
    SimTime now = 1.0;
    const auto check = [&](const char* step) {
      EXPECT_EQ(mgr.wants_mask(), wanting_groups(mgr, jobs))
          << (async ? "async, " : "sync, ") << step;
    };
    const auto checkin = [&](double score) {
      // Weak devices are eligible for the General job only.
      const Device dev = make_device(static_cast<int>(now), score, score);
      (void)mgr.device_checkin(dev, now);
      now += 1.0;
    };
    const auto reopen = [&](Job& job) {
      RoundRequest& req = job.mutable_request();
      --req.assigned;
      req.state = RequestState::kPending;
      if (async) {
        mgr.release_assignment(job.id(), now);
      } else {
        mgr.assignment_failed(job.id(), now);
      }
    };
    check("opened");
    checkin(0.1);
    check("general 1/3");
    checkin(0.1);
    check("general 2/3");
    checkin(0.1);
    EXPECT_EQ(general.request()->state, RequestState::kAllocated);
    check("general filled");
    checkin(0.9);
    check("high 1/2");
    reopen(general);
    check("general reopened");
    checkin(0.1);
    check("general filled again");
    checkin(0.9);
    EXPECT_EQ(high.request()->state, RequestState::kAllocated);
    check("high filled");
    EXPECT_EQ(mgr.wants_mask(), 0u);
    reopen(high);
    check("high reopened");
    EXPECT_NE(mgr.wants_mask(), 0u);
  }
}

TEST(ResourceManager, NullSchedulerRejected) {
  EXPECT_THROW(ResourceManager(nullptr), std::invalid_argument);
}

// ------------------------------------------------- queue-change view --

bool same_pending(const PendingJob& a, const PendingJob& b) {
  return a.job == b.job && a.request == b.request && a.group == b.group &&
         a.remaining_demand == b.remaining_demand &&
         a.request_demand == b.request_demand &&
         a.remaining_service == b.remaining_service &&
         a.total_rounds == b.total_rounds &&
         a.completed_rounds == b.completed_rounds &&
         a.job_arrival == b.job_arrival &&
         a.request_submitted == b.request_submitted &&
         a.solo_jct_estimate == b.solo_jct_estimate &&
         a.random_priority == b.random_priority;
}

// Wraps a real policy and, at every queue change, holds the span the
// manager hands it against a fresh pending_view() of the same manager.
class ViewCheckingScheduler final : public Scheduler {
 public:
  explicit ViewCheckingScheduler(std::unique_ptr<Scheduler> inner)
      : inner_(std::move(inner)) {}

  const ResourceManager* manager = nullptr;
  std::size_t calls = 0;
  std::size_t nonempty = 0;
  std::size_t mismatches = 0;

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void on_device_checkin(const DeviceView& dev, SimTime now) override {
    inner_->on_device_checkin(dev, now);
  }
  void on_queue_change(std::span<const PendingJob> pending,
                       SimTime now) override {
    ++calls;
    if (!pending.empty()) ++nonempty;
    const std::vector<PendingJob> fresh = manager->pending_view();
    bool same = pending.size() == fresh.size();
    for (std::size_t i = 0; same && i < fresh.size(); ++i) {
      same = same_pending(pending[i], fresh[i]);
    }
    if (!same) ++mismatches;
    inner_->on_queue_change(pending, now);
  }
  void on_response(JobId job, double capacity, double response_time,
                   SimTime now) override {
    inner_->on_response(job, capacity, response_time, now);
  }
  void on_round_complete(JobId job, SimTime sched_delay,
                         SimTime response_time, SimTime now) override {
    inner_->on_round_complete(job, sched_delay, response_time, now);
  }
  [[nodiscard]] std::optional<std::size_t> assign(
      const DeviceView& dev, std::span<const PendingJob> candidates,
      SimTime now) override {
    return inner_->assign(dev, candidates, now);
  }

 private:
  std::unique_ptr<Scheduler> inner_;
};

// The queue view is filled from the manager's wanting cache into a reused
// buffer; at every queue change of a real run it must equal a fresh build,
// across the round protocols (each reopens demand on its own paths:
// deadline aborts, straggler releases, continuous admission).
TEST(ResourceManager, QueueChangeViewEqualsFreshPendingView) {
  const protocol::SyncProtocol sync;
  const protocol::OvercommitProtocol overcommit(1.5);
  const protocol::AsyncProtocol async;
  const std::pair<const char*, const protocol::RoundProtocol*> protocols[] = {
      {"sync", &sync}, {"overcommit", &overcommit}, {"async", &async}};
  for (const auto& [label, proto] : protocols) {
    ScenarioSpec sc;
    sc.seed = 61;
    sc.num_devices = 2'000;
    sc.num_jobs = 8;
    sc.horizon = 2.0 * kDay;
    sc.job_trace.min_demand = 3;
    sc.job_trace.max_demand = 12;
    sc.set("churn", "weibull");
    const auto inputs = api::build_inputs(sc);
    const auto gens = workload::build_generators(sc.arrival_gen, sc.mix_gen,
                                                 sc.churn_gen, sc.seed);

    sim::Engine engine(Rng::derive(sc.seed, "engine"));
    auto checking = std::make_unique<ViewCheckingScheduler>(
        PolicyRegistry::instance().create("venn", {},
                                          Rng::derive(sc.seed, "scheduler")));
    ViewCheckingScheduler* checker = checking.get();
    ResourceManager manager(std::move(checking));
    checker->manager = &manager;
    CoordinatorConfig ccfg;
    ccfg.horizon = sc.horizon;
    ccfg.seed = sc.seed;
    ccfg.churn = gens.churn.get();
    ccfg.protocol = proto;
    Coordinator coord(engine, manager, inputs.devices, inputs.sessions,
                      inputs.jobs, ccfg);
    coord.run();

    // Not vacuous: queue changes happened, with jobs in the view, and the
    // counter behind the snapshot's hotpath section counts exactly them.
    EXPECT_GT(checker->calls, 0u) << label;
    EXPECT_GT(checker->nonempty, 0u) << label;
    EXPECT_EQ(manager.hotpath_stats().view_builds, checker->calls) << label;
    EXPECT_EQ(checker->mismatches, 0u) << label;
    EXPECT_EQ(manager.num_pending_jobs(), manager.pending_view().size())
        << label;
  }
}

}  // namespace
}  // namespace venn
