// End-to-end integration tests: full experiment runs through every policy.
//
// These are small-scale versions of the paper's simulation (§5.1): a device
// population with diurnal availability and heterogeneous hardware, a job
// workload with Poisson arrivals, and a complete run through the
// coordinator + resource manager + policy stack — all via the public
// venn/venn.h facade.
#include <gtest/gtest.h>

#include "venn/venn.h"

namespace venn {
namespace {

ScenarioSpec small_scenario(std::uint64_t seed = 42) {
  ScenarioSpec sc;
  sc.seed = seed;
  sc.num_devices = 800;
  sc.num_jobs = 10;
  sc.horizon = 10.0 * kDay;
  sc.job_trace.base_trace_size = 100;
  sc.job_trace.min_rounds = 2;
  sc.job_trace.max_rounds = 8;
  sc.job_trace.min_demand = 3;
  sc.job_trace.max_demand = 20;
  sc.job_trace.mean_interarrival = 20.0 * kMinute;
  return sc;
}

RunResult run_small(std::uint64_t seed, const PolicySpec& policy) {
  return ExperimentBuilder().scenario(small_scenario(seed)).build().run(policy);
}

TEST(Integration, AllPoliciesCompleteAllJobs) {
  const auto sc = small_scenario();
  const auto ex = ExperimentBuilder().scenario(sc).build();
  for (const std::string name : {"random", "fifo", "srsf", "venn",
                                 "venn-nosched", "venn-nomatch"}) {
    const RunResult r = ex.run(name);
    EXPECT_EQ(r.jobs.size(), sc.num_jobs) << name;
    EXPECT_EQ(r.finished_jobs(), sc.num_jobs) << name
                                              << " left jobs unfinished";
    EXPECT_GT(r.avg_jct(), 0.0) << name;
  }
}

TEST(Integration, DeterministicAcrossRuns) {
  const RunResult a = run_small(7, "venn");
  const RunResult b = run_small(7, "venn");
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.jobs[i].jct, b.jobs[i].jct) << "job " << i;
    EXPECT_EQ(a.jobs[i].completed_rounds, b.jobs[i].completed_rounds);
  }
}

TEST(Integration, SeedsChangeOutcome) {
  const RunResult a = run_small(1, "random");
  const RunResult b = run_small(2, "random");
  EXPECT_NE(a.avg_jct(), b.avg_jct());
}

TEST(Integration, EveryCompletedRoundHasSaneMetrics) {
  const RunResult r = run_small(11, "venn");
  for (const auto& j : r.jobs) {
    EXPECT_EQ(static_cast<int>(j.rounds.size()), j.completed_rounds);
    for (const auto& round : j.rounds) {
      EXPECT_GE(round.scheduling_delay, 0.0);
      EXPECT_GE(round.response_collection, 0.0);
      // Response collection is bounded by the reporting deadline.
      EXPECT_LE(round.response_collection, j.spec.deadline_s + 1e-6);
    }
  }
}

TEST(Integration, JctIsAtLeastSumOfRoundTimes) {
  const RunResult r = run_small(13, "fifo");
  for (const auto& j : r.jobs) {
    if (!j.finished) continue;
    double lower = 0.0;
    for (const auto& round : j.rounds) {
      lower += round.scheduling_delay + round.response_collection;
    }
    EXPECT_GE(j.jct, lower - 1e-6);
  }
}

TEST(Integration, VennBeatsRandomUnderContention) {
  // Heavier contention: more jobs, fewer devices. Venn should outperform
  // random matching on average JCT (Table 1's headline direction).
  ScenarioSpec sc = small_scenario(17);
  sc.num_devices = 500;
  sc.num_jobs = 20;
  sc.horizon = 14.0 * kDay;
  const auto ex = ExperimentBuilder().scenario(sc).build();
  const RunResult rnd = ex.run("random");
  const RunResult venn = ex.run("venn");
  EXPECT_GT(improvement(rnd, venn), 1.0);
}

TEST(Integration, FairShareHitRateWithinBounds) {
  const RunResult r = run_small(19, "venn");
  EXPECT_GE(r.fair_share_hit_rate(), 0.0);
  EXPECT_LE(r.fair_share_hit_rate(), 1.0);
}

TEST(Integration, BiasedWorkloadRuns) {
  ScenarioSpec sc = small_scenario(23);
  sc.bias = trace::BiasedWorkload::kComputeHeavy;
  const RunResult r =
      ExperimentBuilder().scenario(sc).policy("venn").run();
  EXPECT_EQ(r.finished_jobs(), sc.num_jobs);
  // Half the jobs must target the biased category.
  std::size_t heavy = 0;
  for (const auto& j : r.jobs) {
    if (j.spec.category == ResourceCategory::kComputeRich) ++heavy;
  }
  EXPECT_EQ(heavy, sc.num_jobs / 2);
}

TEST(Integration, SchedulingDelayDominatesUnderHighContention) {
  // Fig. 5's observation: with many jobs on a constrained pool, scheduling
  // delay becomes a significant JCT component.
  ScenarioSpec sc = small_scenario(29);
  sc.num_devices = 400;
  sc.num_jobs = 25;
  sc.horizon = 14.0 * kDay;
  const RunResult r =
      ExperimentBuilder().scenario(sc).policy("random").run();
  const auto sd = r.scheduling_delays();
  ASSERT_FALSE(sd.empty());
  EXPECT_GT(sd.mean(), 0.0);
}

// Observers see a consistent view of the run: every completed round and
// every finished job is delivered exactly once.
class CountingObserver final : public RunObserver {
 public:
  int assignments = 0;
  int rounds = 0;
  int finishes = 0;

  void on_assignment(const DeviceView&, const Job&, const AssignOutcome&,
                     SimTime) override {
    ++assignments;
  }
  void on_round_complete(const Job&, SimTime, SimTime, SimTime) override {
    ++rounds;
  }
  void on_job_finish(const Job&, SimTime) override { ++finishes; }
};

TEST(Integration, ObserversSeeEveryLifecycleEvent) {
  CountingObserver counter;
  const auto ex = ExperimentBuilder()
                      .scenario(small_scenario(31))
                      .observe(counter)
                      .build();
  const RunResult r = ex.run("venn");

  int expected_rounds = 0;
  for (const auto& j : r.jobs) expected_rounds += j.completed_rounds;
  EXPECT_EQ(counter.rounds, expected_rounds);
  EXPECT_EQ(counter.finishes, static_cast<int>(r.finished_jobs()));
  EXPECT_GE(counter.assignments, expected_rounds);  // >= one device per round
  // The always-installed matrix observer agrees with the user observer.
  std::int64_t matrix_total = 0;
  for (const auto& row : r.assignment_matrix) {
    for (const std::int64_t c : row) matrix_total += c;
  }
  EXPECT_EQ(matrix_total, counter.assignments);
}

TEST(Integration, TimeSeriesRecorderResetsBetweenRuns) {
  // Each run restarts simulated time at zero; a recorder subscribed to
  // several runs of one experiment must hold the latest run only instead of
  // interleaving (or rejecting) the streams.
  TimeSeriesRecorder recorder;
  const auto ex = ExperimentBuilder()
                      .scenario(small_scenario(37))
                      .observe(recorder)
                      .build();
  (void)ex.run("venn");
  const auto venn_points = recorder.store().total_points();
  EXPECT_GT(venn_points, 0u);
  const RunResult random = ex.run("random");
  int random_assignments = 0;
  for (const auto& row : random.assignment_matrix) {
    for (const std::int64_t c : row) {
      random_assignments += static_cast<int>(c);
    }
  }
  EXPECT_EQ(recorder.store()
                .find(TimeSeriesRecorder::kAssignments)
                ->size(),
            static_cast<std::size_t>(random_assignments));
}

}  // namespace
}  // namespace venn
