// Hot-path budget tests for the incremental eligibility index.
//
// The scaling evidence, mirroring PR 2's allocation-count test: at 100k
// devices × 64 jobs, per-event scheduling work (offers made during
// idle-pool sweeps, devices rescanned for supply estimates) is bounded by
// the workload, not the fleet, and the index's supply answers still equal
// the brute-force oracle (supply_oracle.h) at that scale.
#include <gtest/gtest.h>

#include "api/live.h"
#include "supply_oracle.h"
#include "venn/venn.h"

namespace venn {
namespace {

struct StressRun {
  RunResult result;
  std::vector<double> supply;         // supply_rate per category
  std::vector<double> oracle_supply;  // the brute-force scan, same order
  Coordinator::HotpathStats coord;
  ResourceManager::HotpathStats manager;
  EligibilityIndex::MaintenanceStats index;
};

// 64 jobs over a streaming-churn fleet, short horizon. Coordinator built by
// hand so the hot-path counters are observable.
StressRun run_stress(std::size_t devices) {
  ScenarioSpec sc;
  sc.seed = 77;
  sc.num_devices = devices;
  sc.num_jobs = 64;
  sc.horizon = 0.5 * kDay;
  sc.job_trace.mean_interarrival = 4.0 * kMinute;  // all 64 arrive in-horizon
  sc.job_trace.min_rounds = 1;
  sc.job_trace.max_rounds = 3;
  sc.job_trace.min_demand = 3;
  sc.job_trace.max_demand = 8;
  sc.set("churn", "weibull");

  const auto inputs = api::build_inputs(sc);
  sim::Engine engine(Rng::derive(sc.seed, "engine"));
  ResourceManager manager(PolicyRegistry::instance().create(
      "venn", {}, Rng::derive(sc.seed, "scheduler")));
  const auto gens = workload::build_generators(sc.arrival_gen, sc.mix_gen,
                                               sc.churn_gen, sc.seed);
  CoordinatorConfig ccfg;
  ccfg.horizon = sc.horizon;
  ccfg.seed = sc.seed;
  ccfg.churn = gens.churn.get();
  Coordinator coord(engine, manager, inputs.devices, inputs.sessions,
                    inputs.jobs, ccfg);
  coord.run();

  StressRun out;
  out.result = collect_results(coord, "index");
  out.coord = coord.hotpath_stats();
  out.manager = manager.hotpath_stats();
  out.index = coord.index().maintenance_stats();
  for (const ResourceCategory c : all_categories()) {
    const Requirement req = requirement_for(c);
    out.supply.push_back(coord.supply_rate(req));
    out.oracle_supply.push_back(
        oracle::supply_rate(inputs.devices, inputs.sessions, req, ccfg.churn));
  }
  return out;
}

TEST(HotpathStress, HundredThousandDevicesIndexMatchesScanWithBoundedWork) {
  constexpr std::size_t kFleet = 100'000;
  const StressRun idx = run_stress(kFleet);
  ASSERT_EQ(idx.result.jobs.size(), 64u);
  EXPECT_GT(idx.result.finished_jobs(), 0u);

  // The index's supply answers equal a fleet scan at this scale too.
  EXPECT_EQ(idx.supply, idx.oracle_supply);

  // Sweep work is fully accounted for: every visit is an offer, a
  // signature skip, or the one visit at which a sweep stops because nothing
  // wants devices any more — the early stop that keeps sweeps short.
  EXPECT_LE(idx.coord.sweep_visits,
            idx.coord.sweep_offers + idx.coord.sweep_skips + idx.coord.sweeps);
  EXPECT_LT(idx.coord.sweep_visits, kFleet);
  // The pending view is materialized for scheduler queue-change
  // notifications only, never per offer.
  EXPECT_LT(100 * idx.manager.view_builds, idx.manager.offers);

  // Supply estimation: one fleet pass per *distinct* requirement, ever —
  // never one per supply query.
  EXPECT_GT(idx.coord.supply_queries, 64u);  // one per registration + collect
  EXPECT_LE(idx.index.requirement_registrations, 4u);
  EXPECT_EQ(idx.index.device_rescans,
            idx.index.requirement_registrations * kFleet);
}

TEST(HotpathStress, SweepOffersDoNotScaleWithFleetSize) {
  // Same 64-job workload over a 4x larger fleet: sweep offers stay pinned
  // to what the workload actually consumes (a fixed per-event budget,
  // fleet-independent).
  const StressRun small = run_stress(25'000);
  const StressRun large = run_stress(100'000);
  ASSERT_GT(small.coord.sweep_offers, 0u);
  const double growth = static_cast<double>(large.coord.sweep_offers) /
                        static_cast<double>(small.coord.sweep_offers);
  EXPECT_LT(growth, 2.0) << "sweep offers grew " << growth
                         << "x for a 4x fleet: per-event work is scaling "
                            "with fleet size again";
}

// The event queue of a trace fleet holds at most one pending
// session start per device (plus job arrivals), not one entry per session:
// starts reach the queue through its presorted lane an hour of simulated
// time at a time, each device's next start only, and pending() counts
// unconsumed lane entries along with the heap's.
TEST(HotpathStress, MaterializedTraceQueueHoldsOneStartPerDevice) {
  ScenarioSpec sc;
  sc.seed = 5;
  sc.num_devices = 2'000;
  sc.num_jobs = 10;
  sc.horizon = 7.0 * kDay;
  ExperimentBuilder b;
  b.scenario(sc);
  const Experiment ex = b.build();
  const PolicySpec policy = b.current_policy();
  api::LiveSession session(
      ex,
      PolicyRegistry::instance().create(policy.name, policy.params,
                                        ex.stream_seed("scheduler")),
      {}, nullptr);
  session.start();

  std::size_t starts = 0;
  for (std::size_t d = 0; d < sc.num_devices; ++d) {
    for (const Session& s : ex.inputs().sessions.of(d)) {
      starts += s.start <= sc.horizon;
    }
  }
  // The lane fills lazily, on the first step() or next_time(): peek once
  // so its first chunk of starts is counted.
  ASSERT_TRUE(session.engine().queue().next_time().has_value());
  const std::size_t pending = session.engine().queue().pending();
  EXPECT_GT(starts, 3 * sc.num_devices);  // eager scheduling would hold these
  EXPECT_GT(pending, sc.num_jobs);        // the lane's starts are counted
  EXPECT_LE(pending, sc.num_devices + sc.num_jobs + 4);

  // Over the whole run a device holds at most a few entries at once (its
  // next start, an idle-pool retirement, a day-boundary re-arm or an
  // in-flight response), still far below one per session.
  (void)session.finish();
  EXPECT_LE(session.engine().queue().peak_pending(),
            3 * sc.num_devices + sc.num_jobs);
}

}  // namespace
}  // namespace venn
