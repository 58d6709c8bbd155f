// Coordinator::supply_rate against the brute-force oracle (supply_oracle.h).
//
// The eligibility index's per-region partials are the only supply path the
// coordinator has; this wall pins them to a plain scan of the run's device
// specs and sessions, exactly, for every resource category, across the
// fleet kinds (trace sessions in a column, a churn model with streamed
// sessions) and both coordination topologies (one region, four). Each cell
// runs the simulation first, so the index is queried after the
// registrations, rebuckets and sweeps of a real run rather than on a fresh
// store.
#include <gtest/gtest.h>

#include <string>

#include "supply_oracle.h"
#include "venn/venn.h"

namespace venn {
namespace {

struct Fleet {
  const char* name;
  const char* churn;  // nullptr = trace sessions, no churn model
};

TEST(SupplyRate, MatchesBruteForceScan) {
  const Fleet fleets[] = {{"trace", nullptr}, {"churn", "weibull"}};
  for (const Fleet& fleet : fleets) {
    for (const bool hier : {false, true}) {
      const std::string label =
          std::string(fleet.name) + (hier ? " hier" : " flat");
      ScenarioSpec sc;
      sc.seed = 131;
      sc.num_devices = 3'000;
      sc.num_jobs = 6;
      sc.horizon = 2.0 * kDay;
      sc.job_trace.min_demand = 3;
      sc.job_trace.max_demand = 12;
      if (fleet.churn != nullptr) sc.set("churn", fleet.churn);
      if (hier) {
        sc.set("topology", "hier");
        sc.set("topo.regions", "4");
      }

      const auto inputs = api::build_inputs(sc);
      const auto gens = workload::build_generators(
          sc.arrival_gen, sc.mix_gen, sc.churn_gen, sc.seed);
      sim::Engine engine(Rng::derive(sc.seed, "engine"));
      ResourceManager manager(PolicyRegistry::instance().create(
          "venn", {}, Rng::derive(sc.seed, "scheduler")));
      CoordinatorConfig ccfg;
      ccfg.horizon = sc.horizon;
      ccfg.seed = sc.seed;
      ccfg.churn = gens.churn.get();
      ccfg.topo = sc.topology_spec();
      Coordinator coord(engine, manager, inputs.devices, inputs.sessions,
                        inputs.jobs, ccfg);
      coord.run();
      ASSERT_GT(coord.hotpath_stats().supply_queries, 0u) << label;

      for (const ResourceCategory c : all_categories()) {
        const Requirement req = requirement_for(c);
        EXPECT_EQ(coord.supply_rate(req),
                  oracle::supply_rate(inputs.devices, inputs.sessions, req,
                                      ccfg.churn))
            << label << " category " << category_name(c);
      }
    }
  }
}

}  // namespace
}  // namespace venn
