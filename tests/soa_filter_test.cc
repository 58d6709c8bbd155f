// The sweep filter's cached signature column against the live signature.
#include <gtest/gtest.h>

#include "protocol/builtins.h"
#include "venn/venn.h"

namespace venn {
namespace {

// SoA-filter-vs-live-signature property. The sweep's skip verdict reads the hot store's cached signature column: skip device d iff
// (hot.signature[d] & wants) == 0; the live signature is the one
// SignatureSpace::signature_of computes from the spec over the manager's
// requirement space. The two must agree under exactly the dynamic
// conditions that invalidate caches:
//   * the wants mask GROWS mid-sweep — staggered job arrivals register new
//     requirement bits between (and during) sweeps, and a successful offer
//     can re-open a queue the hoisted wants mask considered satisfied;
//   * straggler re-parks — the overcommit protocol cuts devices off
//     mid-compute and re-parks them with their day budget refunded, so
//     the filtered pool churns while rounds are in flight.
// Run the scenario, assert those conditions actually occurred, then check
// per device that the cached column reproduces the live signature on all
// bits — which implies verdict equality for every wants mask the sweep can
// see. The participation column, the only store of the day budgets, must
// likewise hold only the sentinel or a day inside the run.
TEST(SoaFilter, VerdictMatchesLiveSignatureFallback) {
  ScenarioSpec sc;
  sc.seed = 97;
  sc.num_devices = 6'000;
  sc.num_jobs = 10;
  sc.horizon = 2.0 * kDay;
  sc.job_trace.min_demand = 3;
  sc.job_trace.max_demand = 12;
  sc.set("churn", "weibull");

  const auto inputs = api::build_inputs(sc);
  const auto gens = workload::build_generators(sc.arrival_gen, sc.mix_gen,
                                               sc.churn_gen, sc.seed);
  sim::Engine engine(Rng::derive(sc.seed, "engine"));
  ResourceManager manager(PolicyRegistry::instance().create(
      "venn", {}, Rng::derive(sc.seed, "scheduler")));
  const protocol::OvercommitProtocol overcommit(1.5);
  CoordinatorConfig ccfg;
  ccfg.horizon = sc.horizon;
  ccfg.seed = sc.seed;
  ccfg.churn = gens.churn.get();
  ccfg.protocol = &overcommit;
  Coordinator coord(engine, manager, inputs.devices, inputs.sessions,
                    inputs.jobs, ccfg);
  coord.run();

  // The dynamic conditions engaged, or the property below is vacuous:
  // requirements were registered (wants-mask growth), stragglers were
  // released back into the pool, and the sweep filter both skipped and
  // offered devices.
  const SignatureSpace& sigs = manager.signatures();
  ASSERT_GT(sigs.size(), 0u);
  EXPECT_GT(coord.protocol_stats().stragglers_released, 0u);
  EXPECT_GT(coord.hotpath_stats().sweep_skips, 0u);
  EXPECT_GT(coord.hotpath_stats().sweep_offers, 0u);

  const FleetHotState& hot = coord.hot_state();
  ASSERT_EQ(hot.size(), sc.num_devices);

  for (std::size_t d = 0; d < hot.size(); ++d) {
    ASSERT_EQ(hot.signature[d], sigs.signature_of(hot.spec[d]))
        << "device " << d;
  }

  // After refunds (straggler releases above) every budget slot is either
  // the sentinel or a real day inside the run.
  const int last_day = day_of(sc.horizon);
  for (std::size_t d = 0; d < hot.size(); ++d) {
    const std::int32_t day = hot.participation_day[d];
    ASSERT_TRUE(day == kNeverParticipated ||
                (day >= -1 && day <= last_day))
        << "device " << d << " day " << day;
  }
}

}  // namespace
}  // namespace venn
