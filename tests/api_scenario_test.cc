// ScenarioSpec / PolicySpec key=value parsing and ExperimentBuilder tests.
#include <gtest/gtest.h>

#include "venn/venn.h"

namespace venn {
namespace {

TEST(ScenarioSpec, KnownKeysParseAndApply) {
  ScenarioSpec sc;
  sc.set("name", "my-scenario");
  sc.set("seed", "123");
  sc.set("devices", "4000");
  sc.set("jobs", "12");
  sc.set("workload", "small");
  sc.set("bias", "compute");
  sc.set("horizon-days", "14");
  sc.set("min-rounds", "3");
  sc.set("max-rounds", "9");
  sc.set("min-demand", "4");
  sc.set("max-demand", "25");
  sc.set("interarrival-min", "15");
  sc.set("base-trace", "200");
  sc.set("task-s", "90");
  sc.set("task-cv", "0.3");

  EXPECT_EQ(sc.name, "my-scenario");
  EXPECT_EQ(sc.seed, 123u);
  EXPECT_EQ(sc.num_devices, 4000u);
  EXPECT_EQ(sc.num_jobs, 12u);
  EXPECT_EQ(sc.workload, trace::Workload::kSmall);
  ASSERT_TRUE(sc.bias.has_value());
  EXPECT_EQ(*sc.bias, trace::BiasedWorkload::kComputeHeavy);
  EXPECT_DOUBLE_EQ(sc.horizon, 14.0 * kDay);
  EXPECT_EQ(sc.job_trace.min_rounds, 3);
  EXPECT_EQ(sc.job_trace.max_rounds, 9);
  EXPECT_EQ(sc.job_trace.min_demand, 4);
  EXPECT_EQ(sc.job_trace.max_demand, 25);
  EXPECT_DOUBLE_EQ(sc.job_trace.mean_interarrival, 15.0 * kMinute);
  EXPECT_EQ(sc.job_trace.base_trace_size, 200u);
  EXPECT_DOUBLE_EQ(sc.job_trace.nominal_task_s, 90.0);
  EXPECT_DOUBLE_EQ(sc.job_trace.task_cv, 0.3);

  sc.set("bias", "none");
  EXPECT_FALSE(sc.bias.has_value());

  // Round-protocol keys land on the protocol spec, like the generator
  // families land on theirs.
  sc.set("protocol", "async");
  sc.set("protocol.buffer", "64");
  sc.set("protocol.concurrency", "96");
  EXPECT_EQ(sc.protocol_gen.name, "async");
  EXPECT_EQ(sc.protocol_gen.params.kv.at("buffer"), "64");
  EXPECT_EQ(sc.protocol_gen.params.kv.at("concurrency"), "96");

  // Topology keys land on the dedicated spec fields.
  sc.set("topology", "hier");
  sc.set("topo.regions", "8");
  sc.set("topo.sync_latency", "45");
  sc.set("topo.phase_spread", "6");
  EXPECT_EQ(sc.topology, "hier");
  ASSERT_TRUE(sc.topo_regions.has_value());
  EXPECT_EQ(*sc.topo_regions, 8u);
  ASSERT_TRUE(sc.topo_sync_latency.has_value());
  EXPECT_DOUBLE_EQ(*sc.topo_sync_latency, 45.0);
  ASSERT_TRUE(sc.topo_phase_spread.has_value());
  EXPECT_DOUBLE_EQ(*sc.topo_phase_spread, 6.0);
  const auto topo = sc.topology_spec();
  EXPECT_TRUE(topo.hier);
  EXPECT_EQ(topo.regions, 8u);
  EXPECT_DOUBLE_EQ(topo.sync_latency, 45.0);
  EXPECT_DOUBLE_EQ(topo.phase_spread_h, 6.0);
}

TEST(ScenarioSpec, BadKeysAndValuesThrow) {
  ScenarioSpec sc;
  EXPECT_FALSE(sc.try_set("not-a-key", "1"));
  EXPECT_THROW(sc.set("not-a-key", "1"), std::invalid_argument);
  EXPECT_THROW(sc.set("seed", "abc"), std::invalid_argument);
  EXPECT_THROW(sc.set("devices", "12x"), std::invalid_argument);
  // Negative values for size-like keys must be rejected up front, not wrap
  // through a size_t cast into an opaque allocation failure.
  EXPECT_THROW(sc.set("devices", "-1"), std::invalid_argument);
  EXPECT_THROW(sc.set("jobs", "-5"), std::invalid_argument);
  EXPECT_THROW(sc.set("min-demand", "-2"), std::invalid_argument);
  EXPECT_THROW(sc.set("seed", "-3"), std::invalid_argument);
  EXPECT_THROW(sc.set("workload", "gigantic"), std::invalid_argument);
  EXPECT_THROW(sc.set("bias", "sideways"), std::invalid_argument);
  EXPECT_THROW(sc.set("horizon-days", ""), std::invalid_argument);
  // Out-of-range magnitudes fail loudly instead of saturating or wrapping.
  EXPECT_THROW(sc.set("devices", "99999999999999999999"),
               std::invalid_argument);
  EXPECT_THROW(sc.set("min-rounds", "4294967297"), std::invalid_argument);
  EXPECT_THROW(sc.set("seed", "999999999999999999999"),
               std::invalid_argument);
  EXPECT_THROW(sc.set("horizon-days", "1e999"), std::invalid_argument);
  // Topology knobs: unknown mode, out-of-range region counts, negative
  // latencies/spreads, and unknown topo.* keys all fail loudly.
  EXPECT_THROW(sc.set("topology", "mesh"), std::invalid_argument);
  EXPECT_THROW(sc.set("topo.regions", "0"), std::invalid_argument);
  EXPECT_THROW(sc.set("topo.regions", "100"), std::invalid_argument);
  EXPECT_THROW(sc.set("topo.sync_latency", "-5"), std::invalid_argument);
  EXPECT_THROW(sc.set("topo.phase_spread", "-1"), std::invalid_argument);
  EXPECT_THROW(sc.set("topo.unknown-knob", "1"), std::invalid_argument);
}

TEST(ScenarioSpec, ParseBiasHandlesNone) {
  EXPECT_EQ(api::parse_bias("none"), std::nullopt);
  EXPECT_EQ(api::parse_bias("compute"), trace::BiasedWorkload::kComputeHeavy);
  EXPECT_THROW((void)api::parse_bias("sideways"), std::invalid_argument);
}

TEST(PolicySpec, KnownKeysParseAndApply) {
  PolicySpec pol;
  pol.set("policy", "venn-nomatch");
  pol.set("epsilon", "2.5");
  pol.set("tiers", "4");
  pol.set("supply-window-h", "12");
  pol.set("tail-pct", "90");
  pol.set("ewma-alpha", "0.5");
  pol.set("order-total", "0");
  pol.set("param.threshold", "20");

  EXPECT_EQ(pol.name, "venn-nomatch");
  EXPECT_DOUBLE_EQ(pol.params.venn.epsilon, 2.5);
  EXPECT_EQ(pol.params.venn.num_tiers, 4u);
  EXPECT_DOUBLE_EQ(pol.params.venn.supply_window, 12.0 * kHour);
  EXPECT_DOUBLE_EQ(pol.params.venn.tail_percentile, 90.0);
  EXPECT_DOUBLE_EQ(pol.params.venn.ewma_alpha, 0.5);
  EXPECT_FALSE(pol.params.venn.order_by_total_remaining);
  EXPECT_EQ(pol.params.str("threshold", ""), "20");
}

TEST(PolicySpec, BadKeysThrow) {
  PolicySpec pol;
  EXPECT_FALSE(pol.try_set("frobnicate", "1"));
  EXPECT_THROW(pol.set("frobnicate", "1"), std::invalid_argument);
  EXPECT_THROW(pol.set("epsilon", "two"), std::invalid_argument);
}

TEST(ExperimentBuilder, SetRoutesToScenarioThenPolicy) {
  ExperimentBuilder b;
  b.set("jobs", "6").set("epsilon", "1.5").set("policy", "srsf");
  EXPECT_EQ(b.current_scenario().num_jobs, 6u);
  EXPECT_DOUBLE_EQ(b.current_policy().params.venn.epsilon, 1.5);
  EXPECT_EQ(b.current_policy().name, "srsf");
  EXPECT_THROW(b.set("bogus", "1"), std::invalid_argument);
}

TEST(ExperimentBuilder, OverrideKvValidatesShape) {
  ExperimentBuilder b;
  b.override_kv("jobs=9");
  EXPECT_EQ(b.current_scenario().num_jobs, 9u);
  EXPECT_THROW(b.override_kv("jobs"), std::invalid_argument);
  EXPECT_THROW(b.override_kv("=5"), std::invalid_argument);
}

TEST(ExperimentBuilder, BuildGeneratesScenarioInputs) {
  const auto ex = ExperimentBuilder()
                      .seed(3)
                      .devices(150)
                      .jobs(4)
                      .build();
  EXPECT_EQ(ex.inputs().devices.size(), 150u);
  EXPECT_EQ(ex.inputs().jobs.size(), 4u);
  EXPECT_EQ(ex.scenario().seed, 3u);
}

TEST(ExperimentBuilder, ExplicitInputOverridesSkipGeneration) {
  std::vector<DeviceSpec> devices;
  SessionColumn sessions;
  const Session day{0.0, kDay};
  for (int i = 0; i < 5; ++i) {
    devices.push_back({0.5, 0.5});
    sessions.push_device({&day, 1});
  }
  trace::JobSpec job;
  job.rounds = 1;
  job.demand = 2;
  const auto ex = ExperimentBuilder()
                      .use_devices(devices, sessions)
                      .use_jobs({job})
                      .horizon(2 * kDay)
                      .build();
  EXPECT_EQ(ex.inputs().devices.size(), 5u);
  ASSERT_EQ(ex.inputs().jobs.size(), 1u);
  const RunResult r = ex.run("fifo");
  EXPECT_EQ(r.finished_jobs(), 1u);
}

TEST(ExperimentBuilder, UseDevicesRejectsMisSizedSessionColumn) {
  // A session column covers every device or none (sessions streamed from a
  // churn model); any other count is rejected at build, naming both counts.
  const std::vector<DeviceSpec> devices(5, DeviceSpec{0.5, 0.5});
  SessionColumn three;
  const Session day{0.0, kDay};
  for (int i = 0; i < 3; ++i) three.push_device({&day, 1});
  trace::JobSpec job;
  job.rounds = 1;
  job.demand = 1;
  const auto builder = ExperimentBuilder().use_jobs({job});
  try {
    (void)ExperimentBuilder(builder).use_devices(devices, three).build();
    ADD_FAILURE() << "a 3-device column for 5 devices was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("covers 3 devices"), std::string::npos) << msg;
    EXPECT_NE(msg.find("5 device specs"), std::string::npos) << msg;
  }
  EXPECT_NO_THROW(
      (void)ExperimentBuilder(builder).use_devices(devices, {}).build());
}

// Known answers of inputs_digest, the value a journal header carries and
// replay checks against freshly built inputs. A digest that moves makes
// every journal written by an earlier build unreplayable, so the values
// are pinned: one trace scenario and one streamed-churn scenario (whose
// digest covers no session).
TEST(ExperimentBuilder, InputsDigestKnownAnswers) {
  const auto base = ExperimentBuilder().seed(17).devices(300).jobs(6).horizon(
      3.0 * kDay);
  const auto trace = ExperimentBuilder(base).build();
  ASSERT_EQ(trace.inputs().sessions.devices(), 300u);
  EXPECT_EQ(api::inputs_digest(trace.inputs()), 0x7BA1AF5C31BC7178ULL);

  const auto churn = ExperimentBuilder(base).set("churn", "weibull").build();
  ASSERT_EQ(churn.inputs().sessions.devices(), 0u);
  EXPECT_EQ(api::inputs_digest(churn.inputs()), 0x31EC8CAB22143656ULL);
}

TEST(ExperimentBuilder, RunWithRejectsNull) {
  const auto ex = ExperimentBuilder().devices(50).jobs(1).build();
  EXPECT_THROW((void)ex.run_with(nullptr), std::invalid_argument);
}

TEST(Rng, DeriveIsDeterministicAndTagSeparated) {
  EXPECT_EQ(Rng::derive(42, "engine"), Rng::derive(42, "engine"));
  EXPECT_NE(Rng::derive(42, "engine"), Rng::derive(42, "scheduler"));
  EXPECT_NE(Rng::derive(42, "engine"), Rng::derive(43, "engine"));
  EXPECT_EQ(Rng::derive(42, std::uint64_t{7}), Rng::derive(42, std::uint64_t{7}));
  EXPECT_NE(Rng::derive(42, std::uint64_t{7}), Rng::derive(42, std::uint64_t{8}));
}

}  // namespace
}  // namespace venn
