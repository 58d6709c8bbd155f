// Shard-vs-serial differential wall.
//
// `shards=N` is an execution knob: the fleet partition, the worker pool,
// the batched sweep pipeline and the sharded index rebuckets must all be
// invisible in the results. This wall runs the gallery axes — policies ×
// round protocols × churn/streaming/open-loop — at shard counts
// {1, 2, 4, 8} and requires
// byte-equivalence of the full RunResult (per-job JCTs and round stats,
// protocol counters, assignment matrix) AND of the recorded TSDB streams,
// point for point. A property test additionally pins the sharded
// supply-rate / solo-JCT estimates to the serial values exactly.
//
// The fleets are sized so the sharded machinery actually engages (pool
// above the batching threshold); several
// tests assert via ShardStats that the pipeline ran, so a regression that
// silently stopped sharding cannot turn this wall vacuous.
#include <gtest/gtest.h>

#include "protocol/builtins.h"
#include "venn/venn.h"

namespace venn {
namespace {

void expect_identical(const RunResult& a, const RunResult& b,
                      const std::string& label) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size()) << label;
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].jct, b.jobs[i].jct) << label << " job " << i;
    EXPECT_EQ(a.jobs[i].completed_rounds, b.jobs[i].completed_rounds)
        << label << " job " << i;
    EXPECT_EQ(a.jobs[i].total_aborts, b.jobs[i].total_aborts)
        << label << " job " << i;
    EXPECT_EQ(a.jobs[i].solo_jct_estimate, b.jobs[i].solo_jct_estimate)
        << label << " job " << i;
    ASSERT_EQ(a.jobs[i].rounds.size(), b.jobs[i].rounds.size())
        << label << " job " << i;
    for (std::size_t r = 0; r < a.jobs[i].rounds.size(); ++r) {
      EXPECT_EQ(a.jobs[i].rounds[r].scheduling_delay,
                b.jobs[i].rounds[r].scheduling_delay)
          << label << " job " << i << " round " << r;
      EXPECT_EQ(a.jobs[i].rounds[r].response_collection,
                b.jobs[i].rounds[r].response_collection)
          << label << " job " << i << " round " << r;
    }
  }
  EXPECT_EQ(a.protocol, b.protocol) << label;
  EXPECT_EQ(a.assignment_matrix, b.assignment_matrix) << label;
}

void expect_identical_streams(const TimeSeriesRecorder& a,
                              const TimeSeriesRecorder& b,
                              const std::string& label) {
  const auto keys_a = a.store().keys();
  const auto keys_b = b.store().keys();
  ASSERT_EQ(keys_a.size(), keys_b.size()) << label;
  for (const std::uint64_t key : keys_a) {
    const tsdb::Series* sa = a.store().find(key);
    const tsdb::Series* sb = b.store().find(key);
    ASSERT_NE(sa, nullptr) << label << " stream " << key;
    ASSERT_NE(sb, nullptr) << label << " stream " << key;
    const auto pa = sa->snapshot();
    const auto pb = sb->snapshot();
    ASSERT_EQ(pa.size(), pb.size()) << label << " stream " << key;
    for (std::size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i].first, pb[i].first)
          << label << " stream " << key << " point " << i;
      EXPECT_EQ(pa[i].second, pb[i].second)
          << label << " stream " << key << " point " << i;
    }
  }
}

// Policies × shard counts, TSDB streams included. Fleet large enough that
// idle pools exceed the sweep-batching threshold.
TEST(ShardDifferential, PoliciesByteIdenticalAcrossShardCounts) {
  ScenarioSpec base;
  base.seed = 41;
  base.num_devices = 6'000;
  base.num_jobs = 10;
  base.horizon = 4.0 * kDay;
  base.job_trace.min_demand = 3;
  base.job_trace.max_demand = 12;
  base.set("churn", "weibull");

  for (const char* policy : {"venn", "fifo", "srsf", "random"}) {
    TimeSeriesRecorder serial_recorder;
    ScenarioSpec serial = base;
    const RunResult r1 = [&] {
      ExperimentBuilder b;
      b.scenario(serial).policy(policy).observe(serial_recorder);
      return b.run();
    }();
    for (const std::size_t shards : {2UL, 4UL, 8UL}) {
      TimeSeriesRecorder recorder;
      ScenarioSpec sharded = base;
      sharded.shards = shards;
      const RunResult rn = [&] {
        ExperimentBuilder b;
        b.scenario(sharded).policy(policy).observe(recorder);
        return b.run();
      }();
      const std::string label =
          std::string(policy) + " shards=" + std::to_string(shards);
      expect_identical(r1, rn, label);
      expect_identical_streams(serial_recorder, recorder, label);
    }
  }
}

// Round protocols at shards=4 vs serial. (The test keeps its historical
// name from when it also crossed a second, full-scan index mode.)
TEST(ShardDifferential, ProtocolsAndIndexModesByteIdentical) {
  for (const char* proto : {"sync", "overcommit", "async"}) {
    ScenarioSpec base;
    base.seed = 53;
    base.num_devices = 4'000;
    base.num_jobs = 8;
    base.horizon = 3.0 * kDay;
    base.set("churn", "weibull");
    base.set("protocol", proto);

    ScenarioSpec sharded = base;
    sharded.shards = 4;
    const RunResult r1 = ExperimentBuilder().scenario(base).run();
    const RunResult r4 = ExperimentBuilder().scenario(sharded).run();
    expect_identical(r1, r4, std::string(proto) + " shards=4");
  }
}

// Streaming churn and open-loop admission under sharding.
TEST(ShardDifferential, StreamingAndOpenLoopByteIdentical) {
  ScenarioSpec streaming;
  streaming.seed = 67;
  streaming.num_devices = 5'000;
  streaming.num_jobs = 8;
  streaming.horizon = 3.0 * kDay;
  streaming.set("churn", "weibull");
  const RunResult s1 = ExperimentBuilder().scenario(streaming).run();
  for (const std::size_t shards : {2UL, 8UL}) {
    ScenarioSpec sharded = streaming;
    sharded.shards = shards;
    const RunResult sn = ExperimentBuilder().scenario(sharded).run();
    expect_identical(s1, sn, "streaming shards=" + std::to_string(shards));
  }

  ScenarioSpec open;
  open.seed = 71;
  open.num_devices = 4'000;
  open.num_jobs = 8;
  open.horizon = 3.0 * kDay;
  open.set("arrival", "poisson");
  open.set("arrival.interarrival-min", "180");
  open.set("mix", "even");
  open.set("open-loop", "1");
  const RunResult o1 = ExperimentBuilder().scenario(open).run();
  ScenarioSpec open8 = open;
  open8.shards = 8;
  const RunResult o8 = ExperimentBuilder().scenario(open8).run();
  expect_identical(o1, o8, "open-loop shards=8");
}

// ---------------------------------------------------------------- property --

// Builds a coordinator by hand so supply/solo estimates and ShardStats are
// directly observable.
struct HandRun {
  sim::Engine engine;
  ResourceManager manager;
  std::shared_ptr<const workload::GeneratorSet> gens;
  std::unique_ptr<Coordinator> coord;

  HandRun(std::size_t shards, std::size_t devices)
      : engine(Rng::derive(91, "engine")),
        manager(PolicyRegistry::instance().create(
            "venn", {}, Rng::derive(91, "scheduler"))) {
    ScenarioSpec sc;
    sc.seed = 91;
    sc.num_devices = devices;
    sc.num_jobs = 6;
    sc.horizon = 2.0 * kDay;
    sc.set("churn", "weibull");
    const auto inputs = api::build_inputs(sc);
    gens = std::make_shared<const workload::GeneratorSet>(
        workload::build_generators(sc.arrival_gen, sc.mix_gen, sc.churn_gen,
                                   sc.seed));
    engine.set_shards(shards);
    CoordinatorConfig ccfg;
    ccfg.horizon = sc.horizon;
    ccfg.seed = sc.seed;
    ccfg.churn = gens->churn.get();
    coord = std::make_unique<Coordinator>(engine, manager, inputs.devices,
                                          inputs.sessions, inputs.jobs, ccfg);
  }
};

// Sharded supply-rate / solo-JCT estimates must equal the serial values
// exactly (not approximately): the merged quantities are integer counts,
// integer-valued double sums and maxima.
TEST(ShardDifferential, SupplyAndSoloEstimatesExactAtAnyShardCount) {
  HandRun serial(1, 4'000);
  std::vector<trace::JobSpec> probes;
  for (const ResourceCategory c : all_categories()) {
    trace::JobSpec spec;
    spec.category = c;
    spec.demand = 24;
    spec.rounds = 6;
    spec.nominal_task_s = 120.0;
    spec.task_cv = 0.3;
    probes.push_back(spec);
  }
  for (const std::size_t shards : {2UL, 3UL, 4UL, 8UL}) {
    HandRun sharded(shards, 4'000);
    for (const auto& spec : probes) {
      EXPECT_EQ(serial.coord->solo_jct_estimate(spec),
                sharded.coord->solo_jct_estimate(spec))
          << "shards=" << shards << " category "
          << category_name(spec.category);
    }
    // Every probe registered its requirement through the sharded index
    // rebucket, or this property test is vacuous.
    EXPECT_EQ(
        sharded.coord->index().maintenance_stats().requirement_registrations,
        probes.size())
        << "shards=" << shards;
  }
}

// The wall must actually exercise the sweep pipeline: at 6k devices the
// idle pool crosses the batching threshold and the filter runs.
TEST(ShardDifferential, ShardedSweepPipelineEngages) {
  ScenarioSpec sc;
  sc.seed = 41;
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
  engine.set_shards(4);
  ResourceManager manager(PolicyRegistry::instance().create(
      "venn", {}, Rng::derive(sc.seed, "scheduler")));
  CoordinatorConfig ccfg;
  ccfg.horizon = sc.horizon;
  ccfg.seed = sc.seed;
  ccfg.churn = gens.churn.get();
  Coordinator coord(engine, manager, inputs.devices, inputs.sessions,
                    inputs.jobs, ccfg);
  coord.run();

  const auto& ss = coord.shard_stats();
  EXPECT_GT(ss.sharded_sweeps, 0u);
  ASSERT_EQ(ss.per_shard.size(), 4u);
  EXPECT_GT(ss.filter_batches, 0u);
  std::uint64_t filtered = 0;
  for (const auto& sh : ss.per_shard) filtered += sh.filter_entries;
  EXPECT_GT(filtered, 0u);
  EXPECT_TRUE(coord.validate_idle_segments());
}

// SoA-filter-vs-live-signature property. The sweep's batched skip verdict
// reads the hot store's cached signature column: skip device d iff
// (hot.signature[d] & wants) == 0; the live signature is the one
// SignatureSpace::signature_of computes from the spec over the manager's
// requirement space. The two must agree under exactly the dynamic
// conditions that invalidate caches:
//   * the wants mask GROWS mid-sweep — staggered job arrivals register new
//     requirement bits between (and during) sweeps, and a successful offer
//     can re-open a queue the filter snapshot considered satisfied;
//   * straggler re-parks — the overcommit protocol cuts devices off
//     mid-compute and re-parks them with their day budget refunded, so
//     filtered pool segments churn while rounds are in flight.
// Run the same scenario at shards {1, 4, 8}, assert those conditions
// actually occurred, then check per device that the cached column
// reproduces the live signature on all bits — which implies verdict
// equality for every wants mask the sweep can see. The participation
// column must likewise match the Device views bound over it.
TEST(ShardDifferential, SoaFilterVerdictMatchesLiveSignatureFallback) {
  for (const std::size_t shards : {1UL, 4UL, 8UL}) {
    const std::string label = "shards=" + std::to_string(shards);
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
    engine.set_shards(shards);
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
    // released back into the pool, and at shards > 1 the batched filter
    // pipeline actually ran.
    const SignatureSpace& sigs = manager.signatures();
    ASSERT_GT(sigs.size(), 0u) << label;
    EXPECT_GT(coord.protocol_stats().stragglers_released, 0u) << label;
    if (shards > 1) {
      EXPECT_GT(coord.shard_stats().sharded_sweeps, 0u) << label;
      EXPECT_GT(coord.shard_stats().filter_batches, 0u) << label;
    }

    const FleetHotState& hot = coord.hot_state();
    ASSERT_EQ(hot.size(), sc.num_devices) << label;

    for (std::size_t d = 0; d < hot.size(); ++d) {
      ASSERT_EQ(hot.signature[d], sigs.signature_of(hot.spec[d]))
          << label << " device " << d;
    }

    // The participation column is the backing store of the Device views;
    // after refunds (straggler releases above) every slot is either the
    // sentinel or a real day inside the run.
    const int last_day = Device::day_of(sc.horizon);
    for (std::size_t d = 0; d < hot.size(); ++d) {
      const std::int32_t day = hot.participation_day[d];
      ASSERT_TRUE(day == Device::kNeverParticipated ||
                  (day >= -1 && day <= last_day))
          << label << " device " << d << " day " << day;
    }
  }
}

}  // namespace
}  // namespace venn
