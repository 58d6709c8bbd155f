// Hierarchical-topology differential wall.
//
// `topology=hier` splits the fleet into contiguous regions, each owning a
// slice of the device range with its own diurnal phase offset, and feeds a
// global coordinator through a modeled region->global uplink. The contract
// locked in here: with `topo.sync_latency=0` and no phase spread, the
// hierarchical run is byte-identical to the flat run — same RunResult
// (per-job JCTs, round stats, protocol counters, assignment matrix) and
// the same TSDB streams point for point — across round protocols. The
// regional machinery still executes
// (per-region supply aggregation, uplink report accounting); vacuousness
// guards below assert that via TopologyStats, so a regression that
// silently bypassed the hier path cannot turn this wall green by accident.
//
// Nonzero knobs must matter: sync latency shifts result collection, phase
// spread staggers regional availability. Both are asserted to produce a
// divergent trajectory, and the streamed churn sessions must agree with the
// same sessions drained into a column about the per-region phase shifts.
#include <gtest/gtest.h>

#include "device/fleet_partition.h"
#include "drained_churn.h"
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

bool any_round_stat_differs(const RunResult& a, const RunResult& b) {
  if (a.jobs.size() != b.jobs.size()) return true;
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    if (a.jobs[i].jct != b.jobs[i].jct) return true;
    if (a.jobs[i].rounds.size() != b.jobs[i].rounds.size()) return true;
    for (std::size_t r = 0; r < a.jobs[i].rounds.size(); ++r) {
      if (a.jobs[i].rounds[r].response_collection !=
          b.jobs[i].rounds[r].response_collection) {
        return true;
      }
    }
  }
  return false;
}

// part_of must be the exact inverse of the begin/end ranges, including
// non-dividing and degenerate sizes (parts > devices → empty ranges). The
// test is named for the method's former name, from when the same math also
// partitioned execution shards.
TEST(FleetPartitionTest, ShardOfAgreesWithRanges) {
  for (const std::size_t n : {1UL, 2UL, 3UL, 5UL, 7UL, 64UL, 1000UL, 1003UL}) {
    for (const std::size_t parts : {1UL, 2UL, 3UL, 4UL, 7UL, 8UL, 64UL}) {
      const FleetPartition p(n, parts);
      std::size_t covered = 0;
      for (std::size_t s = 0; s < parts; ++s) {
        ASSERT_LE(p.begin(s), p.end(s));
        if (s > 0) ASSERT_EQ(p.begin(s), p.end(s - 1));
        for (std::size_t d = p.begin(s); d < p.end(s); ++d) {
          ASSERT_EQ(p.part_of(d), s)
              << "n=" << n << " parts=" << parts << " d=" << d;
        }
        covered += p.end(s) - p.begin(s);
      }
      EXPECT_EQ(p.begin(0), 0u);
      EXPECT_EQ(p.end(parts - 1), n);
      EXPECT_EQ(covered, n);
    }
  }
}

// Zero-latency equivalence across protocols. The region count is fixed at
// 4 so the regional supply aggregation groups the fleet into genuinely
// distinct slices.
TEST(TopologyDifferential, ZeroLatencyHierByteIdenticalToFlat) {
  for (const char* proto : {"sync", "overcommit", "async"}) {
    ScenarioSpec base;
    base.seed = 103;
    base.num_devices = 4'000;
    base.num_jobs = 8;
    base.horizon = 3.0 * kDay;
    base.job_trace.min_demand = 3;
    base.job_trace.max_demand = 12;
    base.set("churn", "weibull");
    base.set("protocol", proto);

    ScenarioSpec hier = base;
    hier.set("topology", "hier");
    hier.set("topo.regions", "4");
    hier.set("topo.sync_latency", "0");

    const std::string label = proto;
    TimeSeriesRecorder flat_rec;
    TimeSeriesRecorder hier_rec;
    const RunResult rf =
        ExperimentBuilder().scenario(base).observe(flat_rec).run();
    const RunResult rh =
        ExperimentBuilder().scenario(hier).observe(hier_rec).run();
    expect_identical(rf, rh, label);
    expect_identical_streams(flat_rec, hier_rec, label);
  }
}

// The zero-latency wall must not be vacuous: run the hier coordinator by
// hand and require that the regional machinery actually engaged — the
// cross-region supply aggregation answered supply queries, result uplinks
// were accounted, and every region saw device traffic.
TEST(TopologyDifferential, HierMachineryEngagesAtZeroLatency) {
  ScenarioSpec sc;
  sc.seed = 103;
  sc.num_devices = 4'000;
  sc.num_jobs = 8;
  sc.horizon = 3.0 * kDay;
  sc.job_trace.min_demand = 3;
  sc.job_trace.max_demand = 12;
  sc.set("churn", "weibull");
  sc.set("topology", "hier");
  sc.set("topo.regions", "4");
  sc.set("topo.sync_latency", "0");

  const auto inputs = api::build_inputs(sc);
  const auto gens = workload::build_generators(sc.arrival_gen, sc.mix_gen,
                                               sc.churn_gen, sc.seed);
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

  ASSERT_EQ(coord.region_map().regions(), 4u);
  const auto& ts = coord.topology_stats();
  EXPECT_GT(ts.cross_region_supply_aggs, 0u);
  EXPECT_GT(ts.uplink_reports, 0u);
  ASSERT_EQ(ts.per_region.size(), 4u);
  std::uint64_t responses = 0;
  std::uint64_t stragglers = 0;
  for (std::size_t r = 0; r < ts.per_region.size(); ++r) {
    EXPECT_GT(ts.per_region[r].checkins, 0u) << "region " << r;
    responses += ts.per_region[r].responses;
    stragglers += ts.per_region[r].stragglers_released;
  }
  // Regional counters are a decomposition of the global protocol counters,
  // not an independent tally.
  EXPECT_EQ(responses, coord.protocol_stats().responses);
  EXPECT_EQ(stragglers, coord.protocol_stats().stragglers_released);
}

// The knobs must matter: a 5-minute uplink latency shifts response
// collection, an 8-hour phase spread staggers regional availability.
TEST(TopologyDifferential, NonzeroLatencyAndPhaseSpreadDiverge) {
  ScenarioSpec base;
  base.seed = 107;
  base.num_devices = 3'000;
  base.num_jobs = 6;
  base.horizon = 3.0 * kDay;
  base.set("churn", "diurnal");
  const RunResult flat = ExperimentBuilder().scenario(base).run();

  ScenarioSpec lat = base;
  lat.set("topology", "hier");
  lat.set("topo.regions", "4");
  lat.set("topo.sync_latency", "300");
  const RunResult rl = ExperimentBuilder().scenario(lat).run();
  EXPECT_TRUE(any_round_stat_differs(flat, rl)) << "sync_latency=300";

  ScenarioSpec phase = base;
  phase.set("topology", "hier");
  phase.set("topo.regions", "4");
  phase.set("topo.phase_spread", "8");
  const RunResult rp = ExperimentBuilder().scenario(phase).run();
  EXPECT_TRUE(any_round_stat_differs(flat, rp)) << "phase_spread=8";
}

// Streamed churn gets the per-region phase shift on the fly in the
// coordinator's cursor; a drained column is shifted up front, in place.
// The two implementations must agree trajectory-for-trajectory.
TEST(TopologyDifferential, StreamingAndMaterializedPhasePathsAgree) {
  for (const char* model : {"diurnal", "weibull"}) {
    ScenarioSpec base;
    base.seed = 109;
    base.num_devices = 3'000;
    base.num_jobs = 6;
    base.horizon = 3.0 * kDay;
    base.set("churn", model);
    base.set("topology", "hier");
    base.set("topo.regions", "4");
    base.set("topo.sync_latency", "0");
    base.set("topo.phase_spread", "8");

    TimeSeriesRecorder mat_rec;
    TimeSeriesRecorder str_rec;
    const RunResult rm =
        drained_churn(ExperimentBuilder().scenario(base).observe(mat_rec))
            .run("venn");
    const RunResult rs =
        ExperimentBuilder().scenario(base).observe(str_rec).build().run("venn");
    const std::string label = std::string(model) + " materialized vs streaming";
    expect_identical(rm, rs, label + " phase");
    expect_identical_streams(mat_rec, str_rec, label);
  }
}

// ------------------------------------------------------------------ knobs --

TEST(TopologyDifferential, OrphanedTopoKnobsRejectedAtBuild) {
  for (const char* key : {"topo.regions", "topo.sync_latency",
                          "topo.phase_spread"}) {
    ScenarioSpec sc;
    sc.num_devices = 100;
    sc.num_jobs = 1;
    sc.horizon = kDay;
    sc.set(key, key == std::string("topo.regions") ? "4" : "10");
    try {
      (void)ExperimentBuilder().scenario(sc).run();
      FAIL() << key << " without topology=hier should not build";
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << "message should name the orphaned key: " << e.what();
      EXPECT_NE(std::string(e.what()).find("topology=hier"),
                std::string::npos)
          << "message should point at the missing mode: " << e.what();
    }
  }
}

TEST(TopologyDifferential, UnknownAndOutOfRangeTopoKnobsThrow) {
  ScenarioSpec sc;
  try {
    sc.set("topo.fanout", "3");
    FAIL() << "unknown topo.* key should throw";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("topo.fanout"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(sc.set("topology", "star"), std::exception);
  EXPECT_THROW(sc.set("topo.regions", "1"), std::exception);
  EXPECT_THROW(sc.set("topo.regions", "65"), std::exception);
  EXPECT_THROW(sc.set("topo.sync_latency", "-1"), std::exception);
  EXPECT_THROW(sc.set("topo.phase_spread", "-0.5"), std::exception);
}

TEST(TopologyDifferential, ConflictingTopologyNamesBothValues) {
  ScenarioSpec sc;
  sc.set("topology", "hier");
  try {
    sc.set("topology", "flat");
    FAIL() << "conflicting topology re-set should throw";
  } catch (const std::exception& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("hier"), std::string::npos) << msg;
    EXPECT_NE(msg.find("flat"), std::string::npos) << msg;
  }
  // Re-setting the same value is fine (idempotent, like protocol=).
  EXPECT_NO_THROW(sc.set("topology", "hier"));
}

TEST(TopologyDifferential, CanonicalKvRoundTripsTopologyKnobs) {
  ScenarioSpec sc;
  sc.seed = 7;
  sc.num_devices = 500;
  sc.num_jobs = 3;
  sc.horizon = 2.0 * kDay;
  sc.set("churn", "diurnal");
  sc.set("topology", "hier");
  sc.set("topo.regions", "6");
  sc.set("topo.sync_latency", "45");
  sc.set("topo.phase_spread", "8");

  const std::string kv = sc.to_kv();
  ScenarioSpec parsed;
  std::size_t pos = 0;
  while (pos < kv.size()) {
    std::size_t nl = kv.find('\n', pos);
    if (nl == std::string::npos) nl = kv.size();
    const std::string line = kv.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    ASSERT_NE(eq, std::string::npos) << line;
    parsed.set(line.substr(0, eq), line.substr(eq + 1));
  }
  EXPECT_EQ(parsed.to_kv(), kv) << "canonical form must be a fixed point";
  EXPECT_EQ(parsed.topology, "hier");
  ASSERT_TRUE(parsed.topo_regions.has_value());
  EXPECT_EQ(*parsed.topo_regions, 6u);
  ASSERT_TRUE(parsed.topo_sync_latency.has_value());
  EXPECT_EQ(*parsed.topo_sync_latency, 45.0);
  ASSERT_TRUE(parsed.topo_phase_spread.has_value());
  EXPECT_EQ(*parsed.topo_phase_spread, 8.0);

  // Flat specs must serialize exactly as before the topology axis existed:
  // no topology keys appear when none were configured.
  ScenarioSpec flat;
  flat.num_devices = 500;
  EXPECT_EQ(flat.to_kv().find("topo"), std::string::npos)
      << "flat spec leaked a topology key";
}

}  // namespace
}  // namespace venn
