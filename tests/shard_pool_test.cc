// Sharded-execution machinery tests: the worker pool's barrier contract,
// the sharded eligibility-index rebucket's exact equality with the serial
// one, and the shard-local idle-pool ownership invariant on the
// straggler-release / deferral paths.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "fleet.h"
#include "sim/worker_pool.h"
#include "venn/venn.h"

namespace venn {
namespace {

// ------------------------------------------------------------ WorkerPool --

TEST(WorkerPool, RunsEveryShardExactlyOnceAndBarriers) {
  for (const std::size_t shards : {1UL, 2UL, 4UL, 8UL}) {
    sim::WorkerPool pool(shards);
    EXPECT_EQ(pool.shards(), shards);
    std::vector<std::atomic<int>> hits(shards);
    for (auto& h : hits) h = 0;
    for (int round = 0; round < 50; ++round) {
      pool.run_shards([&](std::size_t s) { ++hits[s]; });
    }
    // The barrier returned, so every increment is visible here.
    for (std::size_t s = 0; s < shards; ++s) EXPECT_EQ(hits[s], 50);
  }
}

TEST(WorkerPool, RangePartitionCoversWithoutOverlap) {
  sim::WorkerPool pool(4);
  for (const std::size_t n : {0UL, 1UL, 3UL, 4UL, 7UL, 1000UL, 1001UL}) {
    std::size_t covered = 0;
    for (std::size_t s = 0; s < pool.shards(); ++s) {
      const std::size_t b = pool.range_begin(n, s);
      const std::size_t e = pool.range_end(n, s);
      ASSERT_LE(b, e);
      if (s > 0) ASSERT_EQ(b, pool.range_end(n, s - 1));
      covered += e - b;
    }
    EXPECT_EQ(pool.range_begin(n, 0), 0u);
    EXPECT_EQ(pool.range_end(n, pool.shards() - 1), n);
    EXPECT_EQ(covered, n);
  }
}

TEST(WorkerPool, PropagatesShardExceptionsDeterministically) {
  sim::WorkerPool pool(4);
  // Shards 1 and 3 both throw; the first shard in *shard order* must win
  // regardless of wall-clock completion order.
  try {
    pool.run_shards([](std::size_t s) {
      if (s == 1) throw std::runtime_error("shard-1");
      if (s == 3) throw std::runtime_error("shard-3");
    });
    FAIL() << "expected the shard exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard-1");
  }
  // The pool survives a throwing run.
  std::atomic<int> ok{0};
  pool.run_shards([&](std::size_t) { ++ok; });
  EXPECT_EQ(ok, 4);
}

TEST(WorkerPool, RejectsZeroShardsAndReentrancy) {
  EXPECT_THROW(sim::WorkerPool(0), std::invalid_argument);
  sim::WorkerPool pool(2);
  EXPECT_THROW(pool.run_shards([&](std::size_t) {
    pool.run_shards([](std::size_t) {});
  }),
               std::logic_error);
}

TEST(FleetPartitionTest, ShardOfAgreesWithRanges) {
  // shard_of must be the exact inverse of the begin/end ranges, including
  // non-dividing and degenerate sizes (shards > devices → empty ranges).
  for (const std::size_t n : {1UL, 2UL, 3UL, 5UL, 7UL, 64UL, 1000UL, 1003UL}) {
    for (const std::size_t shards : {1UL, 2UL, 3UL, 4UL, 7UL, 8UL, 64UL}) {
      const FleetPartition p(n, shards);
      std::size_t covered = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        ASSERT_LE(p.begin(s), p.end(s));
        if (s > 0) ASSERT_EQ(p.begin(s), p.end(s - 1));
        for (std::size_t d = p.begin(s); d < p.end(s); ++d) {
          ASSERT_EQ(p.shard_of(d), s) << "n=" << n << " shards=" << shards
                                      << " d=" << d;
        }
        covered += p.end(s) - p.begin(s);
      }
      EXPECT_EQ(p.begin(0), 0u);
      EXPECT_EQ(p.end(shards - 1), n);
      EXPECT_EQ(covered, n);
    }
  }
}

TEST(Engine, ShardKnobCreatesAndDropsPool) {
  sim::Engine engine(7);
  EXPECT_EQ(engine.shards(), 1u);
  EXPECT_EQ(engine.workers(), nullptr);
  engine.set_shards(4);
  ASSERT_NE(engine.workers(), nullptr);
  EXPECT_EQ(engine.shards(), 4u);
  engine.set_shards(1);
  EXPECT_EQ(engine.workers(), nullptr);
  EXPECT_THROW(engine.set_shards(0), std::invalid_argument);
}

// ------------------------------------------- sharded index rebucket -------

Fleet random_fleet(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Fleet out;
  for (std::size_t i = 0; i < n; ++i) {
    const DeviceSpec spec{rng.uniform(), rng.uniform()};
    std::vector<Session> sessions;
    const int k = static_cast<int>(rng.uniform_int(0, 3));
    SimTime t = rng.uniform(0.0, kHour);
    for (int s = 0; s < k; ++s) {
      const SimTime dur = rng.uniform(10.0, kHour);
      sessions.push_back({t, t + dur});
      t += dur + rng.uniform(10.0, kHour);
    }
    out.add(spec, sessions);
  }
  return out;
}

TEST(ShardedIndex, RebucketMatchesSerialExactly) {
  const auto fleet = random_fleet(3'000, 123);
  const std::vector<Requirement> reqs = {
      {0.0, 0.0}, {0.5, 0.0}, {0.0, 0.5}, {0.5, 0.5}, {0.25, 0.75},
  };
  for (const std::size_t shards : {2UL, 3UL, 8UL}) {
    EligibilityIndex serial{fleet.devices, fleet.sessions};
    EligibilityIndex sharded{fleet.devices, fleet.sessions};
    sim::WorkerPool pool(shards);
    sharded.set_workers(&pool);
    for (const auto& r : reqs) {
      ASSERT_EQ(serial.register_requirement(r),
                sharded.register_requirement(r));
    }
    ASSERT_EQ(serial.num_devices(), sharded.num_devices());
    for (std::size_t d = 0; d < serial.num_devices(); ++d) {
      ASSERT_EQ(serial.signature(d), sharded.signature(d)) << "device " << d;
    }
    for (std::size_t g = 0; g < reqs.size(); ++g) {
      EXPECT_EQ(serial.eligible_count(g), sharded.eligible_count(g));
      // Exact, not approximate: the merged sums are integer-valued.
      EXPECT_EQ(serial.eligible_session_checkins(g),
                sharded.eligible_session_checkins(g));
    }
    EXPECT_EQ(serial.atoms().size(), sharded.atoms().size());
    for (const auto& [sig, atom] : serial.atoms()) {
      const auto it = sharded.atoms().find(sig);
      ASSERT_NE(it, sharded.atoms().end()) << "atom " << sig;
      EXPECT_EQ(atom.device_count, it->second.device_count);
      EXPECT_EQ(atom.session_checkins, it->second.session_checkins);
    }
    EXPECT_EQ(serial.maintenance_stats().device_rescans,
              sharded.maintenance_stats().device_rescans);
  }
}

// --------------------------------------- shard-local pool ownership -------

// Straggler releases re-park devices into the idle pool; under sharding the
// re-park must land in the releasing device's home-shard segment. This is
// the GateScheduler-style regression for the release/deferral paths: an
// over-selection world where commits cut off in-flight stragglers, run
// sharded, with the segment accounting validated after the run and the
// trajectory pinned to the serial one.
TEST(ShardOwnership, StragglerReleaseReparksIntoHomeShardSegment) {
  const auto make_fleet = [] {
    Fleet out;
    Rng rng(5);
    for (int i = 0; i < 600; ++i) {
      // Spread of speeds so over-selected cohorts always have stragglers.
      const double score = 0.2 + 0.6 * rng.uniform();
      out.add(DeviceSpec{score, score}, {{0.0, 14.0 * kDay}});
    }
    return out;
  };
  const auto make_jobs = [] {
    std::vector<trace::JobSpec> jobs;
    for (int j = 0; j < 4; ++j) {
      trace::JobSpec s;
      s.rounds = 3;
      s.demand = 40;
      s.category = ResourceCategory::kGeneral;
      s.arrival = 100.0 * j;
      s.nominal_task_s = 300.0;
      s.task_cv = 0.4;
      s.deadline_s = 600.0;
      jobs.push_back(s);
    }
    return jobs;
  };

  workload::GenParams params;
  params.kv["overcommit"] = "1.5";
  const auto protocol =
      protocol::protocol_registry().create("overcommit", params, 0);

  RunResult results[2];
  std::uint64_t released[2] = {0, 0};
  int idx = 0;
  for (const std::size_t shards : {1UL, 4UL}) {
    sim::Engine engine(9);
    engine.set_shards(shards);
    ResourceManager mgr(PolicyRegistry::instance().create(
        "fifo", {}, Rng::derive(9, "scheduler")));
    CoordinatorConfig cfg;
    cfg.horizon = 7.0 * kDay;
    cfg.seed = 9;
    cfg.protocol = protocol.get();
    Fleet fleet = make_fleet();
    Coordinator coord(engine, mgr, std::move(fleet.devices),
                      std::move(fleet.sessions), make_jobs(), cfg);
    coord.run();

    // The regression's premise: stragglers were actually released and
    // re-parked into the (sharded) pool.
    EXPECT_GT(coord.protocol_stats().stragglers_released, 0u)
        << "shards=" << shards;
    released[idx] = coord.protocol_stats().stragglers_released;

    // Segment accounting covers the pool exactly, device by device, and
    // every device's home shard is in range.
    EXPECT_TRUE(coord.validate_idle_segments()) << "shards=" << shards;
    ASSERT_EQ(coord.idle_segment_sizes().size(), shards);
    for (std::size_t d = 0; d < coord.devices().size(); ++d) {
      ASSERT_LT(coord.shard_of(d), shards);
    }

    results[idx] = collect_results(coord, "overcommit");
    ++idx;
  }
  // Release-heavy trajectory is byte-identical under sharding.
  EXPECT_EQ(released[0], released[1]);
  ASSERT_EQ(results[0].jobs.size(), results[1].jobs.size());
  for (std::size_t i = 0; i < results[0].jobs.size(); ++i) {
    EXPECT_EQ(results[0].jobs[i].jct, results[1].jobs[i].jct);
  }
  EXPECT_EQ(results[0].protocol, results[1].protocol);
}

}  // namespace
}  // namespace venn
