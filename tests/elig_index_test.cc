// Unit tests for the incremental eligibility index (core/elig_index.h):
// cached signatures, the per-region supply partials its rebucket pass
// accumulates, and byte-identical session statistics of the hot-state
// store it reads, each against a brute-force scan of the test fleet.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/elig_index.h"
#include "fleet.h"
#include "util/rng.h"

namespace venn {
namespace {

Fleet random_population(std::size_t n, std::uint64_t seed,
                        bool with_sessions = true) {
  Rng rng(seed);
  Fleet devices;
  for (std::size_t i = 0; i < n; ++i) {
    DeviceSpec spec{rng.uniform(), rng.uniform()};
    std::vector<Session> sessions;
    if (with_sessions) {
      SimTime t = rng.uniform(0.0, kHour);
      const std::size_t count = rng.index(5);  // 0..4 sessions
      for (std::size_t s = 0; s < count; ++s) {
        const SimTime dur = rng.uniform(0.5 * kHour, 6.0 * kHour);
        sessions.push_back({t, t + dur});
        t += dur + rng.uniform(0.0, 12.0 * kHour);
      }
    }
    devices.add(spec, sessions);
  }
  return devices;
}

// Sum of a requirement bit's check-in partials: the supply numerator a
// coordinator reads.
double partial_checkins(const EligibilityIndex& idx, std::size_t g) {
  double n = 0.0;
  for (const topology::RegionSupply& p : idx.partials(g)) n += p.checkins;
  return n;
}

TEST(EligIndex, RegistrationIsIdempotentAndOrdered) {
  const Fleet fleet = random_population(50, 1);
  const auto& devices = fleet.devices;
  IndexedFleet store(fleet);
  EligibilityIndex idx(store.hot, store.space, store.regions);
  const Requirement general{0.0, 0.0};
  const Requirement compute{0.5, 0.0};
  EXPECT_EQ(idx.register_requirement(general), 0u);
  EXPECT_EQ(idx.register_requirement(compute), 1u);
  EXPECT_EQ(idx.register_requirement(general), 0u);  // dedupe
  EXPECT_EQ(idx.register_requirement(compute), 1u);
  EXPECT_EQ(idx.num_requirements(), 2u);
  // Exactly one fleet pass per *distinct* requirement.
  EXPECT_EQ(idx.maintenance_stats().requirement_registrations, 2u);
  EXPECT_EQ(idx.maintenance_stats().device_rescans, 2u * devices.size());
}

TEST(EligIndex, SignaturesMatchSignatureSpace) {
  const Fleet fleet = random_population(200, 2);
  const auto& devices = fleet.devices;
  IndexedFleet store(fleet);
  EligibilityIndex idx(store.hot, store.space, store.regions);
  SignatureSpace sigs;
  for (const auto c : all_categories()) {
    const Requirement req = requirement_for(c);
    EXPECT_EQ(idx.register_requirement(req), sigs.register_requirement(req));
  }
  for (std::size_t d = 0; d < devices.size(); ++d) {
    EXPECT_EQ(idx.signature(d), sigs.signature_of(devices[d]))
        << "device " << d;
  }
}

TEST(EligIndex, EligibleCountsMatchBruteForce) {
  const Fleet fleet = random_population(300, 3);
  const auto& devices = fleet.devices;
  IndexedFleet store(fleet);
  EligibilityIndex idx(store.hot, store.space, store.regions);
  std::vector<Requirement> reqs = {requirement_for(ResourceCategory::kGeneral),
                                   requirement_for(ResourceCategory::kHighPerf),
                                   {0.25, 0.75},
                                   {0.9, 0.9}};
  for (const auto& req : reqs) {
    const std::size_t g = idx.register_requirement(req);
    std::size_t expected = 0;
    double expected_checkins = 0.0;
    for (std::size_t d = 0; d < devices.size(); ++d) {
      if (!req.eligible(devices[d])) continue;
      ++expected;
      expected_checkins += static_cast<double>(fleet.sessions.of(d).size());
    }
    EXPECT_EQ(idx.eligible_count(g), expected);
    EXPECT_EQ(partial_checkins(idx, g), expected_checkins);
  }
}

// Each region's partial against a scan of that region's device range, for
// region counts whose ranges differ in length, with one bit the space
// gained from another registrant first: the path of a requirement the
// resource manager registered, rebucketed when the signature column is
// next read.
TEST(EligIndex, RegionPartialsMatchPerRegionScan) {
  constexpr std::size_t kDevices = 250;  // neither 3 nor 7 divides it
  const Fleet fleet = random_population(kDevices, 8);
  const std::vector<Requirement> reqs = {
      requirement_for(ResourceCategory::kGeneral),
      requirement_for(ResourceCategory::kComputeRich),
      {0.3, 0.6},
      {0.8, 0.2}};
  for (const std::size_t regions : {std::size_t{1}, std::size_t{3},
                                    std::size_t{7}}) {
    IndexedFleet store(fleet, regions);
    EligibilityIndex idx(store.hot, store.space, store.regions);
    idx.register_requirement(reqs[0]);
    idx.register_requirement(reqs[1]);
    const std::size_t late = store.space.register_requirement(reqs[2]);
    EXPECT_TRUE(idx.partials(late).empty()) << regions << " regions";
    const std::uint64_t* sigs = idx.signatures();
    idx.register_requirement(reqs[3]);
    ASSERT_EQ(idx.num_requirements(), reqs.size());

    for (std::size_t g = 0; g < reqs.size(); ++g) {
      const auto partials = idx.partials(g);
      ASSERT_EQ(partials.size(), regions) << "bit " << g;
      std::size_t total = 0;
      for (std::size_t r = 0; r < regions; ++r) {
        // Region r owns [n·r/R, n·(r+1)/R).
        std::uint64_t eligible = 0;
        double checkins = 0.0;
        for (std::size_t d = kDevices * r / regions;
             d < kDevices * (r + 1) / regions; ++d) {
          const bool ok = reqs[g].eligible(fleet.devices[d]);
          EXPECT_EQ((sigs[d] >> g) & 1ULL, ok ? 1u : 0u) << "device " << d;
          if (!ok) continue;
          ++eligible;
          checkins += static_cast<double>(fleet.sessions.of(d).size());
        }
        EXPECT_EQ(partials[r].eligible, eligible)
            << regions << " regions, bit " << g << ", region " << r;
        EXPECT_EQ(partials[r].checkins, checkins)
            << regions << " regions, bit " << g << ", region " << r;
        total += eligible;
      }
      EXPECT_EQ(idx.eligible_count(g), total) << regions << " regions";
    }
  }
}

TEST(EligIndex, SessionStatisticsMatchTheScanAccumulation) {
  const Fleet fleet = random_population(120, 5);
  const auto& devices = fleet.devices;
  IndexedFleet store(fleet);

  // Brute-force scan over each device's sessions, in device order.
  SimTime span = 0.0;
  double time = 0.0, count = 0.0;
  for (std::size_t d = 0; d < devices.size(); ++d) {
    for (const auto& s : fleet.sessions.of(d)) {
      span = std::max(span, s.end);
      time += s.duration();
      count += 1.0;
    }
  }
  ASSERT_GT(count, 0.0);
  EXPECT_EQ(store.hot.session_span, span);
  EXPECT_EQ(store.hot.session_time, time);  // identical double, not near
  EXPECT_EQ(store.hot.session_count, count);
}

TEST(EligIndex, SessionlessPopulation) {
  const Fleet fleet = random_population(40, 6, /*with_sessions=*/false);
  const auto& devices = fleet.devices;
  IndexedFleet store(fleet);
  EligibilityIndex idx(store.hot, store.space, store.regions);
  EXPECT_EQ(store.hot.session_count, 0.0);
  EXPECT_EQ(store.hot.session_span, 0.0);
  const std::size_t g =
      idx.register_requirement(requirement_for(ResourceCategory::kGeneral));
  EXPECT_EQ(idx.eligible_count(g), devices.size());
  EXPECT_EQ(partial_checkins(idx, g), 0.0);
}

TEST(EligIndex, RejectsMoreThan64Requirements) {
  const Fleet fleet = random_population(5, 7);
  IndexedFleet store(fleet);
  EligibilityIndex idx(store.hot, store.space, store.regions);
  for (int i = 0; i < 64; ++i) {
    idx.register_requirement({static_cast<double>(i) / 128.0, 0.0});
  }
  EXPECT_THROW(idx.register_requirement({0.999, 0.999}), std::length_error);
}

}  // namespace
}  // namespace venn
