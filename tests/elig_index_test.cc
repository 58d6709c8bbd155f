// Unit tests for the incremental eligibility/availability index
// (core/elig_index.h): cached signatures, atom-bucket maintenance across
// requirement registrations, and byte-identical session statistics versus
// the brute-force fleet scans it replaces.
#include <gtest/gtest.h>

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

TEST(EligIndex, RegistrationIsIdempotentAndOrdered) {
  const Fleet fleet = random_population(50, 1);
  const auto& devices = fleet.devices;
  IndexedFleet store(fleet);
  EligibilityIndex idx(store.hot, store.space);
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
  EligibilityIndex idx(store.hot, store.space);
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
  EligibilityIndex idx(store.hot, store.space);
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
    EXPECT_EQ(idx.eligible_session_checkins(g), expected_checkins);
  }
}

TEST(EligIndex, AtomBucketsPartitionThePopulation) {
  const Fleet fleet = random_population(250, 4);
  const auto& devices = fleet.devices;
  IndexedFleet store(fleet);
  EligibilityIndex idx(store.hot, store.space);
  for (const auto c : all_categories()) {
    idx.register_requirement(requirement_for(c));
  }
  std::size_t total = 0;
  for (const auto& [sig, atom] : idx.atoms()) {
    EXPECT_GT(atom.device_count, 0u) << "empty bucket kept for sig " << sig;
    total += atom.device_count;
  }
  EXPECT_EQ(total, devices.size());
  // Every device sits in the bucket of its own signature.
  for (std::size_t d = 0; d < devices.size(); ++d) {
    EXPECT_TRUE(idx.atoms().contains(idx.signature(d)));
  }
}

TEST(EligIndex, SessionStatisticsMatchTheScanAccumulation) {
  const Fleet fleet = random_population(120, 5);
  const auto& devices = fleet.devices;
  IndexedFleet store(fleet);
  EligibilityIndex idx(store.hot, store.space);

  // Brute-force scan over each device's sessions, in device order.
  SimTime span = 0.0;
  double time = 0.0, count = 0.0;
  for (std::size_t d = 0; d < devices.size(); ++d) {
    const auto ss = fleet.sessions.of(d);
    if (!ss.empty()) span = std::max(span, ss.back().end);
    for (const auto& s : ss) {
      time += s.duration();
      count += 1.0;
    }
  }
  EXPECT_EQ(idx.session_span(), span);
  EXPECT_EQ(idx.total_session_seconds(), time);  // identical double, not near
  EXPECT_EQ(idx.total_session_count(), count);
  ASSERT_TRUE(idx.has_sessions());
  EXPECT_EQ(idx.mean_session_seconds(), time / count);
}

TEST(EligIndex, SessionlessPopulation) {
  const Fleet fleet = random_population(40, 6, /*with_sessions=*/false);
  const auto& devices = fleet.devices;
  IndexedFleet store(fleet);
  EligibilityIndex idx(store.hot, store.space);
  EXPECT_FALSE(idx.has_sessions());
  EXPECT_EQ(idx.session_span(), 0.0);
  const std::size_t g =
      idx.register_requirement(requirement_for(ResourceCategory::kGeneral));
  EXPECT_EQ(idx.eligible_count(g), devices.size());
  EXPECT_EQ(idx.eligible_session_checkins(g), 0.0);
}

TEST(EligIndex, RejectsMoreThan64Requirements) {
  const Fleet fleet = random_population(5, 7);
  const auto& devices = fleet.devices;
  IndexedFleet store(fleet);
  EligibilityIndex idx(store.hot, store.space);
  for (int i = 0; i < 64; ++i) {
    idx.register_requirement({static_cast<double>(i) / 128.0, 0.0});
  }
  EXPECT_THROW(idx.register_requirement({0.999, 0.999}), std::length_error);
}

}  // namespace
}  // namespace venn
