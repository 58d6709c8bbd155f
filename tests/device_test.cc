// Unit tests for the device model: eligibility algebra, device state,
// tier profiling (Algorithm 2 substrate).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "device/device.h"
#include "device/eligibility.h"
#include "device/fleet.h"
#include "device/tiering.h"
#include "util/rng.h"
#include "util/stats.h"

namespace venn {
namespace {

TEST(Requirement, EligibilityIsRectangular) {
  const Requirement r{0.5, 0.3};
  EXPECT_TRUE(r.eligible({0.5, 0.3}));
  EXPECT_TRUE(r.eligible({0.9, 0.9}));
  EXPECT_FALSE(r.eligible({0.49, 0.9}));
  EXPECT_FALSE(r.eligible({0.9, 0.29}));
}

TEST(Requirement, SubsetRelation) {
  const Requirement general{0.0, 0.0};
  const Requirement compute{0.5, 0.0};
  const Requirement memory{0.0, 0.5};
  const Requirement hp{0.5, 0.5};
  EXPECT_TRUE(hp.subset_of(compute));
  EXPECT_TRUE(hp.subset_of(memory));
  EXPECT_TRUE(hp.subset_of(general));
  EXPECT_TRUE(compute.subset_of(general));
  EXPECT_FALSE(general.subset_of(compute));
  EXPECT_FALSE(compute.subset_of(memory));
  EXPECT_TRUE(general.subset_of(general));
}

TEST(Categories, NestingMatchesFig8a) {
  // Every High-Perf device qualifies for all four categories; a General-only
  // device qualifies only for General.
  const DeviceSpec hp_dev{0.8, 0.8};
  const DeviceSpec low_dev{0.2, 0.2};
  for (ResourceCategory c : all_categories()) {
    EXPECT_TRUE(requirement_for(c).eligible(hp_dev)) << category_name(c);
  }
  EXPECT_TRUE(requirement_for(ResourceCategory::kGeneral).eligible(low_dev));
  EXPECT_FALSE(
      requirement_for(ResourceCategory::kComputeRich).eligible(low_dev));
  EXPECT_FALSE(
      requirement_for(ResourceCategory::kMemoryRich).eligible(low_dev));
  EXPECT_FALSE(requirement_for(ResourceCategory::kHighPerf).eligible(low_dev));
}

TEST(SignatureSpace, RegistersIdempotently) {
  SignatureSpace sigs;
  const auto a = sigs.register_requirement({0.5, 0.0});
  const auto b = sigs.register_requirement({0.0, 0.5});
  const auto c = sigs.register_requirement({0.5, 0.0});  // duplicate
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_EQ(sigs.size(), 2u);
}

TEST(SignatureSpace, SignatureBitsMatchEligibility) {
  SignatureSpace sigs;
  const auto g = sigs.register_requirement(requirement_for(ResourceCategory::kGeneral));
  const auto c = sigs.register_requirement(requirement_for(ResourceCategory::kComputeRich));
  const auto m = sigs.register_requirement(requirement_for(ResourceCategory::kMemoryRich));
  const auto h = sigs.register_requirement(requirement_for(ResourceCategory::kHighPerf));

  const auto sig_hp = sigs.signature_of({0.9, 0.9});
  EXPECT_EQ(sig_hp, (1ULL << g) | (1ULL << c) | (1ULL << m) | (1ULL << h));

  const auto sig_cpu = sigs.signature_of({0.9, 0.1});
  EXPECT_EQ(sig_cpu, (1ULL << g) | (1ULL << c));

  const auto sig_low = sigs.signature_of({0.1, 0.1});
  EXPECT_EQ(sig_low, (1ULL << g));
}

TEST(SignatureSpace, CapacityIsWeightedScore) {
  const DeviceSpec s{1.0, 0.0};
  EXPECT_DOUBLE_EQ(s.capacity(), 0.6);
  const DeviceSpec s2{0.0, 1.0};
  EXPECT_DOUBLE_EQ(s2.capacity(), 0.4);
}

TEST(Device, ValidatesSessions) {
  SessionColumn col;
  EXPECT_THROW(col.push_device(std::vector<Session>{{2.0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(col.push_device(std::vector<Session>{{0.0, 5.0}, {4.0, 8.0}}),
               std::invalid_argument);
  EXPECT_EQ(col.devices(), 0u);  // a rejected device is not appended
  // Valid: sorted, non-overlapping; touching sessions are fine.
  col.push_device(std::vector<Session>{{0.0, 5.0}, {6.0, 8.0}, {8.0, 9.0}});
  col.push_device({});
  ASSERT_EQ(col.devices(), 2u);
  EXPECT_EQ(col.of(0).size(), 3u);
  EXPECT_TRUE(col.of(1).empty());
  EXPECT_EQ(col.size(), 3u);
}

// The in-place phase shift (hier topology) moves each device's sessions by
// its own offset, drops those pushed to or past the horizon, and keeps the
// per-device slices consistent with shifting each device on its own.
TEST(Device, SessionColumnShiftsInPlace) {
  const SimTime horizon = 100.0;
  const std::vector<std::vector<Session>> traces{
      {{0.0, 10.0}, {20.0, 30.0}, {90.0, 95.0}},
      {},
      {{5.0, 6.0}, {70.0, 99.0}},
      {{-4.0, 1.0}, {95.0, 100.0}}};
  const std::vector<double> offsets{0.0, 7.0, 25.0, 4.5};
  SessionColumn col;
  for (const auto& ss : traces) col.push_device(ss);
  col.shift([&](std::size_t d) { return offsets[d]; }, horizon);
  ASSERT_EQ(col.devices(), traces.size());
  std::size_t total = 0;
  for (std::size_t d = 0; d < traces.size(); ++d) {
    std::vector<Session> expected;
    for (Session s : traces[d]) {
      s.start += offsets[d];
      s.end += offsets[d];
      if (s.start >= horizon) break;
      expected.push_back(s);
    }
    const auto got = col.of(d);
    ASSERT_EQ(got.size(), expected.size()) << "device " << d;
    for (std::size_t k = 0; k < expected.size(); ++k) {
      EXPECT_EQ(got[k].start, expected[k].start) << "device " << d;
      EXPECT_EQ(got[k].end, expected[k].end) << "device " << d;
    }
    total += expected.size();
  }
  EXPECT_EQ(col.size(), total);
}

// Copies share storage, but a write to one never shows in another: a run's
// copy of an experiment's column must not see a later builder's edits.
TEST(Device, SessionColumnCopiesShareUntilWritten) {
  SessionColumn original;
  original.push_device(std::vector<Session>{{0.0, 5.0}, {6.0, 8.0}});
  SessionColumn copy = original;
  EXPECT_EQ(copy.of(0).data(), original.of(0).data());  // shared storage
  copy.shift([](std::size_t) { return 1.0; }, 100.0);
  copy.push_device(std::vector<Session>{{1.0, 2.0}});
  ASSERT_EQ(original.devices(), 1u);
  EXPECT_EQ(original.of(0)[0].start, 0.0);
  EXPECT_EQ(original.of(0)[1].end, 8.0);
  ASSERT_EQ(copy.devices(), 2u);
  EXPECT_EQ(copy.of(0)[0].start, 1.0);
  SessionColumn moved = std::move(copy);  // a move is a copy
  EXPECT_EQ(copy.devices(), 2u);
  EXPECT_EQ(moved.devices(), 2u);
}

TEST(Device, SpeedIncreasesWithCapacity) {
  const DeviceSpec slow{0.0, 0.0};
  const DeviceSpec fast{1.0, 1.0};
  EXPECT_LT(speed(slow), speed(fast));
  EXPECT_NEAR(speed(slow), 0.12, 1e-9);
  EXPECT_NEAR(speed(fast), 1.0, 1e-9);
  // AI-Benchmark-scale spread: the fastest device is ~8x the slowest.
  EXPECT_NEAR(speed(fast) / speed(slow), 8.33, 0.1);
}

TEST(Device, ExecTimeScalesInverselyWithSpeed) {
  Rng rng(1);
  const DeviceSpec slow{0.0, 0.0};
  const DeviceSpec fast{1.0, 1.0};
  double slow_sum = 0.0, fast_sum = 0.0;
  for (int i = 0; i < 5000; ++i) {
    slow_sum += sample_exec_time(slow, 60.0, 0.3, rng);
    fast_sum += sample_exec_time(fast, 60.0, 0.3, rng);
  }
  EXPECT_NEAR(slow_sum / fast_sum, speed(fast) / speed(slow), 0.3);
}

TEST(Device, ExecTimeRejectsBadNominal) {
  Rng rng(1);
  EXPECT_THROW((void)sample_exec_time({0.5, 0.5}, 0.0, 0.3, rng),
               std::invalid_argument);
}

// A one-device fleet store: the budgets live in its participation column.
FleetHotState one_device_store() {
  FleetHotState hot;
  hot.init({DeviceSpec{0.5, 0.5}}, SessionColumn{});
  return hot;
}

TEST(Device, ParticipationOncePerDay) {
  FleetHotState hot = one_device_store();
  EXPECT_EQ(hot.participation_day[0], kNeverParticipated);
  EXPECT_FALSE(hot.participated_on_day(0, 0));
  hot.mark_participation(0, 0);
  EXPECT_EQ(hot.participation_day[0], 0);
  EXPECT_TRUE(hot.participated_on_day(0, 0));
  EXPECT_FALSE(hot.participated_on_day(0, 1));
  EXPECT_EQ(day_of(0.0), 0);
  EXPECT_EQ(day_of(kDay - 1.0), 0);
  EXPECT_EQ(day_of(kDay), 1);
}

TEST(Device, DayOfUsesFloorSemantics) {
  // Negative times (churn jitter can place a session start before t=0)
  // must land on day -1, not be folded onto day 0 by trunc-toward-zero —
  // otherwise a pre-horizon participation would consume the day-0 budget.
  EXPECT_EQ(day_of(-0.5), -1);
  EXPECT_EQ(day_of(-1.0), -1);
  EXPECT_EQ(day_of(-kDay + 1.0), -1);
  EXPECT_EQ(day_of(-kDay), -1);
  EXPECT_EQ(day_of(-kDay - 1.0), -2);
  // Exact day boundaries belong to the starting day, positive or negative.
  EXPECT_EQ(day_of(2.0 * kDay), 2);
  EXPECT_EQ(day_of(2.0 * kDay - 1.0), 1);
  EXPECT_EQ(day_of(7.0 * kDay), 7);
  EXPECT_EQ(day_of(-2.0 * kDay), -2);
}

TEST(Device, NegativeTimeBudgetIsDistinctFromDayZero) {
  // A device that participated on day -1 (a session jittered before t=0)
  // must still have its day-0 budget.
  FleetHotState hot = one_device_store();
  hot.mark_participation(0, day_of(-1.0));
  EXPECT_EQ(hot.participation_day[0], -1);
  EXPECT_TRUE(hot.participated_on_day(0, -1));
  EXPECT_FALSE(hot.participated_on_day(0, 0));
  // A refund for another day leaves the budget alone...
  hot.refund_participation(0, day_of(0.5));
  EXPECT_TRUE(hot.participated_on_day(0, -1));
  // ...and the refund of the charged day keys on the same floor day.
  hot.refund_participation(0, day_of(-0.5));
  EXPECT_FALSE(hot.participated_on_day(0, -1));
  EXPECT_EQ(hot.participation_day[0], kNeverParticipated);
}

TEST(TierProfile, NotReadyUntilEnoughSamples) {
  TierProfile p(3);
  EXPECT_FALSE(p.ready());
  for (int i = 0; i < 14; ++i) p.observe(0.5, 60.0);
  EXPECT_FALSE(p.ready());
  p.observe(0.5, 60.0);
  EXPECT_TRUE(p.ready());  // 5 per tier
}

TEST(TierProfile, ThresholdsAreQuantiles) {
  TierProfile p(2);
  for (int i = 0; i < 10; ++i) {
    p.observe(i < 5 ? 0.2 : 0.8, 60.0);
  }
  const auto th = p.thresholds();
  ASSERT_EQ(th.size(), 3u);
  EXPECT_DOUBLE_EQ(th.front(), 0.0);
  EXPECT_GT(th[1], 0.2);
  EXPECT_LE(th[1], 0.8);
  EXPECT_GT(th.back(), 1.0);
}

TEST(TierProfile, TierOfRespectsThresholds) {
  TierProfile p(2);
  for (int i = 0; i < 10; ++i) p.observe(i < 5 ? 0.2 : 0.8, 60.0);
  EXPECT_EQ(p.tier_of(0.1), 0u);
  EXPECT_EQ(p.tier_of(0.9), 1u);
}

TEST(TierProfile, FastTierHasSpeedupBelowOne) {
  TierProfile p(2);
  // Slow devices (low capacity): 200 s. Fast devices: 50 s.
  for (int i = 0; i < 20; ++i) {
    p.observe(0.2, 200.0);
    p.observe(0.8, 50.0);
  }
  EXPECT_LT(p.speedup(1), 1.0);  // fast tier beats the mixed tail
  EXPECT_GE(p.speedup(0), 1.0);  // slow tier is at or above it
}

TEST(TierProfile, SingleTierSpeedupIsOne) {
  TierProfile p(1);
  for (int i = 0; i < 10; ++i) p.observe(0.5, 60.0 + i);
  EXPECT_NEAR(p.speedup(0), 1.0, 1e-9);
}

TEST(TierProfile, SpeedupKnownAnswer) {
  // Two pinned tiers. All eight responses, sorted: 5 5 5 10 20 30 40 50;
  // the median sits between ranks 3 and 4: t0 = 15. The slow tier's
  // 10 20 30 40 gives 25, the fast tier's 5 5 5 50 gives 5.
  TierProfile p(2, 50.0);
  p.set_external_thresholds(std::vector<double>{0.0, 0.5, 1.0 + 1e-12});
  for (const double rt : {40.0, 10.0, 30.0, 20.0}) p.observe(0.1, rt);
  for (const double rt : {5.0, 50.0, 5.0, 5.0}) p.observe(0.6, rt);
  EXPECT_EQ(p.speedup(0), 25.0 / 15.0);
  EXPECT_EQ(p.speedup(1), 5.0 / 15.0);
}

TEST(TierProfile, SpeedupMatchesPercentileSelectAsObservationsArrive) {
  // Observations arrive between queries, so each query merges a new batch
  // into the sorted ones. Few distinct response times and capacities put
  // ties at every tail rank; every tier of every tier count is queried,
  // against percentile_select on copies of the tier's and all responses.
  Rng rng(17);
  std::size_t compared = 0;
  for (const double tail : {50.0, 90.0, 95.0, 100.0}) {
    for (std::size_t tiers = 1; tiers <= 4; ++tiers) {
      TierProfile p(tiers, tail);
      std::vector<double> th{0.0};
      for (std::size_t v = 1; v < tiers; ++v) {
        th.push_back(static_cast<double>(v) / static_cast<double>(tiers));
      }
      th.push_back(1.0 + 1e-12);
      p.set_external_thresholds(th);
      std::vector<double> caps;
      std::vector<double> rts;
      for (int batch = 0; batch < 30; ++batch) {
        const auto k = static_cast<int>(rng.uniform_int(1, 9));
        for (int i = 0; i < k; ++i) {
          const double cap =
              0.125 * static_cast<double>(rng.uniform_int(0, 7)) + 0.05;
          const double rt = 10.0 * static_cast<double>(rng.uniform_int(1, 6));
          p.observe(cap, rt);
          caps.push_back(cap);
          rts.push_back(rt);
        }
        for (std::size_t v = 0; v < tiers; ++v) {
          std::vector<double> in_tier;
          for (std::size_t i = 0; i < caps.size(); ++i) {
            if (caps[i] >= th[v] && caps[i] < th[v + 1]) {
              in_tier.push_back(rts[i]);
            }
          }
          double want = 1.0;
          if (!in_tier.empty()) {
            std::vector<double> all = rts;
            const double t0 = percentile_select(all, tail);
            if (t0 > 0.0) want = percentile_select(in_tier, tail) / t0;
          }
          ASSERT_EQ(p.speedup(v), want)
              << "tail " << tail << " tiers " << tiers << " tier " << v
              << " after " << caps.size() << " observations";
          ++compared;
        }
      }
    }
  }
  EXPECT_GT(compared, 250u);
}

TEST(TierProfile, RejectsBadConfig) {
  EXPECT_THROW(TierProfile(0), std::invalid_argument);
  EXPECT_THROW(TierProfile(3, 0.0), std::invalid_argument);
  EXPECT_THROW(TierProfile(3, 101.0), std::invalid_argument);
}

TEST(TierProfile, SpeedupOutOfRangeThrows) {
  TierProfile p(2);
  for (int i = 0; i < 10; ++i) p.observe(0.5, 60.0);
  EXPECT_THROW((void)p.speedup(2), std::out_of_range);
}

TEST(TieringCondition, MatchesAlgorithm2Line7) {
  // V + g*c < 1 + c.
  EXPECT_TRUE(tiering_beneficial(3, 0.3, 5.0));   // 3 + 1.5 < 6
  EXPECT_FALSE(tiering_beneficial(3, 0.3, 2.0));  // 3 + 0.6 >= 3
  EXPECT_FALSE(tiering_beneficial(3, 1.2, 100.0));  // slow tier never helps
  // V = 1 is a no-op: 1 + g*c < 1 + c iff g < 1.
  EXPECT_TRUE(tiering_beneficial(1, 0.9, 1.0));
  EXPECT_FALSE(tiering_beneficial(1, 1.0, 1.0));
}

// Property sweep over tier counts: thresholds are monotone and tier_of is
// consistent with them for any profiled distribution.
class TierCountTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TierCountTest, ThresholdsMonotoneAndConsistent) {
  const std::size_t tiers = GetParam();
  TierProfile p(tiers);
  Rng rng(static_cast<std::uint64_t>(tiers));
  for (int i = 0; i < 200; ++i) {
    const double cap = rng.uniform();
    p.observe(cap, 30.0 + 120.0 * (1.0 - cap));
  }
  const auto th = p.thresholds();
  ASSERT_EQ(th.size(), tiers + 1);
  for (std::size_t i = 1; i < th.size(); ++i) EXPECT_GE(th[i], th[i - 1]);
  for (double cap : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    const std::size_t v = p.tier_of(cap);
    EXPECT_LT(v, tiers);
    EXPECT_GE(cap, th[v]);
    EXPECT_LT(cap, th[v + 1]);
  }
}

INSTANTIATE_TEST_SUITE_P(Tiers, TierCountTest, ::testing::Values(1, 2, 3, 4, 8));

}  // namespace
}  // namespace venn
