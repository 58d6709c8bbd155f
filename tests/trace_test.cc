// Unit tests for the trace generators (availability, hardware, job trace).
#include <gtest/gtest.h>

#include <algorithm>

#include "trace/availability.h"
#include "trace/hardware.h"
#include "trace/job_trace.h"

namespace venn::trace {
namespace {

TEST(Availability, SessionsSortedNonOverlappingWithinHorizon) {
  AvailabilityConfig cfg;
  Rng rng(1);
  for (int rep = 0; rep < 50; ++rep) {
    const auto sessions = generate_sessions(cfg, rng);
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      EXPECT_LT(sessions[i].start, sessions[i].end);
      EXPECT_GE(sessions[i].start, 0.0);
      EXPECT_LE(sessions[i].end, cfg.horizon);
      if (i > 0) {
        EXPECT_GE(sessions[i].start, sessions[i - 1].end);
      }
    }
  }
}

TEST(Availability, RoughlyOneSessionPerDay) {
  AvailabilityConfig cfg;
  Rng rng(2);
  double total_sessions = 0.0;
  const int reps = 200;
  for (int rep = 0; rep < reps; ++rep) {
    total_sessions += static_cast<double>(generate_sessions(cfg, rng).size());
  }
  const double per_day = total_sessions / reps / (cfg.horizon / kDay);
  EXPECT_GT(per_day, 0.6);
  EXPECT_LT(per_day, 1.5);
}

TEST(Availability, CurveShowsDiurnalOscillation) {
  // Build a small population and verify the availability fraction
  // oscillates with a ~24 h period (Fig. 2a shape): the peak-hour fraction
  // should exceed the trough fraction substantially.
  AvailabilityConfig cfg;
  cfg.horizon = 4 * kDay;
  Rng rng(3);
  HardwareConfig hw;
  SessionColumn sessions;
  for (int i = 0; i < 400; ++i) {
    sessions.push_device(generate_sessions(cfg, rng));
    (void)sample_spec(hw, rng);
  }
  const auto curve = availability_curve(sessions, cfg.horizon, kHour);
  ASSERT_FALSE(curve.empty());
  double peak = 0.0, trough = 1.0;
  for (const auto& pt : curve) {
    peak = std::max(peak, pt.fraction_online);
    trough = std::min(trough, pt.fraction_online);
  }
  EXPECT_GT(peak, 0.25);        // sizable fraction online at peak
  EXPECT_LT(trough, peak / 2);  // clear diurnal swing
}

TEST(Availability, EmptyPopulationYieldsEmptyCurve) {
  EXPECT_TRUE(availability_curve(SessionColumn{}, kDay, kHour).empty());
}

TEST(Availability, NonPositiveStepYieldsEmptyCurve) {
  SessionColumn devices;
  devices.push_device(std::vector<Session>{{0.0, kHour}});
  EXPECT_TRUE(availability_curve(devices, kDay, 0.0).empty());
  EXPECT_TRUE(availability_curve(devices, kDay, -kHour).empty());
}

TEST(Availability, ZeroLengthHorizonSamplesOnlyT0) {
  SessionColumn devices;
  devices.push_device(std::vector<Session>{{0.0, kHour}});
  const auto curve = availability_curve(devices, 0.0, kHour);
  ASSERT_EQ(curve.size(), 1u);
  EXPECT_DOUBLE_EQ(curve[0].t, 0.0);
  EXPECT_DOUBLE_EQ(curve[0].fraction_online, 1.0);  // session covers t=0
}

TEST(Availability, StepLargerThanHorizonSamplesOnlyT0) {
  SessionColumn devices;
  devices.push_device(std::vector<Session>{{kHour, 2 * kHour}});
  const auto curve = availability_curve(devices, kDay, 10 * kDay);
  ASSERT_EQ(curve.size(), 1u);
  EXPECT_DOUBLE_EQ(curve[0].t, 0.0);
  EXPECT_DOUBLE_EQ(curve[0].fraction_online, 0.0);  // offline at t=0
}

TEST(Availability, CurveFractionsStayInUnitInterval) {
  AvailabilityConfig cfg;
  cfg.horizon = 2 * kDay;
  Rng rng(21);
  SessionColumn devices;
  for (int i = 0; i < 50; ++i) devices.push_device(generate_sessions(cfg, rng));
  for (const auto& pt : availability_curve(devices, cfg.horizon, kHour)) {
    EXPECT_GE(pt.fraction_online, 0.0);
    EXPECT_LE(pt.fraction_online, 1.0);
  }
}

TEST(Hardware, SpecsAreClampedToUnitSquare) {
  HardwareConfig cfg;
  Rng rng(4);
  for (int i = 0; i < 2000; ++i) {
    const DeviceSpec s = sample_spec(cfg, rng);
    EXPECT_GE(s.cpu_score, 0.0);
    EXPECT_LE(s.cpu_score, 1.0);
    EXPECT_GE(s.mem_score, 0.0);
    EXPECT_LE(s.mem_score, 1.0);
  }
}

TEST(Hardware, CategorySharesAreNestedAndScarce) {
  HardwareConfig cfg;
  Rng rng(5);
  const auto shares = category_shares(cfg, 20000, rng);
  const double general = shares[static_cast<int>(ResourceCategory::kGeneral)];
  const double compute = shares[static_cast<int>(ResourceCategory::kComputeRich)];
  const double memory = shares[static_cast<int>(ResourceCategory::kMemoryRich)];
  const double hp = shares[static_cast<int>(ResourceCategory::kHighPerf)];
  EXPECT_DOUBLE_EQ(general, 1.0);  // everyone qualifies for General
  // Nesting: High-Perf ⊂ Compute-Rich and ⊂ Memory-Rich.
  EXPECT_LE(hp, compute);
  EXPECT_LE(hp, memory);
  // Scarcity: richer categories are genuinely scarcer than General.
  EXPECT_LT(compute, 0.7);
  EXPECT_LT(memory, 0.7);
  EXPECT_GT(hp, 0.05);
  EXPECT_LT(hp, 0.5);
}

TEST(Hardware, RejectsEmptyClusterList) {
  HardwareConfig cfg;
  cfg.clusters.clear();
  Rng rng(6);
  EXPECT_THROW((void)sample_spec(cfg, rng), std::invalid_argument);
}

TEST(JobTrace, BaseTraceRespectsRanges) {
  JobTraceConfig cfg;
  Rng rng(7);
  const auto base = generate_base_trace(cfg, rng);
  EXPECT_EQ(base.size(), cfg.base_trace_size);
  for (const auto& j : base) {
    EXPECT_GE(j.rounds, cfg.min_rounds);
    EXPECT_LE(j.rounds, cfg.max_rounds);
    EXPECT_GE(j.demand, cfg.min_demand);
    EXPECT_LE(j.demand, cfg.max_demand);
    EXPECT_GE(j.deadline_s, 5.0 * kMinute - 1e-9);
    EXPECT_LE(j.deadline_s, 15.0 * kMinute + 1e-9);
  }
}

TEST(JobTrace, DeadlineRuleScalesWithDemand) {
  JobSpec small, large;
  small.demand = 1;
  large.demand = 1500;
  EXPECT_LT(small.deadline_rule(1500), large.deadline_rule(1500));
  EXPECT_NEAR(large.deadline_rule(1500), 15.0 * kMinute, 1e-6);
  EXPECT_NEAR(small.deadline_rule(1500), 5.0 * kMinute, 5.0);
}

TEST(JobTrace, WorkloadFiltersMatchDefinition) {
  JobTraceConfig cfg;
  Rng rng(8);
  const auto base = generate_base_trace(cfg, rng);
  double avg_total = 0.0, avg_demand = 0.0;
  for (const auto& j : base) {
    avg_total += j.total_demand();
    avg_demand += j.demand;
  }
  avg_total /= static_cast<double>(base.size());
  avg_demand /= static_cast<double>(base.size());

  const auto small = sample_workload(base, Workload::kSmall, 100, cfg, rng);
  for (const auto& j : small) EXPECT_LT(j.total_demand(), avg_total);
  const auto large = sample_workload(base, Workload::kLarge, 100, cfg, rng);
  for (const auto& j : large) EXPECT_GE(j.total_demand(), avg_total);
  const auto low = sample_workload(base, Workload::kLow, 100, cfg, rng);
  for (const auto& j : low) EXPECT_LT(j.demand, avg_demand);
  const auto high = sample_workload(base, Workload::kHigh, 100, cfg, rng);
  for (const auto& j : high) EXPECT_GE(j.demand, avg_demand);
}

TEST(JobTrace, ArrivalsArePoissonOrdered) {
  JobTraceConfig cfg;
  Rng rng(9);
  const auto base = generate_base_trace(cfg, rng);
  const auto jobs = sample_workload(base, Workload::kEven, 200, cfg, rng);
  double prev = -1.0;
  double total_gap = 0.0;
  for (const auto& j : jobs) {
    EXPECT_GT(j.arrival, prev);
    if (prev >= 0.0) total_gap += j.arrival - prev;
    prev = j.arrival;
  }
  const double mean_gap = total_gap / static_cast<double>(jobs.size() - 1);
  EXPECT_NEAR(mean_gap, cfg.mean_interarrival, cfg.mean_interarrival * 0.3);
}

TEST(JobTrace, CategoryWeightsRespected) {
  JobTraceConfig cfg;
  cfg.category_weights = {1.0, 0.0, 0.0, 0.0};
  Rng rng(10);
  const auto base = generate_base_trace(cfg, rng);
  const auto jobs = sample_workload(base, Workload::kEven, 50, cfg, rng);
  for (const auto& j : jobs) {
    EXPECT_EQ(j.category, ResourceCategory::kGeneral);
  }
}

TEST(JobTrace, BiasAssignsHalfToHeavyCategory) {
  JobTraceConfig cfg;
  Rng rng(11);
  const auto base = generate_base_trace(cfg, rng);
  for (BiasedWorkload bias : all_biased_workloads()) {
    auto jobs = sample_workload(base, Workload::kEven, 40, cfg, rng);
    apply_bias(jobs, bias, rng);
    std::array<int, kNumCategories> counts{};
    for (const auto& j : jobs) ++counts[static_cast<int>(j.category)];
    const ResourceCategory heavy = [&] {
      switch (bias) {
        case BiasedWorkload::kGeneral:
          return ResourceCategory::kGeneral;
        case BiasedWorkload::kComputeHeavy:
          return ResourceCategory::kComputeRich;
        case BiasedWorkload::kMemoryHeavy:
          return ResourceCategory::kMemoryRich;
        case BiasedWorkload::kResourceHeavy:
          return ResourceCategory::kHighPerf;
      }
      return ResourceCategory::kGeneral;
    }();
    EXPECT_EQ(counts[static_cast<int>(heavy)], 20) << biased_workload_name(bias);
    for (ResourceCategory c : all_categories()) {
      if (c != heavy) {
        EXPECT_NEAR(counts[static_cast<int>(c)], 20 / 3.0, 1.0)
            << biased_workload_name(bias) << " " << category_name(c);
      }
    }
  }
}

TEST(JobTrace, EmptyBaseThrows) {
  JobTraceConfig cfg;
  Rng rng(12);
  EXPECT_THROW((void)sample_workload({}, Workload::kEven, 5, cfg, rng),
               std::invalid_argument);
}

TEST(JobTrace, NamesAreStable) {
  EXPECT_EQ(workload_name(Workload::kEven), "Even");
  EXPECT_EQ(workload_name(Workload::kHigh), "High");
  EXPECT_EQ(biased_workload_name(BiasedWorkload::kResourceHeavy),
            "Resource-heavy");
  EXPECT_EQ(all_workloads().size(), 5u);
  EXPECT_EQ(all_biased_workloads().size(), 4u);
}

// Property sweep: every workload sampler produces the requested number of
// jobs with valid fields, for several sample sizes.
class WorkloadSizeTest
    : public ::testing::TestWithParam<std::tuple<Workload, std::size_t>> {};

TEST_P(WorkloadSizeTest, ProducesValidJobs) {
  const auto [w, n] = GetParam();
  JobTraceConfig cfg;
  Rng rng(13);
  const auto base = generate_base_trace(cfg, rng);
  const auto jobs = sample_workload(base, w, n, cfg, rng);
  EXPECT_EQ(jobs.size(), n);
  for (const auto& j : jobs) {
    EXPECT_GT(j.rounds, 0);
    EXPECT_GT(j.demand, 0);
    EXPECT_GE(j.arrival, 0.0);
    EXPECT_GT(j.nominal_task_s, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WorkloadSizeTest,
    ::testing::Combine(::testing::Values(Workload::kEven, Workload::kSmall,
                                         Workload::kLarge, Workload::kLow,
                                         Workload::kHigh),
                       ::testing::Values(1u, 25u, 75u)));

}  // namespace
}  // namespace venn::trace
