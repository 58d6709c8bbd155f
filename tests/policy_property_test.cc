// Cross-policy property tests: invariants that must hold for EVERY policy
// on randomized end-to-end instances, plus Venn-vs-exact validation on tiny
// deterministic instances.
#include <gtest/gtest.h>

#include "ilp/exact.h"
#include "venn/venn.h"

namespace venn {
namespace {

const std::vector<std::string> kAllPolicies{
    "random", "fifo", "srsf", "venn", "venn-nosched", "venn-nomatch"};

class PolicyPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(PolicyPropertyTest, EndToEndInvariants) {
  const auto [policy, seed] = GetParam();
  ScenarioSpec sc;
  sc.seed = static_cast<std::uint64_t>(seed);
  sc.num_devices = 900;
  sc.num_jobs = 8;
  sc.horizon = 12.0 * kDay;
  sc.job_trace.min_rounds = 2;
  sc.job_trace.max_rounds = 6;
  sc.job_trace.min_demand = 3;
  sc.job_trace.max_demand = 15;

  const RunResult r = ExperimentBuilder().scenario(sc).policy(policy).run();

  // (1) Census: every job appears exactly once, JCTs positive & censored.
  ASSERT_EQ(r.jobs.size(), sc.num_jobs);
  for (const auto& j : r.jobs) {
    EXPECT_GT(j.jct, 0.0);
    EXPECT_LE(j.jct, sc.horizon);
    // (2) Rounds never exceed the spec; stats match completions.
    EXPECT_LE(j.completed_rounds, j.spec.rounds);
    EXPECT_EQ(static_cast<int>(j.rounds.size()), j.completed_rounds);
    // (3) Per-round metrics are physical.
    for (const auto& round : j.rounds) {
      EXPECT_GE(round.scheduling_delay, -1e-9);
      EXPECT_GE(round.response_collection, -1e-9);
      EXPECT_LE(round.response_collection, j.spec.deadline_s + 1e-6);
    }
    // (4) Finished <=> all rounds done.
    EXPECT_EQ(j.finished, j.completed_rounds == j.spec.rounds);
  }

  // (5) Assignment matrix only counts eligible pairings: a device region
  // must satisfy the job category (nesting: HP devices serve anything;
  // G-only devices serve only General jobs).
  for (int region = 0; region < kNumCategories; ++region) {
    for (int cat = 0; cat < kNumCategories; ++cat) {
      if (r.assignment_matrix[region][cat] == 0) continue;
      const DeviceSpec probe = [&] {
        switch (static_cast<ResourceCategory>(region)) {
          case ResourceCategory::kGeneral:
            return DeviceSpec{0.1, 0.1};
          case ResourceCategory::kComputeRich:
            return DeviceSpec{0.9, 0.1};
          case ResourceCategory::kMemoryRich:
            return DeviceSpec{0.1, 0.9};
          case ResourceCategory::kHighPerf:
            return DeviceSpec{0.9, 0.9};
        }
        return DeviceSpec{};
      }();
      EXPECT_TRUE(requirement_for(static_cast<ResourceCategory>(cat))
                      .eligible(probe))
          << "region " << region << " served category " << cat;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PolicyPropertyTest,
    ::testing::Combine(::testing::ValuesIn(kAllPolicies),
                       ::testing::Values(1, 2, 3)));

// Venn's IRS ordering on single-round toy instances should sit between SRSF
// and the exact optimum on instances with a scarce/flexible structure.
class ToyOptimalityTest : public ::testing::TestWithParam<int> {};

TEST_P(ToyOptimalityTest, VennOrderNearOptimal) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  // Two groups: flexible jobs (eligible: all devices) and scarce jobs
  // (eligible: ~40% of devices). Single-round demands 2-4.
  const int n_flex = 1 + static_cast<int>(rng.index(2));
  const int n_scarce = 1 + static_cast<int>(rng.index(2));
  std::vector<ilp::ToyJob> jobs;
  std::uint64_t flex_mask = 0, scarce_mask = 0;
  for (int i = 0; i < n_flex; ++i) {
    flex_mask |= (1ULL << jobs.size());
    jobs.push_back({2 + static_cast<int>(rng.index(3))});
  }
  for (int i = 0; i < n_scarce; ++i) {
    scarce_mask |= (1ULL << jobs.size());
    jobs.push_back({2 + static_cast<int>(rng.index(3))});
  }
  int total = 0;
  for (const auto& j : jobs) total += j.demand;

  std::vector<ilp::ToyDevice> devices;
  const int n_devices = total * 3;
  for (int i = 0; i < n_devices; ++i) {
    const bool scarce_capable = rng.bernoulli(0.4) || i >= n_devices - total;
    devices.push_back({static_cast<SimTime>(i + 1),
                       scarce_capable ? (flex_mask | scarce_mask)
                                      : flex_mask});
  }

  const auto opt = ilp::solve_optimal(jobs, devices);
  // Venn-IRS style priority: scarce group first (it is the scarce-supply
  // group), smallest remaining within group.
  const auto venn = ilp::evaluate_policy(
      jobs, devices, [&](std::size_t j, int rem) {
        const bool scarce = ((scarce_mask >> j) & 1ULL) != 0;
        return (scarce ? 0.0 : 1000.0) + static_cast<double>(rem);
      });
  const auto srsf = ilp::evaluate_policy(jobs, devices,
                                         [](std::size_t, int rem) {
                                           return static_cast<double>(rem);
                                         });

  EXPECT_LE(opt.avg_completion, venn.avg_completion + 1e-9);
  // Venn must be within 50% of optimal on these structured instances and
  // never catastrophically worse than SRSF.
  EXPECT_LE(venn.avg_completion, 1.5 * opt.avg_completion + 1e-9);
  EXPECT_LE(venn.avg_completion, 1.5 * srsf.avg_completion + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ToyOptimalityTest, ::testing::Range(1, 16));

// Determinism across policies: the input traces must be identical
// regardless of which policy later consumes them.
TEST(PolicyProperty, InputsIndependentOfPolicy) {
  ScenarioSpec sc;
  sc.seed = 9;
  sc.num_devices = 100;
  sc.num_jobs = 5;
  const ExperimentInputs a = api::build_inputs(sc);
  const ExperimentInputs b = api::build_inputs(sc);
  ASSERT_EQ(a.devices.size(), b.devices.size());
  for (std::size_t i = 0; i < a.devices.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.devices[i].cpu_score, b.devices[i].cpu_score);
  }
  ASSERT_EQ(a.sessions.devices(), b.sessions.devices());
  for (std::size_t i = 0; i < a.sessions.devices(); ++i) {
    ASSERT_EQ(a.sessions.of(i).size(), b.sessions.of(i).size());
  }
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].rounds, b.jobs[i].rounds);
    EXPECT_EQ(a.jobs[i].demand, b.jobs[i].demand);
    EXPECT_DOUBLE_EQ(a.jobs[i].arrival, b.jobs[i].arrival);
  }
}

TEST(PolicyProperty, RegistryNamesRoundTrip) {
  auto& reg = PolicyRegistry::instance();
  for (const std::string& name : kAllPolicies) {
    EXPECT_TRUE(reg.contains(name)) << name;
  }
  // The registry produces schedulers whose display names match the paper's.
  EXPECT_EQ(reg.create("srsf", {}, 1)->name(), "SRSF");
  EXPECT_EQ(reg.create("venn", {}, 1)->name(), "Venn");
  EXPECT_EQ(reg.create("venn-nosched", {}, 1)->name(), "Venn w/o sched");
  EXPECT_EQ(reg.create("venn-nomatch", {}, 1)->name(), "Venn w/o match");
}

}  // namespace
}  // namespace venn
