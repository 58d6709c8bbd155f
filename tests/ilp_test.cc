// Unit tests for the exact solver (Appendix B role) including the Fig. 3
// toy example: Random/SRSF waste scarce Emoji devices on the Keyboard job;
// the optimal schedule reserves them.
#include <gtest/gtest.h>

#include <algorithm>

#include "ilp/exact.h"
#include "scheduler/irs.h"
#include "util/rng.h"

namespace venn::ilp {
namespace {

// Fig. 3 instance: Keyboard job (bit 0, demand 3, all devices eligible) and
// two Emoji jobs (bits 1-2, demand 4 each, only "blue" devices eligible).
// Devices check in one per time unit; every other device is blue.
struct Fig3 {
  std::vector<ToyJob> jobs{{3}, {4}, {4}};
  std::vector<ToyDevice> devices;
  Fig3() {
    for (int t = 1; t <= 18; ++t) {
      const bool blue = (t % 2 == 0);
      // Keyboard (job 0) accepts all; Emoji jobs (1, 2) accept blue only.
      devices.push_back(
          {static_cast<SimTime>(t),
           blue ? 0b111ULL : 0b001ULL});
    }
  }
};

TEST(Exact, Fig3OptimalBeatsSrsfBeatsNothing) {
  Fig3 f;
  const auto opt = solve_optimal(f.jobs, f.devices);

  // SRSF: smallest remaining demand first.
  const auto srsf = evaluate_policy(f.jobs, f.devices,
                                    [](std::size_t, int rem) {
                                      return static_cast<double>(rem);
                                    });
  // FIFO: job index order (all arrive together; index = submission order).
  const auto fifo = evaluate_policy(f.jobs, f.devices,
                                    [](std::size_t j, int) {
                                      return static_cast<double>(j);
                                    });

  EXPECT_LE(opt.avg_completion, srsf.avg_completion);
  EXPECT_LE(opt.avg_completion, fifo.avg_completion);
  // The paper's toy numbers: optimal ≈ 9.3 vs SRSF = 11. Our device stream
  // (alternating eligibility) reproduces the same ordering with the optimal
  // strictly better.
  EXPECT_LT(opt.avg_completion, srsf.avg_completion);
}

TEST(Exact, Fig3OptimalReservesScarceDevices) {
  Fig3 f;
  const auto opt = solve_optimal(f.jobs, f.devices);
  // In the optimal schedule the Keyboard job must not consume blue devices
  // needed by the Emoji jobs before both Emoji jobs are fully served.
  int keyboard_blue = 0;
  for (std::size_t d = 0; d < f.devices.size(); ++d) {
    const bool blue = (f.devices[d].eligible & 0b110ULL) != 0;
    if (blue && opt.assignment[d] == 0 &&
        f.devices[d].arrival <= 16.0) {
      ++keyboard_blue;
    }
  }
  EXPECT_EQ(keyboard_blue, 0);
}

TEST(Exact, CompletionTimesMatchAssignment) {
  Fig3 f;
  const auto opt = solve_optimal(f.jobs, f.devices);
  // Each job's completion equals the arrival of its last assigned device.
  std::vector<SimTime> last(f.jobs.size(), 0.0);
  std::vector<int> count(f.jobs.size(), 0);
  for (std::size_t d = 0; d < f.devices.size(); ++d) {
    const int j = opt.assignment[d];
    if (j >= 0) {
      last[j] = std::max(last[j], f.devices[d].arrival);
      ++count[j];
    }
  }
  for (std::size_t j = 0; j < f.jobs.size(); ++j) {
    EXPECT_EQ(count[j], f.jobs[j].demand);
    EXPECT_DOUBLE_EQ(last[j], opt.completion[j]);
  }
  double sum = 0.0;
  for (double c : opt.completion) sum += c;
  EXPECT_NEAR(opt.avg_completion, sum / f.jobs.size(), 1e-9);
}

TEST(Exact, SingleJobTakesEarliestDevices) {
  std::vector<ToyJob> jobs{{2}};
  std::vector<ToyDevice> devices{{1.0, 1}, {2.0, 1}, {3.0, 1}};
  const auto r = solve_optimal(jobs, devices);
  EXPECT_DOUBLE_EQ(r.avg_completion, 2.0);
  EXPECT_EQ(r.assignment[0], 0);
  EXPECT_EQ(r.assignment[1], 0);
  EXPECT_EQ(r.assignment[2], -1);
}

TEST(Exact, InfeasibleThrows) {
  std::vector<ToyJob> jobs{{2}};
  std::vector<ToyDevice> devices{{1.0, 0}};  // not eligible
  EXPECT_THROW((void)solve_optimal(jobs, devices), std::runtime_error);
}

TEST(Exact, ValidatesInput) {
  EXPECT_THROW((void)solve_optimal({}, {}), std::invalid_argument);
  std::vector<ToyJob> too_many(17, ToyJob{1});
  EXPECT_THROW((void)solve_optimal(too_many, {}), std::invalid_argument);
  std::vector<ToyJob> jobs{{1}};
  std::vector<ToyDevice> unsorted{{2.0, 1}, {1.0, 1}};
  EXPECT_THROW((void)solve_optimal(jobs, unsorted), std::invalid_argument);
  std::vector<ToyJob> bad_demand{{300}};
  EXPECT_THROW((void)solve_optimal(bad_demand, {}), std::invalid_argument);
}

TEST(EvaluatePolicy, UnfinishedJobThrows) {
  std::vector<ToyJob> jobs{{2}};
  std::vector<ToyDevice> devices{{1.0, 1}};
  EXPECT_THROW((void)evaluate_policy(jobs, devices,
                                     [](std::size_t, int) { return 0.0; }),
               std::runtime_error);
}

TEST(EvaluatePolicy, SkipsIneligibleDevices) {
  std::vector<ToyJob> jobs{{1}};
  std::vector<ToyDevice> devices{{1.0, 0}, {2.0, 1}};
  const auto r = evaluate_policy(jobs, devices,
                                 [](std::size_t, int) { return 0.0; });
  EXPECT_EQ(r.assignment[0], -1);
  EXPECT_EQ(r.assignment[1], 0);
  EXPECT_DOUBLE_EQ(r.avg_completion, 2.0);
}

// Property: on random instances, the exact optimum never exceeds any greedy
// policy's average completion time.
class OptimalityGapTest : public ::testing::TestWithParam<int> {};

TEST_P(OptimalityGapTest, OptimalLowerBoundsGreedy) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n_jobs = 2 + rng.index(2);  // 2-3 jobs
  std::vector<ToyJob> jobs;
  int total_demand = 0;
  for (std::size_t j = 0; j < n_jobs; ++j) {
    const int d = 1 + static_cast<int>(rng.index(3));
    jobs.push_back({d});
    total_demand += d;
  }
  // Enough devices that every greedy policy completes: give the tail full
  // eligibility.
  std::vector<ToyDevice> devices;
  const int n_devices = total_demand * 3;
  for (int i = 0; i < n_devices; ++i) {
    std::uint64_t elig = 0;
    for (std::size_t j = 0; j < n_jobs; ++j) {
      if (rng.bernoulli(0.6)) elig |= (1ULL << j);
    }
    if (i >= n_devices - total_demand) elig = (1ULL << n_jobs) - 1;
    devices.push_back({static_cast<SimTime>(i + 1), elig});
  }

  const auto opt = solve_optimal(jobs, devices);
  const auto srsf = evaluate_policy(jobs, devices, [](std::size_t, int rem) {
    return static_cast<double>(rem);
  });
  const auto fifo = evaluate_policy(jobs, devices, [](std::size_t j, int) {
    return static_cast<double>(j);
  });
  EXPECT_LE(opt.avg_completion, srsf.avg_completion + 1e-9);
  EXPECT_LE(opt.avg_completion, fifo.avg_completion + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimalityGapTest, ::testing::Range(1, 21));

// ---- IRS-vs-exact differential property tests ---------------------------
//
// Drive the actual IRS planner (scheduler/irs.h, Algorithm 1) against the
// exact solver on seed-swept toy instances small enough to solve optimally
// (<= 8 devices, <= 3 jobs): each job is its own group, each distinct
// device eligibility signature an atom whose rate is its device count.
// Asserts the paper's quality story — IRS sits within a constant factor of
// the ILP optimum on scarce/flexible structures (Fig. 3 regime, where
// plain SRSF loses by wasting scarce devices) — and that the plan's
// allocations are deterministic under permutation of every input span.

struct IrsToyOutcome {
  std::vector<SimTime> completion;  // per job
  std::vector<int> assignment;      // device -> job, -1 unused
  double avg = 0.0;
  bool feasible = true;
};

// Devices in arrival order; each goes to the first group in the IRS
// plan's per-signature service order that still has remaining demand.
IrsToyOutcome evaluate_irs_plan(const std::vector<ToyJob>& jobs,
                                const std::vector<ToyDevice>& devices,
                                const venn::IrsPlan& plan) {
  IrsToyOutcome out;
  out.completion.assign(jobs.size(), 0.0);
  out.assignment.assign(devices.size(), -1);
  std::vector<int> remaining;
  remaining.reserve(jobs.size());
  for (const auto& j : jobs) remaining.push_back(j.demand);
  std::vector<std::size_t> scratch;
  for (std::size_t d = 0; d < devices.size(); ++d) {
    for (const std::size_t g : plan.order_for(devices[d].eligible, scratch)) {
      if (remaining[g] <= 0) continue;
      --remaining[g];
      out.assignment[d] = static_cast<int>(g);
      out.completion[g] = std::max(out.completion[g], devices[d].arrival);
      break;
    }
  }
  double sum = 0.0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    out.feasible = out.feasible && remaining[j] == 0;
    sum += out.completion[j];
  }
  out.avg = sum / static_cast<double>(jobs.size());
  return out;
}

venn::IrsPlan plan_for(const std::vector<ToyJob>& jobs,
                       const std::vector<ToyDevice>& devices,
                       std::span<const std::size_t> group_order,
                       std::span<const std::size_t> atom_order) {
  // Atoms: distinct signatures weighted by device count (the arrival-rate
  // proxy on a unit-span instance).
  std::vector<venn::AtomSupply> atoms;
  for (const auto& d : devices) {
    auto it = std::find_if(
        atoms.begin(), atoms.end(),
        [&](const venn::AtomSupply& a) { return a.signature == d.eligible; });
    if (it == atoms.end()) {
      atoms.push_back({d.eligible, 1.0});
    } else {
      it->rate += 1.0;
    }
  }
  std::vector<venn::AtomSupply> atoms_permuted;
  for (const std::size_t i : atom_order) {
    if (i < atoms.size()) atoms_permuted.push_back(atoms[i]);
  }
  for (std::size_t i = atom_order.size(); i < atoms.size(); ++i) {
    atoms_permuted.push_back(atoms[i]);
  }
  std::vector<venn::GroupInput> groups;
  for (const std::size_t j : group_order) {
    groups.push_back({j, static_cast<double>(jobs[j].demand)});
  }
  return venn::compute_irs_plan(groups, atoms_permuted);
}

class IrsDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(IrsDifferentialTest, IrsWithinBoundOfExactAndPermutationInvariant) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  // 2-3 jobs: one flexible group everyone serves, the rest scarce.
  const std::size_t n_jobs = 2 + rng.index(2);
  std::vector<ToyJob> jobs;
  int total_demand = 0;
  for (std::size_t j = 0; j < n_jobs; ++j) {
    const int d = 1 + static_cast<int>(rng.index(2));
    jobs.push_back({d});
    total_demand += d;
  }
  // <= 8 devices, one per time unit; ~45% are scarce-capable, and the tail
  // is fully eligible so every policy can finish.
  const int n_devices =
      std::min(8, total_demand + 2 + static_cast<int>(rng.index(3)));
  ASSERT_LE(total_demand, n_devices);
  const std::uint64_t all_mask = (1ULL << n_jobs) - 1;
  std::vector<ToyDevice> devices;
  for (int i = 0; i < n_devices; ++i) {
    const bool capable = rng.bernoulli(0.45) || i >= n_devices - total_demand;
    devices.push_back(
        {static_cast<SimTime>(i + 1), capable ? all_mask : 0b001ULL});
  }

  const auto opt = solve_optimal(jobs, devices);

  std::vector<std::size_t> group_order, atom_order;
  for (std::size_t j = 0; j < n_jobs; ++j) group_order.push_back(j);
  for (std::size_t a = 0; a < devices.size(); ++a) atom_order.push_back(a);
  const auto base_plan = plan_for(jobs, devices, group_order, atom_order);
  const auto irs = evaluate_irs_plan(jobs, devices, base_plan);

  ASSERT_TRUE(irs.feasible);
  // The exact optimum lower-bounds IRS; IRS stays within a constant factor
  // of it on these scarce/flexible structures (the Fig. 3 regime). On
  // instances this small one misplaced device already costs ~1.5x, so the
  // per-instance bound is 2x; no catastrophic misallocation ever.
  EXPECT_LE(opt.avg_completion, irs.avg + 1e-9);
  EXPECT_LE(irs.avg, 2.0 * opt.avg_completion + 1e-9);

  // Determinism: permuting the group and atom input spans must reproduce
  // the identical allocation, not merely an equally-good one.
  for (int p = 0; p < 3; ++p) {
    for (std::size_t i = group_order.size(); i-- > 1;) {
      std::swap(group_order[i], group_order[rng.index(i + 1)]);
    }
    for (std::size_t i = atom_order.size(); i-- > 1;) {
      std::swap(atom_order[i], atom_order[rng.index(i + 1)]);
    }
    const auto permuted_plan = plan_for(jobs, devices, group_order, atom_order);
    const auto permuted = evaluate_irs_plan(jobs, devices, permuted_plan);
    EXPECT_EQ(irs.assignment, permuted.assignment);
    EXPECT_EQ(irs.completion, permuted.completion);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IrsDifferentialTest, ::testing::Range(1, 31));

}  // namespace
}  // namespace venn::ilp
