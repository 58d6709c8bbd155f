// VennScheduler::assign against the sort-based oracle (assign_oracle.h):
// random candidate sets, job groups, fairness multipliers, tier filters and
// stale plans must produce the same pick and the same tier-filter count.
#include <gtest/gtest.h>

#include <vector>

#include "assign_oracle.h"
#include "util/rng.h"

namespace venn {
namespace {

constexpr std::size_t kGroups = 6;

DeviceView device(Rng& rng, std::uint64_t signature) {
  DeviceView v;
  v.id = DeviceId(0);
  v.spec = {rng.uniform(), rng.uniform()};
  v.signature = signature;
  return v;
}

PendingJob pending(int id, std::size_t group, int request, Rng& rng) {
  PendingJob pj;
  pj.job = JobId(id);
  pj.request = RequestId(request);
  pj.group = group;
  // Few distinct demands and arrivals: equal sort keys exercise the job-id
  // tie-break.
  pj.remaining_demand = 1 + static_cast<int>(rng.uniform_int(0, 3));
  pj.request_demand = pj.remaining_demand;
  pj.remaining_service = 5.0 * static_cast<double>(rng.uniform_int(1, 4));
  pj.total_rounds = 10;
  pj.completed_rounds = static_cast<int>(rng.uniform_int(0, 9));
  pj.job_arrival = 100.0 * static_cast<double>(rng.uniform_int(0, 5));
  pj.request_submitted = pj.job_arrival;
  pj.solo_jct_estimate = 50.0 + 1000.0 * rng.uniform();
  return pj;
}

// One scheduler world: supply for every group, tier profiles for most jobs
// (so begin_request activates tier filters), then a queue change. Returns
// the pending set the scheduler last saw.
std::vector<PendingJob> build_world(VennScheduler& s, Rng& rng, int num_jobs,
                                    SimTime now) {
  for (int i = 0; i < 400; ++i) {
    const auto sig = static_cast<std::uint64_t>(
        rng.uniform_int(1, (1 << kGroups) - 1));
    s.on_device_checkin(device(rng, sig), now * i / 400.0);
  }
  std::vector<PendingJob> jobs;
  for (int j = 0; j < num_jobs; ++j) {
    const auto g = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kGroups) - 3));
    jobs.push_back(pending(j, g, j, rng));
    if (rng.uniform() < 0.8) {
      // Fast devices respond much sooner and response time dominates
      // scheduling delay, so a drawn fast tier is worth activating.
      for (int k = 0; k < 40; ++k) {
        const double cap = rng.uniform();
        s.on_response(JobId(j), cap, 10.0 + 500.0 * (1.0 - cap), 0.0);
      }
      s.on_round_complete(JobId(j), 0.01, 500.0, 0.0);
    }
  }
  s.on_queue_change(jobs, now);
  return jobs;
}

TEST(AssignOracle, BestTwoMatchesSortedReference) {
  Rng rng(2024);
  std::int64_t tiered = 0;
  std::int64_t filtered = 0;
  std::size_t stale = 0;
  for (int world = 0; world < 24; ++world) {
    VennConfig cfg;
    cfg.epsilon = (world % 3 == 0) ? 0.0 : 2.0;
    cfg.order_by_total_remaining = (world % 2) == 0;
    cfg.enable_matching = (world % 8) != 7;
    cfg.enable_scheduling = (world % 12) != 11;
    cfg.num_tiers = 2 + static_cast<std::size_t>(world % 3);
    VennScheduler s(cfg, Rng(static_cast<std::uint64_t>(world) + 1));
    const SimTime now = 5000.0;
    const auto jobs = build_world(s, rng, 6 + world, now);
    tiered += s.matching_stats().requests_tiered;

    for (int trial = 0; trial < 300; ++trial) {
      const auto sig = static_cast<std::uint64_t>(
          rng.uniform_int(1, (1 << kGroups) - 1));
      const DeviceView dev = device(rng, sig);
      std::vector<PendingJob> candidates;
      for (const PendingJob& pj : jobs) {
        if (!((dev.signature >> pj.group) & 1ULL) || rng.uniform() < 0.2) {
          continue;
        }
        PendingJob live = pj;  // demand drained since the queue change
        live.remaining_service =
            5.0 * static_cast<double>(rng.uniform_int(1, 4));
        live.remaining_demand = 1 + static_cast<int>(rng.uniform_int(0, 3));
        candidates.push_back(live);
      }
      // Jobs the last queue change never saw, some in groups outside the
      // plan (the queued jobs use only the lower groups).
      for (int k = 0; k < 2; ++k) {
        if (rng.uniform() < 0.6) continue;
        const auto g = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(kGroups) - 1));
        const int id = 1000 + 2 * trial + k;
        candidates.push_back(pending(id, g, 5000 + id, rng));
        ++stale;
      }
      if (candidates.empty()) continue;
      // Candidates arrive in any order.
      for (std::size_t i = candidates.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
        std::swap(candidates[i - 1], candidates[j]);
      }

      const auto want = oracle::venn_assign(s, dev, candidates);
      const std::int64_t before = s.matching_stats().devices_filtered;
      const auto got = s.assign(dev, candidates, now);
      const std::int64_t did = s.matching_stats().devices_filtered - before;
      ASSERT_EQ(got, want.pick) << "world " << world << " trial " << trial;
      ASSERT_EQ(did, want.devices_filtered)
          << "world " << world << " trial " << trial;
      filtered += did;
    }
  }
  // The comparison covered what it claims to: tier filters that fired and
  // candidates outside the plan.
  EXPECT_GT(tiered, 0);
  EXPECT_GT(filtered, 0);
  EXPECT_GT(stale, 0u);
}

TEST(AssignOracle, GroupsMissingFromThePlanServeInAscendingIndex) {
  // The plan knows group 0 only; groups 5, 2 and 3 appear in the candidate
  // set without any queue change having seen them (a stale plan). They
  // are served after the plan's groups, lowest group index first.
  VennConfig cfg;
  cfg.enable_matching = false;
  VennScheduler s(cfg, Rng(1));
  Rng rng(7);
  s.on_device_checkin(device(rng, 0b101101), 10.0);
  std::vector<PendingJob> known{pending(1, 0, 1, rng)};
  s.on_queue_change(known, 20.0);

  std::vector<PendingJob> candidates{pending(2, 5, 2, rng),
                                     pending(3, 3, 3, rng),
                                     pending(4, 2, 4, rng)};
  const DeviceView dev = device(rng, 0b101101);
  auto pick = s.assign(dev, candidates, 30.0);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(candidates[*pick].job, JobId(4));  // group 2
  EXPECT_EQ(pick, oracle::venn_assign(s, dev, candidates).pick);

  // With the plan's own group present, it still goes first.
  candidates.push_back(known.front());
  pick = s.assign(dev, candidates, 30.0);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(candidates[*pick].job, JobId(1));
}

}  // namespace
}  // namespace venn
