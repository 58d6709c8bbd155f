// Unit tests for the assembled Venn scheduler (§4).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "scheduler/venn_sched.h"
#include "util/stats.h"

namespace venn {
namespace {

constexpr std::size_t G = 0, C = 1;

PendingJob make_pending(int id, std::size_t group, int remaining_demand,
                        double remaining_service = 0.0,
                        double arrival = 0.0) {
  PendingJob pj;
  pj.job = JobId(id);
  pj.request = RequestId(id);
  pj.group = group;
  pj.remaining_demand = remaining_demand;
  pj.request_demand = remaining_demand;
  pj.remaining_service =
      remaining_service > 0 ? remaining_service : remaining_demand;
  pj.total_rounds = 5;
  pj.completed_rounds = 0;
  pj.job_arrival = arrival;
  pj.request_submitted = arrival;
  pj.solo_jct_estimate = 1000.0;
  return pj;
}

DeviceView device_with_signature(std::uint64_t sig, double cpu = 0.5,
                                 double mem = 0.5) {
  DeviceView v;
  v.id = DeviceId(0);
  v.spec = {cpu, mem};
  v.signature = sig;
  return v;
}

VennConfig no_matching_cfg() {
  VennConfig cfg;
  cfg.enable_matching = false;
  return cfg;
}

// Record a supply history: `rate` devices/sec of signature `sig` over the
// window before `now`.
void feed_supply(VennScheduler& s, std::uint64_t sig, double rate, SimTime now,
                 SimTime span = 1000.0) {
  const double step = 1.0 / rate;
  for (SimTime t = now - span; t <= now; t += step) {
    if (t < 0) continue;
    s.on_device_checkin(device_with_signature(sig), t);
  }
}

TEST(VennSched, NameReflectsComponents) {
  EXPECT_EQ(VennScheduler(VennConfig{}, Rng(1)).name(), "Venn");
  VennConfig ns;
  ns.enable_scheduling = false;
  EXPECT_EQ(VennScheduler(ns, Rng(1)).name(), "Venn w/o sched");
  VennConfig nm;
  nm.enable_matching = false;
  EXPECT_EQ(VennScheduler(nm, Rng(1)).name(), "Venn w/o match");
}

TEST(VennSched, IntraGroupOrdersBySmallestRemaining) {
  VennConfig cfg = no_matching_cfg();
  cfg.order_by_total_remaining = false;
  VennScheduler s(cfg, Rng(1));
  feed_supply(s, (1ULL << G), 0.1, 1000.0);
  std::vector<PendingJob> pending{make_pending(1, G, 50),
                                  make_pending(2, G, 5),
                                  make_pending(3, G, 20)};
  s.on_queue_change(pending, 1000.0);
  const auto pick =
      s.assign(device_with_signature(1ULL << G), pending, 1000.0);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pending[*pick].job, JobId(2));
}

TEST(VennSched, TotalRemainingOrderingUsesService) {
  VennConfig cfg = no_matching_cfg();
  cfg.order_by_total_remaining = true;
  VennScheduler s(cfg, Rng(1));
  feed_supply(s, (1ULL << G), 0.1, 1000.0);
  // Job 1: small request but long service; job 2: larger request, less
  // service overall.
  std::vector<PendingJob> pending{make_pending(1, G, 5, 500.0),
                                  make_pending(2, G, 20, 40.0)};
  s.on_queue_change(pending, 1000.0);
  const auto pick =
      s.assign(device_with_signature(1ULL << G), pending, 1000.0);
  EXPECT_EQ(pending[*pick].job, JobId(2));
}

TEST(VennSched, ScarceAtomServesScarceGroup) {
  // C ⊂ G structure: G-only supply plentiful, shared atom scarce. A device
  // eligible for both should serve the C group's job (owner), not G's.
  VennScheduler s(no_matching_cfg(), Rng(1));
  feed_supply(s, (1ULL << G), 0.5, 1000.0);
  feed_supply(s, (1ULL << G) | (1ULL << C), 0.05, 1000.0);
  std::vector<PendingJob> pending{make_pending(1, G, 5),
                                  make_pending(2, C, 50)};
  s.on_queue_change(pending, 1000.0);
  const auto pick = s.assign(
      device_with_signature((1ULL << G) | (1ULL << C)), pending, 1000.0);
  EXPECT_EQ(pending[*pick].job, JobId(2));
  // A G-only device still goes to the G job.
  const auto pick_g =
      s.assign(device_with_signature(1ULL << G), pending, 1000.0);
  EXPECT_EQ(pending[*pick_g].job, JobId(1));
}

TEST(VennSched, FallThroughWhenOwnerGroupAbsent) {
  // Shared atom owned by C, but no C job is pending: G gets the device.
  VennScheduler s(no_matching_cfg(), Rng(1));
  feed_supply(s, (1ULL << G), 0.5, 1000.0);
  feed_supply(s, (1ULL << G) | (1ULL << C), 0.05, 1000.0);
  std::vector<PendingJob> pending{make_pending(1, G, 5)};
  s.on_queue_change(pending, 1000.0);
  const auto pick = s.assign(
      device_with_signature((1ULL << G) | (1ULL << C)), pending, 1000.0);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pending[*pick].job, JobId(1));
}

TEST(VennSched, QueuePressureMovesIntersection) {
  // Long G queue + tiny C queue: the ratio test should hand the shared atom
  // to G (the abundant group) — Algorithm 1 lines 10-23.
  VennScheduler s(no_matching_cfg(), Rng(1));
  feed_supply(s, (1ULL << G), 0.02, 1000.0);  // G-only scarce now
  feed_supply(s, (1ULL << G) | (1ULL << C), 0.2, 1000.0);
  std::vector<PendingJob> pending;
  for (int i = 0; i < 10; ++i) pending.push_back(make_pending(i, G, 10));
  pending.push_back(make_pending(99, C, 10));
  s.on_queue_change(pending, 1000.0);
  // m_G / |S'_G| = 10/0.02 = 500 > m_C / |S_C| = 1/0.2 = 5 -> G absorbs.
  const auto pick = s.assign(
      device_with_signature((1ULL << G) | (1ULL << C)), pending, 1000.0);
  EXPECT_EQ(pending[*pick].group, G);
}

TEST(VennSched, DisabledSchedulingIsFifo) {
  VennConfig cfg;
  cfg.enable_scheduling = false;
  cfg.enable_matching = false;
  VennScheduler s(cfg, Rng(1));
  std::vector<PendingJob> pending{make_pending(1, G, 5, 5, /*arrival=*/50.0),
                                  make_pending(2, C, 50, 50, /*arrival=*/10.0)};
  s.on_queue_change(pending, 1000.0);
  const auto pick = s.assign(
      device_with_signature((1ULL << G) | (1ULL << C)), pending, 1000.0);
  EXPECT_EQ(pending[*pick].job, JobId(2));  // earliest arrival
}

TEST(VennSched, FairnessBoostsStarvedJob) {
  VennConfig cfg = no_matching_cfg();
  cfg.epsilon = 6.0;
  cfg.order_by_total_remaining = false;
  VennScheduler s(cfg, Rng(1));
  feed_supply(s, (1ULL << G), 0.1, 100000.0, 50000.0);

  // Job 1: small demand, just arrived (on schedule). Job 2: large demand,
  // far beyond its fair-share JCT with no progress (starved).
  PendingJob fresh = make_pending(1, G, 5);
  fresh.job_arrival = 100000.0 - 1.0;
  fresh.solo_jct_estimate = 1000.0;
  PendingJob starved = make_pending(2, G, 50);
  starved.job_arrival = 0.0;  // waited 100000 s
  starved.solo_jct_estimate = 1000.0;
  starved.completed_rounds = 0;
  std::vector<PendingJob> pending{fresh, starved};
  s.on_queue_change(pending, 100000.0);
  const auto pick =
      s.assign(device_with_signature(1ULL << G), pending, 100000.0);
  EXPECT_EQ(pending[*pick].job, JobId(2));

  // With epsilon = 0 the small job wins instead.
  VennConfig cfg0 = no_matching_cfg();
  cfg0.order_by_total_remaining = false;
  VennScheduler s0(cfg0, Rng(1));
  feed_supply(s0, (1ULL << G), 0.1, 100000.0, 50000.0);
  s0.on_queue_change(pending, 100000.0);
  const auto pick0 =
      s0.assign(device_with_signature(1ULL << G), pending, 100000.0);
  EXPECT_EQ(pending[*pick0].job, JobId(1));
}

TEST(VennSched, MatchingFiltersHeadJobOnly) {
  // Give the head job an active fast-tier filter; a slow device must skip to
  // the next job in the group instead of idling.
  VennConfig cfg;
  cfg.num_tiers = 2;
  VennScheduler s(cfg, Rng(3));
  feed_supply(s, (1ULL << G), 0.1, 1000.0);

  // Profile job 1: fast devices respond 10 s, slow 400 s; response dominates
  // scheduling (c huge) so tiering activates when a fast tier is drawn.
  for (int i = 0; i < 30; ++i) {
    s.on_response(JobId(1), 0.9, 10.0, 0.0);
    s.on_response(JobId(1), 0.1, 400.0, 0.0);
  }
  s.on_round_complete(JobId(1), 0.001, 400.0, 0.0);

  bool filtered_once = false;
  for (int attempt = 0; attempt < 40 && !filtered_once; ++attempt) {
    std::vector<PendingJob> pending{
        make_pending(1, G, 5), make_pending(2, G, 50)};
    pending[0].request = RequestId(1000 + attempt);  // new request each try
    s.on_queue_change(pending, 1000.0);
    // Slow device: if job 1 drew the fast tier, it must be skipped and the
    // device must land on job 2.
    const auto pick = s.assign(
        device_with_signature(1ULL << G, /*cpu=*/0.05, /*mem=*/0.05), pending,
        1000.0);
    ASSERT_TRUE(pick.has_value());
    if (pending[*pick].job == JobId(2)) filtered_once = true;
  }
  EXPECT_TRUE(filtered_once);
}

TEST(VennSched, FlatCapacityReservoirYieldsAscendingThresholds) {
  // Linear interpolation between two equal order statistics can miss their
  // value by one ulp (x*(1-f) + x*f != x), so the tier quantiles of a flat
  // reservoir need not ascend. The matcher rejects non-ascending
  // thresholds; the scheduler's guard must flatten them first.
  constexpr double kX = 0.123456789;
  constexpr std::size_t kCheckins = 50;
  VennConfig cfg;
  cfg.num_tiers = 3;
  const DeviceView dev = device_with_signature(1ULL << G, kX, kX);
  std::vector<double> caps(kCheckins, dev.spec.capacity());
  ASSERT_GT(percentile_select(caps, 100.0 / 3.0),
            percentile_select(caps, 200.0 / 3.0))
      << "the raw quantiles ascend: the guard is not exercised";

  VennScheduler s(cfg, Rng(1));
  for (std::size_t i = 0; i < kCheckins; ++i) {
    s.on_device_checkin(dev, static_cast<double>(i));
  }
  const std::vector<PendingJob> pending{make_pending(1, G, 5)};
  ASSERT_NO_THROW(s.on_queue_change(pending, 100.0));
  const JobMatcher* m = s.matcher(JobId(1));
  ASSERT_NE(m, nullptr);
  const std::vector<double> th = m->profile().thresholds();
  ASSERT_EQ(th.size(), cfg.num_tiers + 1);
  EXPECT_TRUE(std::is_sorted(th.begin(), th.end()));
}

TEST(VennSched, RequestIsNewOnlyWhenItDiffersFromTheMatchersCurrent) {
  VennScheduler s(no_matching_cfg(), Rng(1));
  std::vector<PendingJob> pending{make_pending(1, G, 5),
                                  make_pending(2, G, 7)};
  s.on_queue_change(pending, 10.0);
  EXPECT_EQ(s.matching_stats().requests_seen, 2);
  // The same pending set again: no request is new.
  s.on_queue_change(pending, 20.0);
  EXPECT_EQ(s.matching_stats().requests_seen, 2);
  // Job 1's next request is new; job 2's is still the one it began.
  pending[0].request = RequestId(100);
  s.on_queue_change(pending, 30.0);
  EXPECT_EQ(s.matching_stats().requests_seen, 3);
  ASSERT_NE(s.matcher(JobId(1)), nullptr);
  EXPECT_EQ(s.matcher(JobId(1))->current_request(), RequestId(100));
  s.on_queue_change(pending, 40.0);
  EXPECT_EQ(s.matching_stats().requests_seen, 3);
}

TEST(VennSched, NegativeJobIdThrows) {
  VennScheduler s(VennConfig{}, Rng(1));
  const std::vector<PendingJob> pending{make_pending(-1, G, 5)};
  EXPECT_THROW(s.on_queue_change(pending, 1.0), std::invalid_argument);
  EXPECT_EQ(s.sort_key(pending[0]), pending[0].remaining_service);
}

TEST(VennSched, IncrementalThresholdsMatchPercentileSelectAcrossTheWrap) {
  // group_thresholds re-bins only the reservoir slots written since its
  // last call, and recounts the whole ring when a ring's worth (2048) or
  // more arrived in between. Hold it against percentile_select on a copy
  // of the window after gaps that fill the ring, wrap it, and write more
  // than a whole ring between two calls, on two groups written at
  // different rates.
  constexpr std::size_t kRing = 2048;
  constexpr std::size_t kTiers = 3;
  VennConfig cfg;
  cfg.num_tiers = kTiers;
  VennScheduler s(cfg, Rng(1));
  Rng rng(19);
  std::deque<double> window[2];
  std::size_t written[2] = {};
  std::size_t compared = 0;
  std::size_t after_fill = 0;
  std::size_t after_ring_gap = 0;
  std::size_t since_call[2] = {};
  const auto compare = [&](std::size_t g) {
    std::vector<double> copy(window[g].begin(), window[g].end());
    std::vector<double> want;
    if (copy.size() >= 10 * kTiers) {
      want.push_back(0.0);
      for (std::size_t v = 1; v < kTiers; ++v) {
        want.push_back(std::max(
            want.back(),
            percentile_select(copy, 100.0 * static_cast<double>(v) /
                                        static_cast<double>(kTiers))));
      }
      want.push_back(1.0 + 1e-12);
    }
    const std::span<const double> got = s.group_thresholds(g);
    ASSERT_EQ(std::vector<double>(got.begin(), got.end()), want)
        << "group " << g << " after " << written[g] << " writes, "
        << since_call[g] << " since the last call";
    ++compared;
    if (written[g] > kRing) ++after_fill;
    if (since_call[g] >= kRing) ++after_ring_gap;
    since_call[g] = 0;
  };
  // Check-ins between calls: below the minimum window, the fill, exactly
  // a ring, a ring and one, several rings, then single writes.
  const std::size_t gaps[] = {5,    40,   1,    900,  1100, 7,    1,
                              2048, 2049, 3,    5000, 1,    1,    64,
                              2047, 4100, 2,    1,    300,  2500};
  for (const std::size_t gap : gaps) {
    for (std::size_t i = 0; i < gap; ++i) {
      // Group 0 gets every check-in, group 1 every other one; a few
      // values repeat so that bins hold ties.
      const double x = rng.uniform() < 0.2 ? 0.25 : rng.uniform();
      const std::uint64_t sig = (i % 2 == 0) ? 0b11 : 0b01;
      s.on_device_checkin(device_with_signature(sig, x, x), 0.0);
      for (std::size_t g = 0; g < 2; ++g) {
        if (!((sig >> g) & 1ULL)) continue;
        window[g].push_back(DeviceSpec{x, x}.capacity());
        if (window[g].size() > kRing) window[g].pop_front();
        ++written[g];
        ++since_call[g];
      }
    }
    compare(0);
    compare(1);
  }
  EXPECT_EQ(compared, 2 * std::size(gaps));
  EXPECT_GT(after_fill, 10u);
  EXPECT_GT(after_ring_gap, 4u);
}

TEST(VennSched, SupplyStoreRecordsCheckins) {
  VennScheduler s(VennConfig{}, Rng(1));
  s.on_device_checkin(device_with_signature(0b11), 1.0);
  s.on_device_checkin(device_with_signature(0b11), 2.0);
  s.on_device_checkin(device_with_signature(0b01), 3.0);
  EXPECT_EQ(s.supply_store().total_points(), 3u);
  EXPECT_EQ(s.supply_store().keys().size(), 2u);
}

TEST(VennSched, RejectsZeroTiers) {
  VennConfig cfg;
  cfg.num_tiers = 0;
  EXPECT_THROW(VennScheduler(cfg, Rng(1)), std::invalid_argument);
}

TEST(VennSched, ThrowsOnEmptyCandidates) {
  VennScheduler s(VennConfig{}, Rng(1));
  EXPECT_THROW(
      (void)s.assign(device_with_signature(1), {}, 0.0),
      std::invalid_argument);
}

}  // namespace
}  // namespace venn
