// The scheduler's tier statistics against the copy-and-select references
// (tier_stats_oracle.h), bit for bit: group thresholds after random
// check-in streams, TierProfile speed-ups for every tier, and sort keys of
// jobs the last queue change did or did not list.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "device/tiering.h"
#include "scheduler/venn_sched.h"
#include "tier_stats_oracle.h"
#include "util/rng.h"

namespace venn {
namespace {

constexpr std::size_t kGroups = 3;
constexpr std::size_t kWindow = 2048;  // the scheduler's reservoir size

// How a stream draws device scores (capacity = 0.6 cpu + 0.4 mem).
enum class Caps {
  kUniform,     // spread over [0, 1]
  kFewValues,   // heavy duplicates
  kAllEqual,    // one value: the non-ascending guard must fire
  kEdges,       // exactly 0.0 and 1.0 among uniform draws
  kOneBin,      // a cluster far narrower than any value bin
  kBinEdges,    // scores on multiples of 1/256
};

DeviceSpec draw_spec(Caps kind, Rng& rng) {
  switch (kind) {
    case Caps::kUniform:
      return {rng.uniform(), rng.uniform()};
    case Caps::kFewValues: {
      constexpr double kValues[] = {0.1, 0.37, 0.37, 0.37, 0.8};
      const double x = kValues[rng.uniform_int(0, 4)];
      return {x, x};
    }
    case Caps::kAllEqual:
      return {0.123456789, 0.123456789};
    case Caps::kEdges: {
      const double u = rng.uniform();
      if (u < 0.3) return {0.0, 0.0};
      if (u < 0.6) return {1.0, 1.0};
      return {rng.uniform(), rng.uniform()};
    }
    case Caps::kOneBin: {
      const double x = 0.5 + 1e-9 * rng.uniform();
      return {x, x};
    }
    case Caps::kBinEdges: {
      const double x = static_cast<double>(rng.uniform_int(0, 256)) / 256.0;
      return {x, x};
    }
  }
  return {};
}

TEST(TierStatsOracle, GroupThresholdsMatchCopyAndSelect) {
  ASSERT_EQ((DeviceSpec{0.0, 0.0}.capacity()), 0.0);
  ASSERT_EQ((DeviceSpec{1.0, 1.0}.capacity()), 1.0);
  Rng rng(77);
  std::size_t compared = 0;
  std::size_t guard_fired = 0;
  std::size_t evicting = 0;
  std::size_t minimum_windows = 0;
  for (const Caps kind : {Caps::kUniform, Caps::kFewValues, Caps::kAllEqual,
                          Caps::kEdges, Caps::kOneBin, Caps::kBinEdges}) {
    for (std::size_t tiers = 1; tiers <= 4; ++tiers) {
      VennConfig cfg;
      cfg.num_tiers = tiers;
      VennScheduler s(cfg, Rng(tiers));
      std::deque<double> window[kGroups];
      std::size_t pushed[kGroups] = {};
      const auto compare = [&](std::size_t g) {
        std::vector<double> copy(window[g].begin(), window[g].end());
        const std::vector<double> want = oracle::group_thresholds(copy, tiers);
        const std::span<const double> got = s.group_thresholds(g);
        ASSERT_EQ(std::vector<double>(got.begin(), got.end()), want)
            << "caps kind " << static_cast<int>(kind) << " tiers " << tiers
            << " group " << g << " window " << window[g].size();
        ++compared;
        if (window[g].size() == 10 * tiers) ++minimum_windows;
        if (pushed[g] > kWindow) ++evicting;
        // The raw quantiles, before flattening, were not ascending.
        for (std::size_t v = 2; !want.empty() && v < tiers; ++v) {
          if (percentile_select(copy, 100.0 * (v - 1) / tiers) >
              percentile_select(copy, 100.0 * v / tiers)) {
            ++guard_fired;
            break;
          }
        }
      };
      const int checkins = 4000 + static_cast<int>(rng.uniform_int(0, 1500));
      for (int i = 0; i < checkins; ++i) {
        DeviceView dev;
        dev.id = DeviceId(i);
        dev.spec = draw_spec(kind, rng);
        dev.signature = static_cast<std::uint64_t>(
            rng.uniform_int(1, (1 << kGroups) - 1));
        s.on_device_checkin(dev, static_cast<double>(i));
        for (std::size_t g = 0; g < kGroups; ++g) {
          if (!((dev.signature >> g) & 1ULL)) continue;
          window[g].push_back(dev.spec.capacity());
          ++pushed[g];
          if (window[g].size() > kWindow) window[g].pop_front();
        }
        // Every small window (the minimum 10 x V one included), then a
        // sample of the rest, evicting windows among them.
        const bool small = i < 80;
        if (small || rng.uniform() < 0.02) {
          for (std::size_t g = 0; g < kGroups; ++g) compare(g);
        }
      }
    }
  }
  EXPECT_GT(compared, 1000u);
  EXPECT_GT(minimum_windows, 0u);
  EXPECT_GT(evicting, 0u);
  EXPECT_GT(guard_fired, 0u);
}

TEST(TierStatsOracle, SpeedupMatchesCopyAndSelect) {
  Rng rng(91);
  std::size_t compared = 0;
  std::size_t non_unit = 0;
  for (const double tail : {50.0, 95.0, 100.0}) {
    for (std::size_t tiers = 1; tiers <= 4; ++tiers) {
      for (const std::size_t n : {std::size_t{1}, std::size_t{2}, 5 * tiers,
                                  std::size_t{57}, std::size_t{400}}) {
        for (const Caps kind : {Caps::kUniform, Caps::kFewValues,
                                Caps::kAllEqual, Caps::kEdges}) {
          TierProfile unpinned(tiers, tail);
          TierProfile pinned(tiers, tail);
          std::vector<double> caps;
          std::vector<double> rts;
          for (std::size_t i = 0; i < n; ++i) {
            const double cap = draw_spec(kind, rng).capacity();
            // Few distinct response times: ties at the tail ranks.
            const double rt =
                10.0 * static_cast<double>(rng.uniform_int(1, 12)) +
                (kind == Caps::kUniform ? rng.uniform() : 0.0);
            caps.push_back(cap);
            rts.push_back(rt);
            unpinned.observe(cap, rt);
            pinned.observe(cap, rt);
          }
          // Random ascending thresholds, an empty tier now and then.
          std::vector<double> th{0.0};
          for (std::size_t v = 1; v < tiers; ++v) {
            const double next = std::max(th.back(), rng.uniform());
            th.push_back(rng.uniform() < 0.2 ? th.back() : next);
          }
          th.push_back(1.0 + 1e-12);
          pinned.set_external_thresholds(th);
          const std::vector<double> own =
              oracle::profile_thresholds(caps, tiers);
          for (std::size_t v = 0; v < tiers; ++v) {
            const double want_pinned = oracle::speedup(caps, rts, th, v, tail);
            ASSERT_EQ(pinned.speedup(v), want_pinned)
                << "pinned tail " << tail << " tiers " << tiers << " n " << n
                << " tier " << v;
            ++compared;
            if (want_pinned != 1.0) ++non_unit;
            if (!unpinned.ready()) continue;
            const double want_own = oracle::speedup(caps, rts, own, v, tail);
            ASSERT_EQ(unpinned.speedup(v), want_own)
                << "unpinned tail " << tail << " tiers " << tiers << " n " << n
                << " tier " << v;
            ++compared;
            if (want_own != 1.0) ++non_unit;
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 500u);
  EXPECT_GT(non_unit, 100u);
}

PendingJob pending_job(std::int64_t id, Rng& rng) {
  PendingJob pj;
  pj.job = JobId(id);
  pj.request = RequestId(id);
  pj.group = static_cast<std::size_t>(rng.uniform_int(0, 2));
  pj.remaining_demand = 1 + static_cast<int>(rng.uniform_int(0, 30));
  pj.request_demand = pj.remaining_demand;
  pj.remaining_service = 10.0 * rng.uniform();
  pj.total_rounds = 20;
  pj.completed_rounds = static_cast<int>(rng.uniform_int(0, 19));
  pj.job_arrival = 1000.0 * rng.uniform();
  pj.request_submitted = pj.job_arrival;
  pj.solo_jct_estimate = 100.0 + 500.0 * rng.uniform();
  return pj;
}

TEST(TierStatsOracle, SortKeysMatchMapReference) {
  Rng rng(5);
  std::size_t absent_after_listed = 0;
  for (const double epsilon : {0.0, 2.0}) {
    for (const bool total : {false, true}) {
      VennConfig cfg;
      cfg.epsilon = epsilon;
      cfg.order_by_total_remaining = total;
      VennScheduler s(cfg, Rng(1));
      oracle::SortKeys ref;
      std::vector<bool> listed_before(40, false);
      for (int change = 0; change < 60; ++change) {
        // A random subset of job ids 0..29, ascending like pending_view.
        std::vector<PendingJob> pending;
        for (std::int64_t id = 0; id < 30; ++id) {
          if (rng.uniform() < 0.4) pending.push_back(pending_job(id, rng));
        }
        const SimTime now = 2000.0 + 50.0 * change;
        s.on_queue_change(pending, now);
        ref.on_queue_change(pending, now, epsilon);
        std::vector<bool> listed(40, false);
        for (const PendingJob& pj : pending) {
          listed[static_cast<std::size_t>(pj.job.value())] = true;
        }
        // Listed jobs, jobs listed only by an earlier change, and ids past
        // every change, each with live demand drawn anew.
        for (std::int64_t id = 0; id < 40; ++id) {
          const PendingJob live = pending_job(id, rng);
          ASSERT_EQ(s.sort_key(live), ref.key(live, total))
              << "epsilon " << epsilon << " change " << change << " job " << id;
          const auto j = static_cast<std::size_t>(id);
          if (!listed[j] && listed_before[j]) ++absent_after_listed;
        }
        listed_before = listed;
      }
    }
  }
  EXPECT_GT(absent_after_listed, 100u);
}

// The knob values around the scheduler's ε <= 0 shortcut, which skips the
// fairness inputs: zero of either sign and a negative ε take it, a tiny
// positive one and NaN (for which ε <= 0 is false, as in adjusted_demand)
// do not, and a NaN multiplier makes NaN keys. Compared bit for bit, so
// NaN keys must match too.
TEST(TierStatsOracle, SortKeysHoldOnBothSidesOfTheEpsilonShortcut) {
  Rng rng(23);
  std::size_t nan_keys = 0;
  for (const double epsilon : {-0.0, -1.0, 1e-300,
                               std::numeric_limits<double>::quiet_NaN()}) {
    VennConfig cfg;
    cfg.epsilon = epsilon;
    VennScheduler s(cfg, Rng(1));
    oracle::SortKeys ref;
    for (int change = 0; change < 20; ++change) {
      std::vector<PendingJob> pending;
      for (std::int64_t id = 0; id < 30; ++id) {
        if (rng.uniform() < 0.5) pending.push_back(pending_job(id, rng));
      }
      const SimTime now = 2000.0 + 50.0 * change;
      s.on_queue_change(pending, now);
      ref.on_queue_change(pending, now, epsilon);
      for (const PendingJob& pj : pending) {
        const double got = s.sort_key(pj);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(ref.key(pj, true)))
            << "epsilon " << epsilon << " change " << change << " job "
            << pj.job.value();
        if (std::isnan(got)) ++nan_keys;
      }
    }
  }
  EXPECT_GT(nan_keys, 10u);
}

}  // namespace
}  // namespace venn
