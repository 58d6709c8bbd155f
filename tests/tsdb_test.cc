// Unit tests for the time-series store backing §4.4 supply estimation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "tsdb/timeseries.h"
#include "util/ids.h"
#include "util/rng.h"

namespace venn::tsdb {
namespace {

TEST(Series, AppendAndCount) {
  Series s;
  EXPECT_TRUE(s.empty());
  s.append(1.0);
  s.append(2.0);
  s.append(2.0);  // equal timestamps allowed
  s.append(5.0);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_DOUBLE_EQ(s.first_timestamp(), 1.0);
  EXPECT_DOUBLE_EQ(s.last_timestamp(), 5.0);
}

TEST(Series, RejectsRegressingTimestamps) {
  Series s;
  s.append(2.0);
  EXPECT_THROW(s.append(1.0), std::invalid_argument);
}

TEST(Series, WindowCountIsHalfOpen) {
  Series s;
  for (double t : {1.0, 2.0, 3.0, 4.0, 5.0}) s.append(t);
  // (now - window, now] = (2, 5]: points 3, 4, 5.
  EXPECT_EQ(s.count_in_window(5.0, 3.0), 3u);
  // Window covering everything.
  EXPECT_EQ(s.count_in_window(5.0, 100.0), 5u);
  // Future now with empty window region.
  EXPECT_EQ(s.count_in_window(10.0, 1.0), 0u);
}

TEST(Series, SumInWindow) {
  Series s;
  s.append(1.0, 10.0);
  s.append(2.0, 20.0);
  s.append(3.0, 30.0);
  EXPECT_DOUBLE_EQ(s.sum_in_window(3.0, 1.5), 50.0);
  EXPECT_DOUBLE_EQ(s.sum_in_window(3.0, 100.0), 60.0);
}

TEST(Series, RateUsesSeriesAgeWhenYoung) {
  Series s;
  s.append(0.0);
  s.append(10.0);
  // Series is 10 s old; a 24 h window must not dilute the estimate.
  const auto r = s.rate_in_window(10.0, 24.0 * kHour);
  ASSERT_TRUE(r.has_value());
  // 1 point in (now-window, now] = the t=10 one... plus t=0 is excluded
  // (strictly greater than now - window? window is 24h so t=0 is inside).
  // 2 points / 10 s age.
  EXPECT_NEAR(*r, 2.0 / 10.0, 1e-9);
}

TEST(Series, RateUsesWindowWhenOld) {
  Series s;
  for (int i = 0; i <= 100; ++i) s.append(static_cast<double>(i));
  // At now=100 with window 10: points in (90, 100] = 10; rate = 1/s.
  const auto r = s.rate_in_window(100.0, 10.0);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(*r, 1.0, 1e-9);
}

TEST(Series, RateEmptyIsNullopt) {
  Series s;
  EXPECT_FALSE(s.rate_in_window(10.0, 5.0).has_value());
}

TEST(Series, CompactDropsOldPoints) {
  Series s;
  for (double t : {1.0, 2.0, 3.0, 4.0}) s.append(t);
  s.compact(4.0, 2.0);  // cutoff at t=2: drops t=1 (strictly older)
  EXPECT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.first_timestamp(), 2.0);
}

TEST(Series, EmptyThrowsOnTimestamps) {
  Series s;
  EXPECT_THROW((void)s.first_timestamp(), std::logic_error);
  EXPECT_THROW((void)s.last_timestamp(), std::logic_error);
}

TEST(Store, RecordAndRate) {
  TimeSeriesStore store;
  for (int i = 0; i < 100; ++i) {
    store.record(/*key=*/0b11, static_cast<double>(i));
  }
  EXPECT_NEAR(store.rate(0b11, 99.0, 50.0), 1.0, 0.05);
  EXPECT_DOUBLE_EQ(store.rate(0b100, 99.0, 50.0), 0.0);  // unseen key
}

TEST(Store, KeysSorted) {
  TimeSeriesStore store;
  store.record(5, 0.0);
  store.record(1, 0.0);
  store.record(3, 0.0);
  const auto keys = store.keys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], 1u);
  EXPECT_EQ(keys[1], 3u);
  EXPECT_EQ(keys[2], 5u);
}

TEST(Store, FindReturnsNullForUnknown) {
  TimeSeriesStore store;
  EXPECT_EQ(store.find(42), nullptr);
  store.record(42, 1.0);
  ASSERT_NE(store.find(42), nullptr);
  EXPECT_EQ(store.find(42)->size(), 1u);
}

TEST(Store, CompactAllBoundsMemory) {
  TimeSeriesStore store;
  for (int i = 0; i < 1000; ++i) store.record(7, static_cast<double>(i));
  EXPECT_EQ(store.total_points(), 1000u);
  store.compact_all(1000.0, 100.0);
  EXPECT_LE(store.total_points(), 101u);
}

// rate_in_window's cursor against two binary searches over the points, bit
// for bit: appends (ties included), compactions, window changes, a query
// at an earlier `now`, and a `now` before the last point. Every query
// runs on the one series whose cursor the previous queries moved.
TEST(Series, RateCursorMatchesUpperBound) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    Series s;
    SimTime t = 0.0;
    SimTime now = 0.0;
    double window = 50.0;
    std::size_t earlier = 0;
    std::size_t compactions = 0;
    for (int step = 0; step < 3000; ++step) {
      const double u = rng.uniform();
      if (u < 0.55) {
        // Ties: a third of the appends repeat the last timestamp.
        if (rng.uniform() < 0.67) t += rng.uniform(0.0, 5.0);
        s.append(t);
        continue;
      }
      if (u < 0.58) {
        s.compact(t, rng.uniform(0.0, 80.0));
        ++compactions;
        continue;
      }
      if (u < 0.61) window = rng.bernoulli(0.5) ? 50.0 : rng.uniform(1.0, 120.0);
      // Mostly a `now` that never decreases, at or past the last point;
      // sometimes an earlier one (inside the points, or before them).
      if (rng.uniform() < 0.1) {
        now = t - rng.uniform(0.0, 150.0);
        ++earlier;
      } else {
        now = std::max(now, t) + (rng.bernoulli(0.5) ? 0.0 : rng.uniform());
      }
      const auto points = s.snapshot();
      const auto got = s.rate_in_window(now, window);
      if (points.empty()) {
        EXPECT_FALSE(got.has_value());
        continue;
      }
      const auto upper = [&](SimTime x) {
        return static_cast<std::size_t>(
            std::upper_bound(points.begin(), points.end(), x,
                             [](SimTime v, const auto& p) {
                               return v < p.first;
                             }) -
            points.begin());
      };
      const double age = now - points.front().first;
      const double denom = std::max(1e-9, std::min(window, age));
      const double want =
          static_cast<double>(upper(now) - upper(now - window)) / denom;
      ASSERT_TRUE(got.has_value());
      ASSERT_EQ(std::bit_cast<std::uint64_t>(*got),
                std::bit_cast<std::uint64_t>(want))
          << "seed " << seed << " step " << step << " now " << now
          << " window " << window;
    }
    EXPECT_GT(earlier, 10u);
    EXPECT_GT(compactions, 10u);
  }
}

// Property sweep: the windowed rate over a homogeneous Poisson-ish stream
// approximates the true rate for several window lengths.
class RateWindowTest : public ::testing::TestWithParam<double> {};

TEST_P(RateWindowTest, RateApproximatesTrueRate) {
  const double window = GetParam();
  Series s;
  const double true_rate = 0.5;  // 1 event / 2 s, deterministic spacing
  for (int i = 0; i < 10000; ++i) s.append(i / true_rate / 1.0 * 1.0);
  // Deterministic spacing of 2 s.
  Series s2;
  for (int i = 0; i < 10000; ++i) s2.append(2.0 * i);
  const auto r = s2.rate_in_window(2.0 * 9999, window);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(*r, true_rate, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Windows, RateWindowTest,
                         ::testing::Values(10.0, 100.0, 1000.0, 5000.0));

}  // namespace
}  // namespace venn::tsdb
