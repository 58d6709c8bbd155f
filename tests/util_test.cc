// Unit tests for src/util: ids, rng, stats, logging.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/ids.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"

namespace venn {
namespace {

TEST(TypedId, DefaultIsInvalid) {
  DeviceId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id.value(), -1);
}

TEST(TypedId, ComparisonAndHash) {
  JobId a(1), b(2), c(1);
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
  EXPECT_LE(a, c);
  EXPECT_GT(b, a);
  std::set<JobId> s{a, b, c};
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(std::hash<JobId>{}(a), std::hash<JobId>{}(c));
}

TEST(TypedId, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<DeviceId, JobId>);
  static_assert(!std::is_same_v<RequestId, GroupId>);
}

TEST(Rng, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, ForkDecorrelates) {
  Rng a(7);
  Rng child = a.fork();
  // Child and parent streams should differ.
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.uniform() != child.uniform()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformRange) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng r(2);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.uniform_int(0, 3));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(Rng, LognormalMeanCvMatchesMoments) {
  Rng r(3);
  const double mean = 60.0, cv = 0.4;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.lognormal_mean_cv(mean, cv);
  EXPECT_NEAR(sum / n, mean, mean * 0.02);
}

TEST(Rng, LognormalZeroCvIsDegenerate) {
  Rng r(4);
  EXPECT_DOUBLE_EQ(r.lognormal_mean_cv(42.0, 0.0), 42.0);
}

TEST(Rng, LognormalRejectsNonPositiveMean) {
  Rng r(4);
  EXPECT_THROW(r.lognormal_mean_cv(0.0, 0.4), std::invalid_argument);
}

TEST(Rng, DirichletSumsToOne) {
  Rng r(5);
  const auto v = r.dirichlet(10, 0.3);
  ASSERT_EQ(v.size(), 10u);
  double sum = 0.0;
  for (double x : v) {
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng r(6);
  const std::vector<double> w{0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(r.weighted_index(w), 1u);
  }
}

TEST(Rng, WeightedIndexThrowsOnAllZero) {
  Rng r(6);
  const std::vector<double> w{0.0, 0.0};
  EXPECT_THROW(r.weighted_index(w), std::invalid_argument);
}

TEST(Rng, IndexThrowsOnZero) {
  Rng r(6);
  EXPECT_THROW(r.index(0), std::invalid_argument);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(7);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Summary, BasicMoments) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.variance(), 1.25);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(Summary, Percentiles) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(95), 95.05, 1e-9);
}

TEST(Summary, SingleSample) {
  Summary s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 5.0);
}

TEST(Summary, EmptyThrows) {
  Summary s;
  EXPECT_THROW((void)s.mean(), std::logic_error);
  EXPECT_THROW((void)s.percentile(50), std::logic_error);
  EXPECT_THROW((void)s.min(), std::logic_error);
}

TEST(Summary, PercentileRangeChecked) {
  Summary s;
  s.add(1.0);
  EXPECT_THROW((void)s.percentile(-1), std::invalid_argument);
  EXPECT_THROW((void)s.percentile(101), std::invalid_argument);
}

TEST(Summary, MergeCombinesSamples) {
  Summary a, b;
  a.add(1.0);
  b.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(Summary, AddAfterPercentileResorts) {
  Summary s;
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.median(), 10.0);
  s.add(0.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
}

TEST(PercentileSelect, BitEqualToSummaryPercentile) {
  Rng rng(11);
  const std::vector<double> ps{0.0, 100.0, 50.0, 95.0, 33.3, 66.7, 99.9};
  for (int round = 0; round < 200; ++round) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 300));
    std::vector<double> v(n);
    for (double& x : v) {
      // Half the rounds draw from 5 values: heavy duplicates.
      x = (round % 2 == 0) ? rng.uniform(-10.0, 10.0)
                           : static_cast<double>(rng.uniform_int(0, 4));
    }
    const Summary s{std::span<const double>(v)};
    std::vector<double> scratch = v;  // re-queried without a reset
    for (double p : ps) {
      EXPECT_EQ(percentile_select(scratch, p), s.percentile(p))
          << "n=" << n << " p=" << p;
      std::vector<double> fresh = v;
      EXPECT_EQ(percentile_select(fresh, p), s.percentile(p));
    }
    const double p = rng.uniform(0.0, 100.0);
    EXPECT_EQ(percentile_select(scratch, p), s.percentile(p));
  }
  std::vector<double> one{3.5};
  EXPECT_EQ(percentile_select(one, 0.0), 3.5);
  EXPECT_EQ(percentile_select(one, 100.0), 3.5);
}

TEST(PercentileSelect, ChecksInputLikeSummary) {
  std::vector<double> empty;
  EXPECT_THROW((void)percentile_select(empty, 50.0), std::logic_error);
  std::vector<double> v{1.0, 2.0};
  EXPECT_THROW((void)percentile_select(v, -1.0), std::invalid_argument);
  EXPECT_THROW((void)percentile_select(v, 100.5), std::invalid_argument);
}

TEST(EmpiricalCdf, MonotoneAndComplete) {
  std::vector<double> xs{5, 1, 3, 2, 4};
  const auto cdf = empirical_cdf(xs, 5);
  ASSERT_EQ(cdf.size(), 5u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].value, cdf[i - 1].value);
    EXPECT_GT(cdf[i].fraction, cdf[i - 1].fraction);
  }
  EXPECT_DOUBLE_EQ(cdf.back().fraction, 1.0);
  EXPECT_DOUBLE_EQ(cdf.back().value, 5.0);
}

TEST(EmpiricalCdf, EmptyInput) {
  EXPECT_TRUE(empirical_cdf({}, 5).empty());
}

TEST(JsDivergence, IdenticalIsZero) {
  std::vector<double> p{0.5, 0.5};
  EXPECT_NEAR(js_divergence(p, p), 0.0, 1e-12);
}

TEST(JsDivergence, DisjointIsOne) {
  std::vector<double> p{1.0, 0.0};
  std::vector<double> q{0.0, 1.0};
  EXPECT_NEAR(js_divergence(p, q), 1.0, 1e-12);
}

TEST(JsDivergence, SymmetricAndBounded) {
  std::vector<double> p{0.7, 0.2, 0.1};
  std::vector<double> q{0.1, 0.3, 0.6};
  const double a = js_divergence(p, q);
  const double b = js_divergence(q, p);
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_GT(a, 0.0);
  EXPECT_LT(a, 1.0);
}

TEST(JsDivergence, DimensionMismatchThrows) {
  std::vector<double> p{1.0};
  std::vector<double> q{0.5, 0.5};
  EXPECT_THROW(js_divergence(p, q), std::invalid_argument);
}

TEST(FormatRatio, Formats) {
  EXPECT_EQ(format_ratio(1.8812), "1.88x");
  EXPECT_EQ(format_ratio(2.0, 1), "2.0x");
}

TEST(Logging, LevelFiltering) {
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Should not crash; output suppressed below level.
  VENN_INFO << "suppressed";
  VENN_ERROR << "emitted";
  set_log_level(LogLevel::kWarning);
}

TEST(Ids, TimeConstants) {
  EXPECT_DOUBLE_EQ(kMinute, 60.0);
  EXPECT_DOUBLE_EQ(kHour, 3600.0);
  EXPECT_DOUBLE_EQ(kDay, 86400.0);
}

}  // namespace
}  // namespace venn
