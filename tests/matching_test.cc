// Unit tests for device matching (Algorithm 2) and the fairness knob (§4.4).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "scheduler/fairness.h"
#include "scheduler/matching.h"

namespace venn {
namespace {

MatcherConfig cfg3() {
  MatcherConfig c;
  c.num_tiers = 3;
  return c;
}

// Speed-up selection buffer handed to begin_request.

void feed_bimodal_profile(JobMatcher& m, int reps = 20) {
  // Fast high-capacity devices and slow low-capacity ones, plus mid.
  for (int i = 0; i < reps; ++i) {
    m.observe_response(0.15, 220.0);
    m.observe_response(0.50, 110.0);
    m.observe_response(0.85, 45.0);
  }
}

TEST(JobMatcher, NoTieringBeforeProfileReady) {
  JobMatcher m(cfg3(), Rng(1));
  m.observe_round(10.0, 100.0);
  m.begin_request(RequestId(0), 0.0);
  EXPECT_FALSE(m.active_tier().has_value());
  EXPECT_TRUE(m.accepts(0.1));
  EXPECT_TRUE(m.accepts(0.9));
}

TEST(JobMatcher, NoTieringWithoutRoundEstimates) {
  JobMatcher m(cfg3(), Rng(1));
  feed_bimodal_profile(m);
  m.begin_request(RequestId(0), 0.0);
  EXPECT_FALSE(m.active_tier().has_value());
  EXPECT_FALSE(m.c_estimate().has_value());
}

TEST(JobMatcher, CEstimateIsResponseOverSched) {
  JobMatcher m(cfg3(), Rng(1));
  m.observe_round(50.0, 100.0);
  const auto c = m.c_estimate();
  ASSERT_TRUE(c.has_value());
  EXPECT_NEAR(*c, 2.0, 1e-9);
}

TEST(JobMatcher, CEstimateEwmaSmooths) {
  MatcherConfig mc = cfg3();
  mc.ewma_alpha = 0.5;
  JobMatcher m(mc, Rng(1));
  m.observe_round(100.0, 100.0);  // c = 1
  m.observe_round(100.0, 300.0);  // resp ewma: 200; sched: 100
  EXPECT_NEAR(*m.c_estimate(), 2.0, 1e-9);
}

TEST(JobMatcher, HighCWithFastTierActivates) {
  // c large (response dominates) and a drawn fast tier -> tiering on.
  JobMatcher m(cfg3(), Rng(7));
  feed_bimodal_profile(m);
  // sched 1 s, resp 500 s -> c = 500 >> V.
  m.observe_round(1.0, 500.0);
  int active = 0;
  for (int i = 0; i < 60; ++i) {
    m.begin_request(RequestId(i), 0.0);
    if (m.active_tier().has_value()) {
      ++active;
      // When active, the filter must partition: some capacity accepted,
      // some rejected.
      int accepted = 0;
      for (double cap : {0.1, 0.5, 0.9}) accepted += m.accepts(cap) ? 1 : 0;
      EXPECT_GE(accepted, 1);
      EXPECT_LT(accepted, 3);
    }
  }
  // The tier draw is uniform over 3 tiers; fast tiers (g < 1) activate.
  EXPECT_GT(active, 10);
  EXPECT_LT(active, 60);
}

TEST(JobMatcher, LowCNeverActivates) {
  JobMatcher m(cfg3(), Rng(7));
  feed_bimodal_profile(m);
  m.observe_round(1000.0, 10.0);  // c = 0.01: scheduling dominates
  for (int i = 0; i < 50; ++i) {
    m.begin_request(RequestId(i), 0.0);
    EXPECT_FALSE(m.active_tier().has_value());
  }
}

TEST(JobMatcher, SingleTierNeverActivates) {
  MatcherConfig mc;
  mc.num_tiers = 1;
  JobMatcher m(mc, Rng(1));
  feed_bimodal_profile(m);
  m.observe_round(1.0, 500.0);
  m.begin_request(RequestId(0), 0.0);
  EXPECT_FALSE(m.active_tier().has_value());
}

TEST(Fairness, NeutralWhenJustArrived) {
  JobFairnessInput in;
  in.progress = 0.0;
  in.elapsed = 0.0;
  in.fair_jct = 1000.0;
  EXPECT_DOUBLE_EQ(relative_usage(in), 1.0);
}

TEST(Fairness, BehindScheduleYieldsLowUsage) {
  JobFairnessInput in;
  in.progress = 0.1;
  in.elapsed = 500.0;  // half the fair JCT elapsed, only 10% done
  in.fair_jct = 1000.0;
  EXPECT_NEAR(relative_usage(in),
              (0.1 + kUsageSmoothing) / (0.5 + kUsageSmoothing), 1e-9);
  EXPECT_LT(relative_usage(in), 1.0);
}

TEST(Fairness, AheadOfScheduleYieldsHighUsage) {
  JobFairnessInput in;
  in.progress = 0.8;
  in.elapsed = 400.0;
  in.fair_jct = 1000.0;
  EXPECT_NEAR(relative_usage(in),
              (0.8 + kUsageSmoothing) / (0.4 + kUsageSmoothing), 1e-9);
  EXPECT_GT(relative_usage(in), 1.0);
}

TEST(Fairness, FreshZeroProgressJobIsNearNeutral) {
  // Regression: a job with zero progress that just arrived must not read as
  // maximally starved (it would jump every queue under large epsilon).
  JobFairnessInput in;
  in.progress = 0.0;
  in.elapsed = 1.0;
  in.fair_jct = 10000.0;
  EXPECT_GT(relative_usage(in), 0.9);
  // While a genuinely starved zero-progress job reads as far behind.
  in.elapsed = 1e6;
  EXPECT_LT(relative_usage(in), 0.1);
}

TEST(Fairness, UsageIsClamped) {
  JobFairnessInput in;
  in.progress = 1.0;
  in.elapsed = 1e-6;
  in.fair_jct = 1e9;
  EXPECT_LE(relative_usage(in), kMaxUsage);
  in.progress = 0.0;
  in.elapsed = 1e9;
  in.fair_jct = 1.0;
  EXPECT_GE(relative_usage(in), kMinUsage);
}

TEST(Fairness, EpsilonZeroIsIdentity) {
  EXPECT_DOUBLE_EQ(adjusted_demand(50.0, 0.3, 0.0), 50.0);
  EXPECT_DOUBLE_EQ(adjusted_queue_len(7.0, 0.3, 0.0), 7.0);
}

TEST(Fairness, BehindJobsSortEarlier) {
  // r < 1 shrinks demand (earlier in ascending sort); the adjustment is
  // one-sided, so ahead-of-schedule jobs (r > 1) are left untouched.
  EXPECT_LT(adjusted_demand(50.0, 0.5, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(adjusted_demand(50.0, 2.0, 1.0), 50.0);
}

TEST(Fairness, BehindGroupsLookLonger) {
  EXPECT_GT(adjusted_queue_len(7.0, 0.5, 1.0), 7.0);
  // One-sided: ahead groups keep their true queue length.
  EXPECT_DOUBLE_EQ(adjusted_queue_len(7.0, 2.0, 1.0), 7.0);
}

TEST(Fairness, KnobIsNormalized) {
  // The user-facing ε is scaled by kEpsilonScale internally.
  EXPECT_DOUBLE_EQ(adjusted_demand(50.0, 0.5, 4.0),
                   50.0 * std::pow(0.5, 4.0 * kEpsilonScale));
  EXPECT_DOUBLE_EQ(adjusted_queue_len(7.0, 0.5, 4.0),
                   7.0 * std::pow(2.0, 4.0 * kEpsilonScale));
}

TEST(Fairness, DeeplyStarvedJobOvercomesLargeSizeGap) {
  // A job 100x behind its fair share must eventually outrank a fresh job
  // 60x smaller: the boost is unbounded in the starvation depth.
  const double starved = adjusted_demand(3000.0, kMinUsage, 6.0);
  const double fresh = adjusted_demand(50.0, 1.0, 6.0);
  EXPECT_LT(starved, fresh);
}

TEST(Fairness, LargerEpsilonAmplifies) {
  const double d1 = adjusted_demand(50.0, 0.5, 1.0);
  const double d2 = adjusted_demand(50.0, 0.5, 3.0);
  EXPECT_LT(d2, d1);
}

TEST(Fairness, GroupUsageWeightsByFairJct) {
  std::vector<JobFairnessInput> jobs(2);
  jobs[0] = {0.5, 500.0, 1000.0};   // on schedule
  jobs[1] = {0.0, 900.0, 1000.0};   // far behind
  const double r = group_relative_usage(jobs);
  EXPECT_LT(r, 1.0);
  EXPECT_GT(r, 0.0);
  EXPECT_DOUBLE_EQ(group_relative_usage({}), 1.0);
}

// Property sweep: the Algorithm 2 activation condition is monotone — if a
// tier activates at some c, it also activates at any larger c (for g < 1).
class TieringMonotoneTest : public ::testing::TestWithParam<double> {};

TEST_P(TieringMonotoneTest, MonotoneInC) {
  const double g = GetParam();
  bool prev = false;
  for (double c = 0.0; c <= 50.0; c += 0.5) {
    const bool now = tiering_beneficial(3, g, c);
    if (prev) {
      EXPECT_TRUE(now) << "non-monotone at c=" << c << " g=" << g;
    }
    prev = now;
  }
}

INSTANTIATE_TEST_SUITE_P(Speedups, TieringMonotoneTest,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9));

}  // namespace
}  // namespace venn
