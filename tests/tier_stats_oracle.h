// Copy-and-select references for the scheduler's tier statistics, the way
// the scheduler computed them before it read them in place:
//  * a group's tier thresholds copy the whole capacity window and select
//    each quantile with percentile_select, then flatten non-ascending
//    quantiles;
//  * a profile's unpinned thresholds select quantiles from a copy of all
//    its capacities (no flattening);
//  * a tier's speed-up g_v copies the tier's response times and all
//    response times and selects the tail percentile of each;
//  * a candidate's sort key looks its job's fairness multiplier up in a map
//    filled from the last queue change, and a job missing from it keeps its
//    plain remaining demand.
// The tests compare the scheduler against these bit for bit.
#pragma once

#include <algorithm>
#include <span>
#include <unordered_map>
#include <vector>

#include "scheduler/fairness.h"
#include "scheduler/scheduler.h"
#include "util/stats.h"

namespace venn::oracle {

// TierProfile's thresholds derived from its own capacities.
inline std::vector<double> profile_thresholds(std::span<const double> caps,
                                              std::size_t tiers) {
  std::vector<double> copy(caps.begin(), caps.end());
  std::vector<double> th{0.0};
  for (std::size_t v = 1; v < tiers; ++v) {
    th.push_back(percentile_select(
        copy, 100.0 * static_cast<double>(v) / static_cast<double>(tiers)));
  }
  th.push_back(1.0 + 1e-12);
  return th;
}

// VennScheduler::group_thresholds over a window of check-in capacities:
// the same quantiles, flattened where they do not ascend; empty below
// 10 x tiers samples.
inline std::vector<double> group_thresholds(std::span<const double> window,
                                            std::size_t tiers) {
  if (window.size() < 10 * tiers) return {};
  std::vector<double> th = profile_thresholds(window, tiers);
  for (std::size_t i = 1; i < th.size(); ++i) {
    th[i] = std::max(th[i], th[i - 1]);
  }
  return th;
}

// TierProfile::speedup(tier) under thresholds `th`.
inline double speedup(std::span<const double> caps,
                      std::span<const double> response_times,
                      std::span<const double> th, std::size_t tier,
                      double tail_percentile) {
  std::vector<double> in_tier;
  for (std::size_t i = 0; i < caps.size(); ++i) {
    if (caps[i] >= th[tier] && caps[i] < th[tier + 1]) {
      in_tier.push_back(response_times[i]);
    }
  }
  if (in_tier.empty() || response_times.empty()) return 1.0;
  std::vector<double> all(response_times.begin(), response_times.end());
  const double t0 = percentile_select(all, tail_percentile);
  if (t0 <= 0.0) return 1.0;
  return percentile_select(in_tier, tail_percentile) / t0;
}

// VennScheduler::sort_key against the fairness multipliers of the last
// queue change, recomputed from that change's pending set.
class SortKeys {
 public:
  void on_queue_change(std::span<const PendingJob> pending, SimTime now,
                       double epsilon) {
    mult_.clear();
    const double num_jobs = std::max<double>(1.0, pending.size());
    for (const PendingJob& pj : pending) {
      JobFairnessInput fin;
      fin.progress = pj.total_rounds > 0
                         ? static_cast<double>(pj.completed_rounds) /
                               static_cast<double>(pj.total_rounds)
                         : 0.0;
      fin.elapsed = now - pj.job_arrival;
      fin.fair_jct = num_jobs * std::max(pj.solo_jct_estimate, 1.0);
      mult_[pj.job.value()] =
          adjusted_demand(1.0, relative_usage(fin), epsilon);
    }
  }

  [[nodiscard]] double key(const PendingJob& pj,
                           bool order_by_total_remaining) const {
    const double base = order_by_total_remaining
                            ? pj.remaining_service
                            : static_cast<double>(pj.remaining_demand);
    const auto it = mult_.find(pj.job.value());
    return it != mult_.end() ? base * it->second : base;
  }

 private:
  std::unordered_map<std::int64_t, double> mult_;
};

}  // namespace venn::oracle
