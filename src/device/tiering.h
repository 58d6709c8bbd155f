// Tier partitioning and profiling for resource-aware device matching.
//
// Paper §4.3 / Algorithm 2: "Venn partitions the eligible devices into V
// tiers based on their hardware capabilities ... Venn adaptively sets the
// tier partition thresholds based on the hardware capacity distribution of
// the devices that participated in earlier rounds" and "Venn profiles and
// estimates the response collection time for each device tier v and
// subsequently computes the speed-up factor g_v = t_v / t_0", using the 95th
// percentile as the statistical tail latency.
//
// TierProfile accumulates (capacity, response-time) observations for one job
// and answers: tier thresholds (capacity quantiles), the tier of a device,
// and the per-tier speed-up factors g_v.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "device/eligibility.h"

namespace venn {

class TierProfile {
 public:
  // `num_tiers` is V in the paper (Fig. 13 sweeps 1..4). `tail_percentile`
  // is the statistical tail used for response collection time (95th).
  explicit TierProfile(std::size_t num_tiers, double tail_percentile = 95.0);

  [[nodiscard]] std::size_t num_tiers() const { return num_tiers_; }

  // Record one participant observation from a finished round.
  void observe(double capacity, double response_time);

  [[nodiscard]] std::size_t num_observations() const {
    return obs_.size();
  }

  // True once enough observations exist to build meaningful tiers (at least
  // a handful per tier).
  [[nodiscard]] bool ready() const;

  // Pins the capacity thresholds externally instead of deriving them from
  // this job's own participants. The Venn resource manager observes every
  // device check-in, so it can partition the *eligible population* (§4.3
  // "partitions the eligible devices into V tiers") rather than the job's
  // participant sample — important because a tiered job's participants are
  // tier-biased, and self-derived quantiles would drift toward the top of
  // the range until the accepted band is a sliver of the pool. Must contain
  // num_tiers + 1 ascending values starting at 0. Copies into storage the
  // profile keeps, so re-pinning every request allocates nothing.
  void set_external_thresholds(std::span<const double> thresholds);

  // Capacity thresholds: tier v (0 = slowest) covers capacities in
  // [threshold[v], threshold[v+1]). External if pinned, otherwise computed
  // from observed participant quantiles. Requires ready().
  [[nodiscard]] std::vector<double> thresholds() const;

  // Tier index of a device capacity under the current thresholds.
  // Requires ready().
  [[nodiscard]] std::size_t tier_of(double capacity) const;

  // Speed-up factor g_v = t_v / t_0 where t_v is the tail response time of
  // tier v and t_0 the tail over all observations (non-tiered). Values < 1
  // mean tier v responds faster than the mixed population. Requires ready().
  // Reads the order statistics in place: t_0's at their ranks, the tier's
  // by one count of its members and a walk down from the slowest
  // observation to the tail ranks. No copy, no selection: the observations
  // since the last call are sorted and merged in first.
  [[nodiscard]] double speedup(std::size_t tier) const;

 private:
  // The pinned thresholds in place, or else the observed capacity quantiles
  // computed into `local`.
  [[nodiscard]] std::span<const double> active_thresholds(
      std::vector<double>& local) const;

  struct Observation {
    double response;
    double capacity;
  };
  // Sorts the observations past sorted_ by response and merges them into
  // the sorted prefix.
  void merge_new() const;

  std::size_t num_tiers_;
  double tail_percentile_;
  // The observations, sorted by response time up to sorted_ and in arrival
  // order after it. Every statistic is of a multiset, so nothing reads
  // the arrival order: speedup() sorts them in place (hence mutable), and
  // observe() costs one append.
  mutable std::vector<Observation> obs_;
  mutable std::size_t sorted_ = 0;
  std::vector<double> external_thresholds_;  // empty = derive from samples
};

// The activation condition of Algorithm 2 (line 7 / Fig. 7): tier-based
// matching is worthwhile iff  V + g_u * c  <  1 + c, i.e. the response-time
// saving outweighs the V-fold slower allocation rate. `c` is the job's
// response-collection-time : scheduling-delay ratio (c_i in the paper).
[[nodiscard]] bool tiering_beneficial(std::size_t num_tiers, double g_u,
                                      double c);

}  // namespace venn
