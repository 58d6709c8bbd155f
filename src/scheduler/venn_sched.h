// The Venn scheduler — paper §4, combining:
//  * IRS contention-aware job ordering (§4.2, Algorithm 1) over supply rates
//    estimated from a 24-hour trailing window in a time-series store (§4.4);
//  * resource-aware tier-based device matching (§4.3, Algorithm 2);
//  * the ε starvation-prevention knob (§4.4).
//
// Component toggles reproduce the Fig. 11 ablation: `enable_scheduling=false`
// degrades job ordering to FIFO ("Venn w/o sched"), `enable_matching=false`
// disables tier filtering ("Venn w/o match").
#pragma once

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "scheduler/fairness.h"
#include "scheduler/irs.h"
#include "scheduler/matching.h"
#include "scheduler/scheduler.h"
#include "tsdb/timeseries.h"
#include "util/rng.h"
#include "util/stats.h"

namespace venn {

struct VennConfig {
  bool enable_scheduling = true;  // IRS job ordering (§4.2)
  bool enable_matching = true;    // tier-based matching (§4.3)
  std::size_t num_tiers = 3;      // V
  double epsilon = 0.0;           // fairness knob ε (§4.4); 0 disables
  SimTime supply_window = 24.0 * kHour;  // §4.4: 24 h averaging
  double tail_percentile = 95.0;
  double ewma_alpha = 0.3;
  // Intra-group ordering scope (§4.2.1): "By default, the remaining resource
  // demand refers to the needs of a single request within one round.
  // However, it can also encompass the total remaining demand for all
  // upcoming rounds, provided such data is available." Our jobs declare
  // their round counts at submission, so the better-informed total variant
  // is the default; the per-round variant is exercised by the ablation
  // bench (bench/ablation_ordering).
  bool order_by_total_remaining = true;
};

class VennScheduler final : public Scheduler {
 public:
  VennScheduler(VennConfig cfg, Rng rng);

  [[nodiscard]] std::string name() const override;

  void on_device_checkin(const DeviceView& dev, SimTime now) override;
  void on_queue_change(std::span<const PendingJob> pending,
                       SimTime now) override;
  void on_response(JobId job, double capacity, double response_time,
                   SimTime now) override;
  void on_round_complete(JobId job, SimTime sched_delay, SimTime response_time,
                         SimTime now) override;

  [[nodiscard]] std::optional<std::size_t> assign(
      const DeviceView& dev, std::span<const PendingJob> candidates,
      SimTime now) override;

  // Introspection for tests / benches.
  struct MatchingStats {
    std::int64_t requests_seen = 0;   // requests that reached a tier decision
    std::int64_t requests_tiered = 0; // requests with an active tier filter
    std::int64_t devices_filtered = 0; // devices skipped by a tier filter
    // Round outcomes split by whether the round ran tier-filtered.
    std::int64_t rounds_tiered = 0;
    std::int64_t rounds_untiered = 0;
    double resp_sum_tiered = 0.0;
    double resp_sum_untiered = 0.0;
    double sched_sum_tiered = 0.0;
    double sched_sum_untiered = 0.0;
  };
  [[nodiscard]] const MatchingStats& matching_stats() const { return mstats_; }
  [[nodiscard]] const IrsPlan& plan() const { return plan_; }
  [[nodiscard]] const tsdb::TimeSeriesStore& supply_store() const {
    return supply_;
  }
  [[nodiscard]] const VennConfig& config() const { return cfg_; }
  // Intra-group order of a candidate: its live remaining demand (per the
  // ordering scope) times the fairness multiplier of the last queue change.
  [[nodiscard]] double sort_key(const PendingJob& pj) const;
  // The job's tier matcher, or nullptr before the scheduler has seen it.
  [[nodiscard]] const JobMatcher* matcher(JobId job) const {
    const auto j = static_cast<std::uint64_t>(job.value());
    return j < matchers_.size() ? matchers_[j].get() : nullptr;
  }
  // Tier thresholds partitioning group `g`'s eligible check-in population
  // into num_tiers equal-count bands, as the next new request in `g` gets
  // them; empty until enough check-ins. Valid until the next call.
  [[nodiscard]] std::span<const double> group_thresholds(std::size_t g);

 private:
  static constexpr std::size_t kMaxGroups = 64;  // signature bits

  JobMatcher& matcher_for(JobId job);

  VennConfig cfg_;
  Rng rng_;

  tsdb::TimeSeriesStore supply_;  // key: full eligibility signature
  // The plan lives in plan_arena_, which every queue change releases (after
  // dropping the old plan) before it builds the next one.
  PlanArena plan_arena_;
  IrsPlan plan_{&plan_arena_};
  std::uint64_t active_mask_ = 0;

  // Fairness multiplier r_i^ε by job id value, refreshed on every queue
  // change; 1 for a job the last change did not list. The intra-group sort
  // key is (live remaining demand) x multiplier so that demand drained
  // between plan recomputes is reflected immediately.
  std::vector<double> fairness_mult_;
  std::vector<std::size_t> mult_written_;  // ids the last change set

  // By job id value; created on a job's first request or observation.
  std::vector<std::unique_ptr<JobMatcher>> matchers_;
  MatchingStats mstats_;

  // Sliding reservoir of the last kCapReservoir check-in capacities per job
  // group; feeds eligible-population tier thresholds (§4.3). A ring: write
  // w lands in slot w mod kCapReservoir, and the quantiles read it as a
  // multiset, so only which value leaves matters (the oldest).
  //
  // group_thresholds keeps the ring's value-bin histogram (`count`) and
  // each slot's bin as last counted (`bins`), and brings them up to date
  // lazily: it re-bins only the slots written since its last call
  // (`counted` writes ago), with a full recount once a whole ring's worth
  // has been written in between. A check-in pays one store and one
  // increment; a threshold call pays for the new check-ins, not the ring.
  // A group slot no check-in has written holds no storage: its histogram
  // is allocated with its first write.
  static constexpr std::size_t kCapReservoir = 2048;
  static constexpr std::size_t kCapBins = 256;
  static std::uint8_t cap_bin(double c);  // a capacity's value bin
  struct CapRing {
    std::vector<double> caps;
    std::uint64_t writes = 0;   // check-ins recorded, ever
    std::uint64_t counted = 0;  // `writes` when `count` was last synced
    std::vector<std::uint8_t> bins;  // per slot: its bin in `count`
    std::vector<std::uint32_t> count;  // kCapBins once written
  };
  std::array<CapRing, kMaxGroups> group_caps_;

  // Per-queue-change scratch, reused so the request path allocates
  // nothing once warm.
  struct GroupAgg {
    double queue_len = 0.0;
    std::vector<JobFairnessInput> jobs;
  };
  std::array<GroupAgg, kMaxGroups> agg_;      // by group index
  std::vector<GroupInput> groups_;            // IRS inputs, ascending index
  std::vector<AtomSupply> atoms_;
  std::vector<double> th_scratch_;            // group_thresholds' result
  std::vector<double> bin_scratch_;           // its gathered rank bins
  std::vector<PercentileRank> rank_scratch_;  // its wanted ranks
  std::vector<std::size_t> order_scratch_;    // IrsPlan::order_for fallback
  std::uint64_t queue_changes_ = 0;  // drives periodic tsdb compaction
};

}  // namespace venn
