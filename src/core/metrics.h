// Metrics: per-job and aggregate JCT accounting.
//
// The paper's primary metric is average job completion time (§5.1); the
// evaluation additionally reports scheduling-delay / response-time splits
// (Fig. 5), improvement ratios over Random (Table 1, Figs. 11-13),
// percentile and category breakdowns (Tables 2-3) and the fair-share JCT
// hit rate (Fig. 14b).
#pragma once

#include <array>
#include <string>
#include <vector>

#include "core/observer.h"
#include "job/job.h"
#include "util/stats.h"

namespace venn {

class Coordinator;

struct JobResult {
  JobId id;
  trace::JobSpec spec;
  bool finished = false;
  SimTime jct = 0.0;  // censored at (horizon - arrival) if unfinished
  double solo_jct_estimate = 0.0;
  int completed_rounds = 0;
  int total_aborts = 0;
  std::vector<RoundStats> rounds;
};

// Aggregate round-protocol accounting for one run, counted live by the
// coordinator (Coordinator::protocol_stats()): rounds committed, response
// staleness under buffered aggregation, and wasted work — straggler
// releases under over-selection plus results discarded after their round
// ended.
struct ProtocolCounters {
  std::uint64_t commits = 0;
  std::uint64_t responses = 0;
  std::uint64_t wasted_responses = 0;
  std::uint64_t stragglers_released = 0;
  double wasted_work_s = 0.0;
  std::uint64_t staleness_sum = 0;
  std::uint64_t stale_responses = 0;

  // Mean staleness (round commits between assignment and response) over
  // the responses that counted toward a round; 0 for synchronous runs.
  [[nodiscard]] double mean_staleness() const {
    return responses == 0 ? 0.0
                          : static_cast<double>(staleness_sum) /
                                static_cast<double>(responses);
  }

  // Field-wise equality — the byte-identity checks (scenario_gallery,
  // hotpath_index, protocol tests) compare through this so a counter added
  // later is automatically covered.
  [[nodiscard]] bool operator==(const ProtocolCounters&) const = default;
};

struct RunResult {
  std::string scheduler;
  SimTime horizon = 0.0;
  std::vector<JobResult> jobs;
  // Round-protocol counters (src/protocol/): zero-staleness, zero-release
  // under the default sync protocol.
  ProtocolCounters protocol;
  // Assignments by (device region, job category), filled from an
  // AssignmentMatrixObserver by the run path (zero if none was installed).
  AssignmentMatrix assignment_matrix{};

  [[nodiscard]] double avg_jct() const;
  [[nodiscard]] std::size_t finished_jobs() const;

  // All per-round scheduling delays / response collection times.
  [[nodiscard]] Summary scheduling_delays() const;
  [[nodiscard]] Summary response_times() const;

  // Time-averaged number of simultaneously active jobs (M in §4.4):
  // Σ per-job lifetimes / makespan.
  [[nodiscard]] double avg_concurrency() const;

  // Fraction of jobs whose JCT is within the fair-share bound
  // T_i = M * sd_i, with M the average concurrency — Fig. 14b metric.
  [[nodiscard]] double fair_share_hit_rate() const;
};

// Collects results after Coordinator::run(). `jobs_registered` may include
// jobs that never arrived before the horizon; they are censored.
[[nodiscard]] RunResult collect_results(const Coordinator& coord,
                                        const std::string& scheduler_name);

// Average-JCT improvement of `x` over `base` (base.avg / x.avg) — the
// ratio reported throughout §5 ("improvements on average JCT over random
// matching").
[[nodiscard]] double improvement(const RunResult& base, const RunResult& x);

// Average JCT restricted to jobs selected by a predicate; used by the
// Table 2 (total-demand percentile) and Table 3 (category) breakdowns.
template <typename Pred>
[[nodiscard]] double avg_jct_where(const RunResult& r, Pred pred) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& j : r.jobs) {
    if (pred(j)) {
      sum += j.jct;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

}  // namespace venn
