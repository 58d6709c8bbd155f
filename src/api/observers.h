// Stock observers built on the RunObserver interface.
//
// AssignmentMatrixObserver lives in core/observer.h (the run path installs
// it for every run). This header adds the time-series recorder: cluster
// activity streamed into the same tsdb store the Venn scheduler uses for
// supply estimation, so experiments can ask "what was the assignment rate
// over the last day?" the way §4.4 asks it about device supply.
#pragma once

#include "core/observer.h"
#include "tsdb/timeseries.h"

namespace venn::api {

// Records one point per lifecycle event, keyed by stream:
//   kAssignments        — value 1 per device-to-job assignment
//   kRoundsCompleted    — value = the round's scheduling delay (sum/rate
//                         queries give delay totals; count queries rounds)
//   kJobsFinished       — value = the job's JCT
//   kResponses          — value = the response's staleness in rounds (0
//                         under sync; count queries give responses, sum
//                         queries give total staleness)
//   kStragglersReleased — value 1 per device a protocol cut off
//                         mid-computation (over-selection wasted work)
class TimeSeriesRecorder final : public RunObserver {
 public:
  enum Stream : std::uint64_t {
    kAssignments = 0,
    kRoundsCompleted = 1,
    kJobsFinished = 2,
    kResponses = 3,
    kStragglersReleased = 4,
  };

  // Holds the most recent run only: a fresh run restarts simulated time at
  // zero, so carrying points across runs would break series monotonicity.
  void on_run_start() override { store_ = {}; }

  void on_assignment(const DeviceView&, const Job&, const AssignOutcome&,
                     SimTime now) override {
    store_.record(kAssignments, now);
  }

  void on_response_collected(const Job&, int staleness,
                             SimTime now) override {
    store_.record(kResponses, now, static_cast<double>(staleness));
  }

  void on_straggler_released(const DeviceView&, const Job&,
                             SimTime now) override {
    store_.record(kStragglersReleased, now);
  }

  void on_round_complete(const Job&, SimTime sched_delay, SimTime,
                         SimTime now) override {
    store_.record(kRoundsCompleted, now, sched_delay);
  }

  // Mean response staleness (rounds) over the trailing window — the
  // FedBuff-style health signal of a buffered-aggregation run.
  [[nodiscard]] double mean_staleness(SimTime now, SimTime window) const {
    const tsdb::Series* s = store_.find(kResponses);
    if (s == nullptr) return 0.0;
    const std::size_t n = s->count_in_window(now, window);
    return n == 0 ? 0.0
                  : s->sum_in_window(now, window) / static_cast<double>(n);
  }

  void on_job_finish(const Job& job, SimTime now) override {
    store_.record(kJobsFinished, now, job.jct());
  }

  [[nodiscard]] const tsdb::TimeSeriesStore& store() const { return store_; }

  // Assignments per second over the trailing window ending at `now`.
  [[nodiscard]] double assignment_rate(SimTime now, SimTime window) const {
    return store_.rate(kAssignments, now, window);
  }

 private:
  tsdb::TimeSeriesStore store_;
};

}  // namespace venn::api
