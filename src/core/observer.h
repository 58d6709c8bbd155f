// RunObserver: composable instrumentation of a simulation run.
//
// The resource manager and coordinator emit three lifecycle events —
// a device was assigned to a job, a round completed, a job finished — and
// any number of observers may subscribe. Metrics that used to be baked into
// the coordinator (the Fig. 8a assignment matrix) and ad-hoc recorders (the
// tsdb time-series of cluster activity) are implemented as observers, so
// experiments compose exactly the instrumentation they need.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "device/eligibility.h"
#include "job/job.h"
#include "scheduler/scheduler.h"

namespace venn {

struct AssignOutcome;  // core/resource_manager.h

class RunObserver {
 public:
  virtual ~RunObserver() = default;

  // A new run is starting and simulated time restarts at zero. Observers
  // that accumulate time-indexed state (e.g. the TimeSeriesRecorder) reset
  // here; an observer subscribed to several runs of one Experiment would
  // otherwise interleave their event streams.
  virtual void on_run_start() {}

  // A device was assigned to a job (the assignment may later fail if the
  // device's session ends before the task completes — observers counting
  // assignments count attempts, exactly like the Fig. 8a matrix). `dev` is
  // the view the scheduler assigned.
  virtual void on_assignment(const DeviceView& /*dev*/, const Job& /*job*/,
                             const AssignOutcome& /*outcome*/,
                             SimTime /*now*/) {}

  // A device reported a result that counts toward the job's current round.
  // `staleness` is the number of round commits between assignment and
  // response — always 0 under synchronous protocols; buffered-aggregation
  // (async) responses may be arbitrarily stale.
  virtual void on_response_collected(const Job& /*job*/, int /*staleness*/,
                                     SimTime /*now*/) {}

  // A round committed or aborted while this device was still computing for
  // it, and the protocol released the device back to the idle pool: its
  // in-flight work is wasted and its day-participation budget refunded.
  virtual void on_straggler_released(const DeviceView& /*dev*/,
                                     const Job& /*job*/, SimTime /*now*/) {}

  // A round completed, with its measured scheduling delay and response
  // collection time.
  virtual void on_round_complete(const Job& /*job*/, SimTime /*sched_delay*/,
                                 SimTime /*response_time*/, SimTime /*now*/) {}

  // A job finished its last round (completion time already recorded).
  virtual void on_job_finish(const Job& /*job*/, SimTime /*now*/) {}
};

// Assignment counts by (device region, job category), where region is the
// finest Fig. 8a eligibility region the device belongs to. Diagnostic for
// how each policy spends scarce devices; previously baked into the
// coordinator, now an ordinary observer installed by the run path.
using AssignmentMatrix =
    std::array<std::array<std::int64_t, kNumCategories>, kNumCategories>;

class AssignmentMatrixObserver final : public RunObserver {
 public:
  void on_assignment(const DeviceView& dev, const Job& job,
                     const AssignOutcome&, SimTime) override {
    ++matrix_[static_cast<int>(finest_region(dev.spec))]
             [static_cast<int>(job.spec().category)];
  }

  [[nodiscard]] const AssignmentMatrix& matrix() const { return matrix_; }

  [[nodiscard]] std::int64_t total() const {
    std::int64_t n = 0;
    for (const auto& row : matrix_) {
      for (const std::int64_t c : row) n += c;
    }
    return n;
  }

 private:
  AssignmentMatrix matrix_{};
};

}  // namespace venn
