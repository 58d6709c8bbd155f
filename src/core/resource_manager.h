// The Venn resource manager — the system of Fig. 6.
//
// Venn "serves as a standalone CL resource manager that operates at a layer
// above all CL jobs, and it is responsible for allocating each checked-in
// resource to individual jobs" (§3). This class is that layer: jobs register
// and submit per-round resource requests (step 0), devices check in as they
// become available (step 1), and the manager — consulting its pluggable
// scheduling policy — assigns one job per checked-in device (step 2).
// Everything after assignment (computation, reporting, fault handling) is
// the job/device protocol (steps 3-5) and is driven by the simulation
// coordinator; per Appendix A, Venn deliberately delegates device selection
// refinements, fault tolerance and privacy to the jobs themselves.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/observer.h"
#include "device/device.h"
#include "device/eligibility.h"
#include "job/job.h"
#include "journal/sink.h"
#include "scheduler/scheduler.h"

namespace venn {

// Result of offering one device to the manager.
struct AssignOutcome {
  JobId job;
  RequestId request;
  int round = 0;
  bool fully_allocated = false;  // this assignment completed the allocation
  SimTime request_submitted = 0.0;
  SimTime deadline = 0.0;  // reporting deadline span for the request
};

class ResourceManager {
 public:
  explicit ResourceManager(std::unique_ptr<Scheduler> scheduler);

  // ----- job lifecycle ---------------------------------------------------
  // Registers a job; its requirement defines (or joins) a job group. The
  // caller retains ownership and must keep the Job alive until
  // deregister_job. `solo_jct_estimate` is the contention-free JCT estimate
  // sd_i used by the fairness bound (§4.4).
  void register_job(Job* job, double solo_jct_estimate);
  void deregister_job(JobId id);

  // Opens the next-round request for a registered job and notifies the
  // policy of the queue change. `random_priority` seeds the optimized
  // Random baseline's per-request ordering. `selection_target` /
  // `commit_threshold` come from the round protocol (src/protocol/);
  // negative values keep the synchronous defaults (acquire the job's
  // demand, commit at ceil(0.8 x D)).
  RoundRequest& open_request(JobId id, SimTime now, double random_priority,
                             int selection_target = -1,
                             int commit_threshold = -1);

  // Marks the job's current request completed / aborted and notifies the
  // policy. (The Job object records stats via its own methods.)
  void close_request(JobId id, SimTime now);

  // A pre-allocation device failure reopened one unit of demand.
  void assignment_failed(JobId id, SimTime now);

  // Continuous-admission protocols: a response (or in-flight failure)
  // freed one assignment slot on the job's long-lived request — requeue it
  // with the policy and invalidate the wants cache.
  void release_assignment(JobId id, SimTime now);

  // ----- device flow -----------------------------------------------------
  // `signature` is the device's eligibility signature over this manager's
  // space, read by the coordinator from its index's signature column; it
  // must carry every bit signatures().signature_of(dev.spec()) would.
  //
  // A device checks in (session start). Records supply with the policy and
  // attempts an assignment.
  [[nodiscard]] std::optional<AssignOutcome> device_checkin(
      const Device& dev, std::uint64_t signature, SimTime now);
  // The same for a manager driven without an eligibility index: the
  // signature is computed from the device's spec.
  [[nodiscard]] std::optional<AssignOutcome> device_checkin(const Device& dev,
                                                            SimTime now) {
    return device_checkin(dev, sigs_.signature_of(dev.spec()), now);
  }

  // Re-offer an idle device (no supply re-recording).
  [[nodiscard]] std::optional<AssignOutcome> offer(const Device& dev,
                                                   std::uint64_t signature,
                                                   SimTime now);

  // ----- policy notifications passed through ------------------------------
  // `staleness` (round commits between assignment and response; 0 under
  // synchronous protocols) reaches observers; the policy sees the same
  // response signal it always has.
  void notify_response(JobId job, double capacity, double response_time,
                       SimTime now, int staleness = 0);
  void notify_round_complete(JobId job, SimTime sched_delay,
                             SimTime response_time, SimTime now);
  // A protocol released `dev` mid-computation (straggler disposition);
  // forwarded to observers for wasted-work accounting.
  void notify_straggler_released(const Device& dev, const Job& job,
                                 SimTime now);

  // ----- observers ---------------------------------------------------------
  // Subscribes `obs` to assignment / round-complete / job-finish events.
  // Callers retain ownership; observers must outlive the manager's run.
  void add_observer(RunObserver* obs);

  // ----- introspection ----------------------------------------------------
  [[nodiscard]] const SignatureSpace& signatures() const { return sigs_; }
  // The run's one requirement space, shared with the coordinator's
  // eligibility index (which registers into it).
  [[nodiscard]] SignatureSpace& signatures() { return sigs_; }
  [[nodiscard]] Scheduler& scheduler() { return *scheduler_; }
  [[nodiscard]] std::size_t num_pending_jobs() const;
  [[nodiscard]] DeviceView device_view(const Device& dev) const;

  // The pending-job view, built fresh from the registered jobs: what every
  // queue change hands the policy. For tests.
  [[nodiscard]] std::vector<PendingJob> pending_view() const;

  // ----- hot-path queries -------------------------------------------------
  // Bitmask over job groups with at least one request that still wants
  // devices. O(1) when the queue is unchanged since the last query
  // (recomputed lazily over the registered jobs otherwise; defined inline
  // so the sweep loops' refresh-after-offer reads compile to a flag test
  // and a load). An offer for a device whose eligibility signature misses
  // this mask is provably a no-op — the candidate set is empty and no
  // randomness is consumed — which lets the coordinator's idle-pool sweep
  // skip or stop early byte-identically.
  [[nodiscard]] std::uint64_t wants_mask() const {
    if (wants_dirty_) refresh_queue_cache();
    return wants_mask_;
  }
  [[nodiscard]] bool wants_devices() const { return wants_mask() != 0; }

  // ----- durability -------------------------------------------------------
  // Journal sink for round submissions (the manager owns request-id
  // assignment, so it emits the kSubmit records). Null = journaling off.
  // The coordinator wires this from its own config; caller retains
  // ownership for the duration of the run.
  void set_journal(journal::JournalSink* sink) { journal_ = sink; }

  // Next request id to be assigned — part of the durability snapshot (a
  // restored run must continue the id sequence, not restart it).
  [[nodiscard]] std::int64_t next_request_id() const {
    return next_request_id_;
  }

  // Per-event work counters backing the perf-regression harness: the stress
  // tests and the hotpath bench's work-counter gate bound them per event.
  struct HotpathStats {
    std::uint64_t offers = 0;             // offers, check-ins included
    std::uint64_t candidates_scanned = 0; // job entries examined across offers
    std::uint64_t view_builds = 0;        // queue views handed to the policy
  };
  [[nodiscard]] const HotpathStats& hotpath_stats() const { return hstats_; }

 private:
  struct JobEntry {
    Job* job = nullptr;
    std::size_t group = 0;  // requirement index in sigs_
    double solo_jct_estimate = 0.0;
    double random_priority = 0.0;  // of the currently open request
  };

  void notify_queue_change(SimTime now);
  [[nodiscard]] PendingJob make_pending(const JobEntry& e) const;

  std::unique_ptr<Scheduler> scheduler_;
  SignatureSpace sigs_;
  std::unordered_map<JobId, JobEntry> jobs_;
  // Registered entries in ascending job-id order (pointers into jobs_, which
  // keeps element addresses stable). Replaces the per-offer materialize+sort
  // of the whole pending view with a pre-sorted walk.
  std::vector<JobEntry*> job_order_;
  std::vector<RunObserver*> observers_;
  journal::JournalSink* journal_ = nullptr;
  std::int64_t next_request_id_ = 0;

  mutable bool wants_dirty_ = true;
  mutable std::uint64_t wants_mask_ = 0;
  // Entries with a device-wanting open request, ascending id.
  mutable std::vector<JobEntry*> wanting_;
  mutable HotpathStats hstats_;
  std::vector<PendingJob> candidates_;  // offer's per-call buffer
  std::vector<PendingJob> queue_view_;  // notify_queue_change's buffer

  void refresh_queue_cache() const;  // recomputes wants_mask_ + wanting_
};

}  // namespace venn
