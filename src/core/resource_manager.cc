#include "core/resource_manager.h"

#include <algorithm>
#include <stdexcept>

namespace venn {

ResourceManager::ResourceManager(std::unique_ptr<Scheduler> scheduler)
    : scheduler_(std::move(scheduler)) {
  if (!scheduler_) throw std::invalid_argument("scheduler must not be null");
}

ResourceManager::JobEntry* ResourceManager::entry(JobId id) {
  if (!id.valid() || static_cast<std::size_t>(id.value()) >= jobs_.size()) {
    return nullptr;
  }
  JobEntry& e = jobs_[static_cast<std::size_t>(id.value())];
  return e.job != nullptr ? &e : nullptr;
}

void ResourceManager::register_job(Job* job, double solo_jct_estimate) {
  if (job == nullptr) throw std::invalid_argument("job must not be null");
  const JobId id = job->id();
  if (!id.valid()) throw std::invalid_argument("job id must not be negative");
  if (entry(id) != nullptr) {
    throw std::invalid_argument("job already registered");
  }
  const auto idx = static_cast<std::size_t>(id.value());
  if (idx >= jobs_.size()) jobs_.resize(idx + 1);
  JobEntry& e = jobs_[idx];
  e.job = job;
  e.group =
      sigs_.register_requirement(requirement_for(job->spec().category));
  e.solo_jct_estimate = solo_jct_estimate;
  job_order_.insert(
      std::lower_bound(job_order_.begin(), job_order_.end(), id), id);
  wants_dirty_ = true;
}

void ResourceManager::deregister_job(JobId id) {
  JobEntry* e = entry(id);
  if (e == nullptr) {
    throw std::invalid_argument("deregister_job: unknown job");
  }
  // The coordinator deregisters exactly when the job finished its last round
  // (or never; horizon censoring skips deregistration), so this is the
  // job-finish event.
  for (RunObserver* obs : observers_) {
    obs->on_job_finish(*e->job, e->job->completion_time());
  }
  job_order_.erase(
      std::lower_bound(job_order_.begin(), job_order_.end(), id));
  *e = JobEntry{};
  wants_dirty_ = true;
}

void ResourceManager::add_observer(RunObserver* obs) {
  if (obs == nullptr) throw std::invalid_argument("observer must not be null");
  observers_.push_back(obs);
}

PendingJob ResourceManager::make_pending(const JobEntry& e) const {
  const auto& req = e.job->request();
  PendingJob pj;
  pj.job = e.job->id();
  pj.request = req->id;
  pj.group = e.group;
  pj.remaining_demand = req->remaining_demand();
  pj.request_demand = req->demand;
  pj.remaining_service = e.job->remaining_service();
  pj.total_rounds = e.job->spec().rounds;
  pj.completed_rounds = e.job->completed_rounds();
  pj.job_arrival = e.job->spec().arrival;
  pj.request_submitted = req->submitted;
  pj.solo_jct_estimate = e.solo_jct_estimate;
  pj.random_priority = e.random_priority;
  return pj;
}

std::vector<PendingJob> ResourceManager::pending_view() const {
  // job_order_ is kept sorted by job id, so the walk is deterministic
  // without a per-call sort. A fresh scan, independent of the row table,
  // so tests can hold the policy's queue view against it.
  std::vector<PendingJob> out;
  out.reserve(job_order_.size());
  for (const JobId id : job_order_) {
    const JobEntry& e = slot(id);
    const auto& req = e.job->request();
    if (!req || !req->wants_devices()) continue;
    out.push_back(make_pending(e));
  }
  return out;
}

void ResourceManager::refresh_queue_cache() const {
  wants_mask_ = 0;
  rows_.clear();
  for (const JobId id : job_order_) {
    const JobEntry& e = slot(id);
    const auto& req = e.job->request();
    if (!req || !req->wants_devices()) continue;
    wants_mask_ |= (1ULL << e.group);
    rows_.push_back(make_pending(e));
  }
  wants_dirty_ = false;
}

std::size_t ResourceManager::num_pending_jobs() const {
  if (wants_dirty_) refresh_queue_cache();
  return rows_.size();
}

void ResourceManager::notify_queue_change(SimTime now) {
  // The policy reads the wanting-row table itself: no per-change copy.
  ++hstats_.view_builds;
  if (wants_dirty_) refresh_queue_cache();
  scheduler_->on_queue_change(rows_, now);
}

RoundRequest& ResourceManager::open_request(JobId id, SimTime now,
                                            double random_priority,
                                            int selection_target,
                                            int commit_threshold) {
  JobEntry* e = entry(id);
  if (e == nullptr) throw std::invalid_argument("open_request: unknown job");
  RoundRequest& req = e->job->open_request(RequestId(next_request_id_++), now,
                                           selection_target, commit_threshold);
  if (journal_ != nullptr) {
    journal_->on_submit(now, id, req.round, req.demand, req.target_responses);
  }
  e->random_priority = random_priority;
  wants_dirty_ = true;
  notify_queue_change(now);
  return req;
}

void ResourceManager::close_request(JobId id, SimTime now) {
  if (entry(id) == nullptr) {
    throw std::invalid_argument("close_request: unknown job");
  }
  wants_dirty_ = true;
  notify_queue_change(now);
}

void ResourceManager::assignment_failed(JobId id, SimTime now) {
  if (entry(id) == nullptr) return;  // job may have finished meanwhile
  wants_dirty_ = true;
  notify_queue_change(now);
}

void ResourceManager::release_assignment(JobId id, SimTime now) {
  // Same cache/notification consequences as a pre-allocation failure: the
  // request wants one more device than a moment ago.
  assignment_failed(id, now);
}

std::optional<AssignOutcome> ResourceManager::offer(std::size_t dev,
                                                    const DeviceSpec& spec,
                                                    std::uint64_t signature,
                                                    SimTime now) {
  const DeviceView view{DeviceId(static_cast<std::int64_t>(dev)), spec,
                        signature};
  ++hstats_.offers;

  // The candidates are the wanting rows whose group the device satisfies.
  // A device eligible for every wanting group is offered the table itself;
  // otherwise only its eligible rows are copied, with their table
  // positions, into reused buffers.
  if (wants_dirty_) refresh_queue_cache();
  hstats_.candidates_scanned += rows_.size();
  const bool every_row = (signature & wants_mask_) == wants_mask_;
  std::span<const PendingJob> candidates = rows_;
  if (!every_row) {
    candidates_.clear();
    candidate_rows_.clear();
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      if (!((signature >> rows_[r].group) & 1ULL)) continue;
      candidates_.push_back(rows_[r]);
      candidate_rows_.push_back(r);
    }
    candidates = candidates_;
  }
  if (candidates.empty()) return std::nullopt;

  const auto pick = scheduler_->assign(view, candidates, now);
  if (!pick) return std::nullopt;
  PendingJob& row = rows_.at(every_row ? *pick : candidate_rows_.at(*pick));

  Job& job = *slot(row.job).job;
  RoundRequest& req = job.mutable_request();
  if (req.id != row.request || !req.wants_devices()) {
    throw std::logic_error("scheduler picked a stale request");
  }
  ++req.assigned;
  // The one row field an assignment changes, patched in place.
  row.remaining_demand = req.remaining_demand();

  AssignOutcome out;
  out.job = row.job;
  out.request = req.id;
  out.round = req.round;
  out.request_submitted = req.submitted;
  out.deadline = req.deadline;
  if (req.assigned >= req.demand) {
    req.state = RequestState::kAllocated;
    req.fully_allocated = now;
    out.fully_allocated = true;
    // Filling the request is the one way an assignment changes the
    // wanting set; every path that reopens demand marks it itself.
    wants_dirty_ = true;
  }
  for (RunObserver* obs : observers_) {
    obs->on_assignment(view, job, out, now);
  }
  return out;
}

std::optional<AssignOutcome> ResourceManager::device_checkin(
    std::size_t dev, const DeviceSpec& spec, std::uint64_t signature,
    SimTime now) {
  scheduler_->on_device_checkin(
      {DeviceId(static_cast<std::int64_t>(dev)), spec, signature}, now);
  return offer(dev, spec, signature, now);
}

void ResourceManager::notify_response(JobId job, double capacity,
                                      double response_time, SimTime now,
                                      int staleness) {
  scheduler_->on_response(job, capacity, response_time, now);
  const JobEntry* e = entry(job);
  if (e == nullptr) return;
  for (RunObserver* obs : observers_) {
    obs->on_response_collected(*e->job, staleness, now);
  }
}

void ResourceManager::notify_straggler_released(const DeviceView& dev,
                                                const Job& job, SimTime now) {
  // Takes the Job directly (not an id): a straggler release deferred past
  // the job-finish deregistration must still reach observers.
  for (RunObserver* obs : observers_) {
    obs->on_straggler_released(dev, job, now);
  }
}

void ResourceManager::notify_round_complete(JobId job, SimTime sched_delay,
                                            SimTime response_time,
                                            SimTime now) {
  scheduler_->on_round_complete(job, sched_delay, response_time, now);
  // A buffered commit advances the job's completed rounds right after this
  // call while its request stays open: its row goes stale without a
  // queue change, so the table is rebuilt on its next read.
  wants_dirty_ = true;
  const JobEntry* e = entry(job);
  if (e == nullptr) return;
  for (RunObserver* obs : observers_) {
    obs->on_round_complete(*e->job, sched_delay, response_time, now);
  }
}

}  // namespace venn
