#include "core/resource_manager.h"

#include <algorithm>
#include <stdexcept>

namespace venn {

ResourceManager::ResourceManager(std::unique_ptr<Scheduler> scheduler)
    : scheduler_(std::move(scheduler)) {
  if (!scheduler_) throw std::invalid_argument("scheduler must not be null");
}

void ResourceManager::register_job(Job* job, double solo_jct_estimate) {
  if (job == nullptr) throw std::invalid_argument("job must not be null");
  if (jobs_.contains(job->id())) {
    throw std::invalid_argument("job already registered");
  }
  JobEntry e;
  e.job = job;
  e.group =
      sigs_.register_requirement(requirement_for(job->spec().category));
  e.solo_jct_estimate = solo_jct_estimate;
  JobEntry& stored = jobs_.emplace(job->id(), e).first->second;
  const auto pos = std::lower_bound(
      job_order_.begin(), job_order_.end(), job->id(),
      [](const JobEntry* a, JobId id) { return a->job->id() < id; });
  job_order_.insert(pos, &stored);
  wants_dirty_ = true;
}

void ResourceManager::deregister_job(JobId id) {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    throw std::invalid_argument("deregister_job: unknown job");
  }
  // The coordinator deregisters exactly when the job finished its last round
  // (or never; horizon censoring skips deregistration), so this is the
  // job-finish event.
  for (RunObserver* obs : observers_) {
    obs->on_job_finish(*it->second.job, it->second.job->completion_time());
  }
  job_order_.erase(std::lower_bound(
      job_order_.begin(), job_order_.end(), id,
      [](const JobEntry* a, JobId b) { return a->job->id() < b; }));
  jobs_.erase(it);
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
  // without a per-call sort. A fresh scan, independent of the wanting
  // cache, so tests can hold the policy's queue view against it.
  std::vector<PendingJob> out;
  out.reserve(job_order_.size());
  for (const JobEntry* e : job_order_) {
    const auto& req = e->job->request();
    if (!req || !req->wants_devices()) continue;
    out.push_back(make_pending(*e));
  }
  return out;
}

void ResourceManager::refresh_queue_cache() const {
  wants_mask_ = 0;
  wanting_.clear();
  for (JobEntry* e : job_order_) {
    const auto& req = e->job->request();
    if (!req || !req->wants_devices()) continue;
    wants_mask_ |= (1ULL << e->group);
    wanting_.push_back(e);
  }
  wants_dirty_ = false;
}

std::size_t ResourceManager::num_pending_jobs() const {
  if (wants_dirty_) refresh_queue_cache();
  return wanting_.size();
}

void ResourceManager::notify_queue_change(SimTime now) {
  // The view is filled from the id-ordered wanting cache into one reused
  // buffer: no allocation once its capacity covers the queue.
  ++hstats_.view_builds;
  if (wants_dirty_) refresh_queue_cache();
  queue_view_.clear();
  for (const JobEntry* e : wanting_) queue_view_.push_back(make_pending(*e));
  scheduler_->on_queue_change(queue_view_, now);
}

RoundRequest& ResourceManager::open_request(JobId id, SimTime now,
                                            double random_priority,
                                            int selection_target,
                                            int commit_threshold) {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) throw std::invalid_argument("open_request: unknown job");
  JobEntry& e = it->second;
  RoundRequest& req = e.job->open_request(RequestId(next_request_id_++), now,
                                          selection_target, commit_threshold);
  if (journal_ != nullptr) {
    journal_->on_submit(now, id, req.round, req.demand, req.target_responses);
  }
  e.random_priority = random_priority;
  wants_dirty_ = true;
  notify_queue_change(now);
  return req;
}

void ResourceManager::close_request(JobId id, SimTime now) {
  if (!jobs_.contains(id)) {
    throw std::invalid_argument("close_request: unknown job");
  }
  wants_dirty_ = true;
  notify_queue_change(now);
}

void ResourceManager::assignment_failed(JobId id, SimTime now) {
  if (!jobs_.contains(id)) return;  // job may have finished meanwhile
  wants_dirty_ = true;
  notify_queue_change(now);
}

void ResourceManager::release_assignment(JobId id, SimTime now) {
  // Same cache/notification consequences as a pre-allocation failure: the
  // request wants one more device than a moment ago.
  assignment_failed(id, now);
}

DeviceView ResourceManager::device_view(const Device& dev) const {
  DeviceView v;
  v.id = dev.id();
  v.spec = dev.spec();
  v.signature = sigs_.signature_of(dev.spec());
  return v;
}

std::optional<AssignOutcome> ResourceManager::offer(const Device& dev,
                                                    std::uint64_t signature,
                                                    SimTime now) {
  DeviceView view;
  view.id = dev.id();
  view.spec = dev.spec();
  view.signature = signature;
  ++hstats_.offers;

  // Candidate enumeration walks only the (cached, id-ordered) entries whose
  // request still wants devices — no per-offer materialization, and the
  // buffer's capacity is reused across offers.
  candidates_.clear();
  if (wants_dirty_) refresh_queue_cache();
  for (const JobEntry* e : wanting_) {
    ++hstats_.candidates_scanned;
    const auto& req = e->job->request();
    if (!req || !req->wants_devices()) continue;
    if (!((view.signature >> e->group) & 1ULL)) continue;
    candidates_.push_back(make_pending(*e));
  }
  if (candidates_.empty()) return std::nullopt;

  const auto pick = scheduler_->assign(view, candidates_, now);
  if (!pick) return std::nullopt;
  const PendingJob& winner = candidates_.at(*pick);

  JobEntry& e = jobs_.at(winner.job);
  RoundRequest& req = e.job->mutable_request();
  if (req.id != winner.request || !req.wants_devices()) {
    throw std::logic_error("scheduler picked a stale request");
  }
  ++req.assigned;

  AssignOutcome out;
  out.job = winner.job;
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
    obs->on_assignment(dev, *e.job, out, now);
  }
  return out;
}

std::optional<AssignOutcome> ResourceManager::device_checkin(
    const Device& dev, std::uint64_t signature, SimTime now) {
  scheduler_->on_device_checkin({dev.id(), dev.spec(), signature}, now);
  return offer(dev, signature, now);
}

void ResourceManager::notify_response(JobId job, double capacity,
                                      double response_time, SimTime now,
                                      int staleness) {
  scheduler_->on_response(job, capacity, response_time, now);
  auto it = jobs_.find(job);
  if (it == jobs_.end()) return;
  for (RunObserver* obs : observers_) {
    obs->on_response_collected(*it->second.job, staleness, now);
  }
}

void ResourceManager::notify_straggler_released(const Device& dev,
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
  auto it = jobs_.find(job);
  if (it == jobs_.end()) return;
  for (RunObserver* obs : observers_) {
    obs->on_round_complete(*it->second.job, sched_delay, response_time, now);
  }
}

}  // namespace venn
