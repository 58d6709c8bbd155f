#include "core/coordinator.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/logging.h"

namespace venn {

// One sweep's lazily-drawn Fisher-Yates permutation over a stable pool
// vector, realized visit by visit. Draw-displaced positions live in the coordinator's side array, valid
// only where stamped with this sweep's generation: a sweep costs
// O(devices visited), with no pool copy and no hashing. The pool vector
// must not change for the object's lifetime — the
// sweeping_/in_sweep_pass_ guards ensure that.
class Coordinator::SweepOrder {
 public:
  SweepOrder(const std::vector<std::size_t>& pool,
             std::vector<SweepSlot>& slots, std::uint64_t gen)
      : pool_(pool), slots_(slots), gen_(gen) {
    if (slots_.size() < pool_.size()) slots_.resize(pool_.size());
  }

  // The device at position p of the permutation so far: for p past the
  // last drawn position, a device the sweep has not visited yet.
  std::size_t at(std::size_t p) const {
    const SweepSlot& sp = slots_[p];
    return sp.gen == gen_ ? sp.dev : pool_[p];
  }

  // Realizes the swap of positions i and j (j >= i) and returns the
  // device emitted at position i.
  std::size_t draw(std::size_t i, std::size_t j) {
    SweepSlot& sj = slots_[j];
    const std::size_t d = sj.gen == gen_ ? sj.dev : pool_[j];
    if (j != i) {  // position i is never re-read; j might be
      const SweepSlot& si = slots_[i];
      sj.dev = si.gen == gen_ ? si.dev : pool_[i];
      sj.gen = gen_;
    }
    return d;
  }

 private:
  const std::vector<std::size_t>& pool_;
  std::vector<SweepSlot>& slots_;
  std::uint64_t gen_;
};

Coordinator::Coordinator(sim::Engine& engine, ResourceManager& manager,
                         std::vector<DeviceSpec> devices,
                         SessionColumn sessions,
                         std::vector<trace::JobSpec> specs,
                         CoordinatorConfig cfg)
    : engine_(engine),
      manager_(manager),
      sessions_(std::move(sessions)),
      cfg_(cfg),
      protocol_(cfg.protocol != nullptr ? cfg.protocol
                                        : &protocol::sync_protocol()) {
  if (cfg_.arrival != nullptr && cfg_.mix == nullptr) {
    throw std::invalid_argument(
        "Coordinator: open-loop arrivals require a job-mix sampler");
  }
  const std::size_t n = devices.size();
  // A column covering no device means the sessions stream from the churn
  // model; without one the fleet is sessionless, which an all-empty column
  // describes.
  streamed_ = cfg_.churn != nullptr && sessions_.devices() == 0;
  if (!streamed_ && sessions_.devices() == 0) {
    for (std::size_t d = 0; d < n; ++d) sessions_.push_device({});
  }
  // Struct-of-arrays hot state, the run's only per-device store: the specs
  // move in, the budgets are its participation column, and the
  // eligibility index below maintains hot_.signature in place.
  hot_.init(std::move(devices), sessions_);
  if (n > 0) {
    double acc = 0.0;
    for (const DeviceSpec& spec : hot_.spec) acc += 1.0 / speed(spec);
    mean_exec_factor_ = acc / static_cast<double>(n);
  }
  // Hierarchical topology: the immutable contiguous device→region
  // partition, the region→global uplink latency,
  // and per-region telemetry. Flat mode keeps one region and a 0.0 uplink;
  // both are also exactly what hier mode resolves to at regions'
  // boundaries (x + 0.0 == x), which is the zero-latency equivalence
  // contract the topology differential wall pins.
  regions_ = topology::RegionMap(n, cfg_.topo.hier ? cfg_.topo.regions : 1);
  uplink_ = cfg_.topo.hier ? cfg_.topo.sync_latency : 0.0;
  if (cfg_.topo.hier) tstats_.per_region.assign(regions_.regions(), {});

  index_ = std::make_unique<EligibilityIndex>(hot_, manager_.signatures(),
                                              regions_);
  // Durability: the manager emits the submit records (it owns request-id
  // assignment); everything else journals from here.
  manager_.set_journal(cfg_.journal);

  jobs_.reserve(specs.size());
  for (trace::JobSpec& spec : specs) create_job(std::move(spec));
}

void Coordinator::idle_insert(std::size_t d) {
  if (hot_.idle_pos[d] != 0) return;
  idle_vec_.push_back(d);
  hot_.idle_pos[d] = static_cast<std::uint32_t>(idle_vec_.size());
}

void Coordinator::idle_erase(std::size_t d) {
  const std::uint32_t pos = hot_.idle_pos[d];
  if (pos == 0) return;
  const std::size_t last = idle_vec_.back();
  idle_vec_[pos - 1] = last;
  hot_.idle_pos[last] = pos;
  idle_vec_.pop_back();
  hot_.idle_pos[d] = 0;
}

void Coordinator::retire_idle(std::size_t d) {
  if (hot_.idle_pos[d] == 0) return;
  if (cfg_.journal != nullptr) {
    cfg_.journal->on_checkout(engine_.now(), d);
  }
  idle_erase(d);
}

std::size_t Coordinator::resident_session_count() const {
  if (!streamed_) return sessions_.size();
  // Cursors currently holding a pending session (at most one each).
  std::size_t n = 0;
  for (const SimTime t : next_start_) n += t != kNoStart ? 1 : 0;
  return n;
}

double Coordinator::supply_rate(const Requirement& req) const {
  ++hstats_.supply_queries;
  // Registration assigns the requirement's bit; its first sight rebuckets
  // the signature column and accumulates the per-region partials.
  const std::size_t g = index_->register_requirement(req);
  // Under topology=hier each partial is what a regional coordinator
  // reports to the global one; flat mode has one region. The sum equals a
  // brute-force fleet scan EXACTLY (integer counts, integer-valued double
  // check-in sums; tests/supply_oracle_test.cc), which is what keeps hier
  // byte-identical to flat at zero sync latency.
  if (cfg_.topo.hier) ++tstats_.cross_region_supply_aggs;
  std::uint64_t eligible = 0;
  double checkins = 0.0;
  for (const topology::RegionSupply& p : index_->partials(g)) {
    eligible += p.eligible;
    checkins += p.checkins;
  }
  // The averaging span is the fleet's latest session end, the maximum of
  // every region's.
  const SimTime span = hot_.session_span;
  if (cfg_.churn != nullptr) {
    // Analytic rate from the churn model — used whether the sessions
    // stream or replay from a column, so the two estimate identically.
    const double rate = static_cast<double>(eligible) *
                        cfg_.churn->mean_sessions_per_day() / kDay;
    return std::max(rate, 1e-9);
  }
  // Daily-averaged check-in rate of eligible devices: one check-in per
  // session, averaged over the span the sessions cover.
  if (span <= 0.0 || checkins <= 0.0) return 1e-9;
  return checkins / span;
}

double Coordinator::solo_jct_estimate(const trace::JobSpec& spec) const {
  const Requirement req = requirement_for(spec.category);
  const double rate = supply_rate(req);

  // A contention-free job draws from the idle pool; by Little's law the pool
  // holds roughly (eligible check-in rate x mean session duration) devices,
  // so requests up to the pool size fill near-instantly and only the excess
  // waits for fresh check-ins.
  double mean_session = kHour;
  if (cfg_.churn != nullptr) {
    mean_session = cfg_.churn->mean_session_seconds();
  } else if (hot_.session_count > 0.0) {
    // The hot store accumulated the device-order sums once at
    // construction; the sessions never change after that.
    mean_session = hot_.session_time / hot_.session_count;
  }
  const double pool = rate * mean_session;
  const double excess = std::max(0.0, static_cast<double>(spec.demand) - pool);
  const double sched = excess / rate;

  // Expected response collection: mean execution over the population with a
  // tail factor (collection ends at the ~80th percentile responder).
  const double resp = spec.nominal_task_s * mean_exec_factor_ *
                      (1.0 + 1.5 * spec.task_cv);
  return static_cast<double>(spec.rounds) * (sched + resp);
}

void Coordinator::run() {
  setup();
  engine_.run_until(cfg_.horizon);
}

void Coordinator::setup() {
  // Arrivals of the jobs built from the constructor's spec list (closed
  // loop).
  for (std::size_t i = 0; i < jobs_.size(); ++i) schedule_job_arrival(i);

  // Open-loop arrivals: one pending self-rescheduling event pulls the
  // arrival stream; each firing admits a job sampled from the mix.
  if (cfg_.arrival != nullptr) {
    mix_rng_ = Rng(Rng::derive(cfg_.seed, "open-loop-mix"));
    auto arrivals =
        cfg_.arrival->stream(Rng(Rng::derive(cfg_.seed, "open-loop-arrival")));
    auto next_at = [this, arrivals = std::shared_ptr<workload::ArrivalStream>(
                              std::move(arrivals)),
                    last_t = SimTime(-1.0), stuck = std::uint64_t(0)]() mutable
        -> std::optional<SimTime> {
      if (cfg_.max_jobs != 0 && admitted_ >= cfg_.max_jobs) {
        return std::nullopt;
      }
      const auto t = arrivals->next();
      if (!t || *t >= cfg_.horizon) return std::nullopt;
      // Livelock guard for unbounded admission: a batch process that never
      // advances time (e.g. arrival=static with no spacing) would otherwise
      // admit forever at one timestamp.
      if (cfg_.max_jobs == 0) {
        stuck = (*t == last_t) ? stuck + 1 : 0;
        last_t = *t;
        if (stuck > 65536) {
          throw std::runtime_error(
              "open-loop arrival process is not advancing time; cap "
              "admissions with jobs=N or use a spaced arrival process");
        }
      }
      return *t;
    };
    const auto first = next_at();
    engine_.stream(first, [this, next_at]() mutable -> std::optional<SimTime> {
      admit_job();
      return next_at();
    });
  }

  // Device session starts reach the queue through its presorted lane
  // (sim/event_queue.h), one chunk of simulated time at a time, from the
  // cursors' dense next-start column, bucketed into hour lists: at most
  // one pending start per device, in the order eager scheduling would give
  // them.
  const std::size_t n = hot_.size();
  lane_seq_ = engine_.queue().reserve_seqs(n);
  next_start_.assign(n, kNoStart);
  next_end_.assign(n, kNoStart);
  session_end_.assign(n, -1.0);
  if (streamed_) {
    streams_.resize(n);
    for (std::size_t d = 0; d < n; ++d) {
      streams_[d] = cfg_.churn->stream(
          workload::device_stream_ctx(cfg_.seed, d, cfg_.horizon));
    }
  } else {
    next_k_.assign(n, 0);
  }
  for (std::size_t d = 0; d < n; ++d) load_next_session(d);
  // One list per hour of the horizon; past ~120 years of hours the last
  // list holds the rest.
  constexpr double kMaxStartHours = 1 << 20;
  const double hours = cfg_.horizon / kHour;
  start_head_.assign(
      hours > 0.0
          ? static_cast<std::size_t>(std::min(hours, kMaxStartHours)) + 1
          : 1,
      kNoChunk);
  start_chunks_.clear();
  free_chunk_ = kNoChunk;
  start_marks_.assign((n + 63) / 64, 0);
  start_low_ = start_head_.size() - 1;
  for (std::size_t d = 0; d < n; ++d) {
    if (next_start_[d] <= cfg_.horizon) {
      hold_start(static_cast<std::uint32_t>(d));
    }
  }
  engine_.queue().set_handler(this);
  engine_.queue().set_lane(
      [this](SimTime end, std::vector<sim::LaneEvent>& out) {
        return refill_session_starts(end, out);
      },
      kSessionStart);
}

void Coordinator::post(SimTime t, sim::EventKind kind, std::size_t dev,
                       std::uint32_t payload) {
  engine_.queue().schedule(t, kind, static_cast<std::uint32_t>(dev), payload);
}

std::uint32_t Coordinator::put_report(const Report& r) {
  if (free_reports_.empty()) {
    reports_.push_back(r);
    return static_cast<std::uint32_t>(reports_.size() - 1);
  }
  const std::uint32_t slot = free_reports_.back();
  free_reports_.pop_back();
  reports_[slot] = r;
  return slot;
}

Coordinator::Report Coordinator::take_report(std::uint32_t slot) {
  free_reports_.push_back(slot);
  return reports_[slot];
}

void Coordinator::on_event(sim::EventKind kind, std::uint32_t dev,
                           std::uint32_t payload) {
  switch (kind) {
    case kSessionStart:
      on_session_start(dev);
      return;
    case kRearm:
      attempt_checkin(dev);
      return;
    case kRetireIdle:
      retire_idle(dev);
      return;
    case kResponse: {
      const Report r = take_report(payload);
      on_response(r.job, r.request, dev, r.round, r.exec);
      return;
    }
    case kFailure: {
      const Report r = take_report(payload);
      on_failure(r.job, r.request, dev);
      return;
    }
    case kDeadline: {
      const Report r = take_report(payload);
      on_deadline(r.job, r.request);
      return;
    }
    default:
      throw std::logic_error("Coordinator: unknown event kind " +
                             std::to_string(kind));
  }
}

void Coordinator::load_next_session(std::size_t d) {
  Session next{kNoStart, kNoStart};
  if (!streamed_) {
    const std::span<const Session> ss = sessions_.of(d);
    if (next_k_[d] < ss.size()) next = ss[next_k_[d]++];
  } else if (auto& stream = streams_[d]) {
    std::optional<Session> s = stream->next();
    if (s && cfg_.topo.hier) {
      // Hierarchical topology: the region's diurnal phase shifts every
      // streamed session, as apply_region_phases (api/builder.cc) shifts
      // a column. Exactly 0.0 at phase_spread=0.
      const double phase =
          topology::phase_offset(cfg_.topo, regions_.region_of(d));
      s->start += phase;
      s->end += phase;
    }
    if (!s || s->start >= cfg_.horizon) {
      stream.reset();
    } else if (s->end <= s->start || s->start < session_end_[d]) {
      throw std::logic_error(
          "Coordinator: churn stream of device " + std::to_string(d) +
          " yielded an empty, inverted or overlapping session");
    } else {
      ++sessions_streamed_;
      next = *s;
    }
  }
  next_start_[d] = next.start;
  next_end_[d] = next.end;
}

std::size_t Coordinator::start_hour(SimTime t) const {
  // A rounded product, truncated: monotone in t, which is all the lists
  // need (a start in a later list is never earlier than one in an earlier
  // list), even where rounding puts a start a hair before an hour's edge
  // into the next hour.
  const double h = t * (1.0 / kHour);
  if (!(h > 0.0)) return 0;
  const std::size_t last = start_head_.size() - 1;
  return h >= static_cast<double>(last) ? last : static_cast<std::size_t>(h);
}

void Coordinator::hold_start(std::uint32_t d) {
  const std::size_t h = start_hour(next_start_[d]);
  std::uint32_t c = start_head_[h];
  if (c == kNoChunk || start_chunks_[c].size == StartChunk::kDevices) {
    if (free_chunk_ != kNoChunk) {
      c = free_chunk_;
      free_chunk_ = start_chunks_[c].next;
    } else {
      c = static_cast<std::uint32_t>(start_chunks_.size());
      start_chunks_.emplace_back();
    }
    start_chunks_[c].next = start_head_[h];
    start_chunks_[c].size = 0;
    start_head_[h] = c;
  }
  StartChunk& chunk = start_chunks_[c];
  chunk.dev[chunk.size++] = d;
  start_low_ = std::min(start_low_, h);
}

SimTime Coordinator::refill_session_starts(SimTime end,
                                           std::vector<sim::LaneEvent>& out) {
  // Starts past the horizon never fire and are never held: t <= horizon is
  // t < the next double above it.
  const SimTime limit = std::min(end, std::nextafter(cfg_.horizon, kNoStart));
  const std::size_t before = out.size();
  // File the starts that arrived since the last refill. Filing them here,
  // in one batch, and not as each arrives keeps the start handler off the
  // hour lists: there the filing waited on the cursor's freshly loaded
  // start, and every session start paid for it.
  for (const std::uint32_t d : start_arrivals_) hold_start(d);
  start_arrivals_.clear();
  // Every start before `limit` is in a list up to the hour of the last
  // double before it. Those lists are walked; a start at or past `limit`
  // stays in its list, and every earlier list is emptied. A chunk keeps
  // its later starts in place, and an emptied chunk goes back to the pool.
  const std::size_t hi = start_hour(std::nextafter(limit, -kNoStart));
  bool marked = false;
  for (std::size_t h = start_low_; h <= hi; ++h) {
    std::uint32_t* link = &start_head_[h];
    while (*link != kNoChunk) {
      StartChunk& chunk = start_chunks_[*link];
      std::uint32_t kept = 0;
      for (std::uint32_t i = 0; i < chunk.size; ++i) {
        const std::uint32_t d = chunk.dev[i];
        const bool take = next_start_[d] < limit;
        start_marks_[d >> 6] |= static_cast<std::uint64_t>(take) << (d & 63);
        chunk.dev[kept] = d;
        kept += take ? 0 : 1;
      }
      marked = marked || kept < chunk.size;
      chunk.size = kept;
      if (kept == 0) {
        const std::uint32_t c = *link;
        *link = chunk.next;
        chunk.next = free_chunk_;
        free_chunk_ = c;
      } else {
        link = &chunk.next;
      }
    }
  }
  start_low_ = std::max(start_low_, hi);
  // Device order is ascending seq: the lane's contract, met without a sort.
  if (marked) {
    for (std::size_t w = 0; w < start_marks_.size(); ++w) {
      for (std::uint64_t bits = start_marks_[w]; bits != 0; bits &= bits - 1) {
        const std::size_t d = w * 64 + std::countr_zero(bits);
        out.push_back({next_start_[d], lane_seq_ + d,
                       static_cast<std::uint32_t>(d)});
      }
      start_marks_[w] = 0;
    }
  }
  // The earliest start left is read only after an empty refill (an empty
  // stretch to skip): the minimum of the first non-empty list.
  SimTime rest = kNoStart;
  if (out.size() == before) {
    for (std::size_t h = start_low_; h < start_head_.size(); ++h) {
      if (start_head_[h] == kNoChunk) continue;
      for (std::uint32_t c = start_head_[h]; c != kNoChunk;
           c = start_chunks_[c].next) {
        const StartChunk& chunk = start_chunks_[c];
        for (std::uint32_t i = 0; i < chunk.size; ++i) {
          rest = std::min(rest, next_start_[chunk.dev[i]]);
        }
      }
      break;
    }
  }
  if (check_lane_refills_) {
    check_lane_refill(limit, std::span(out).subspan(before), rest);
  }
  return rest;
}

void Coordinator::check_lane_refill(SimTime limit,
                                    std::span<const sim::LaneEvent> got,
                                    SimTime rest) {
  ++lane_refills_checked_;
  std::vector<sim::LaneEvent> want;
  SimTime want_rest = kNoStart;
  for (std::size_t d = 0; d < next_start_.size(); ++d) {
    const SimTime t = next_start_[d];
    if (t < limit) {
      want.push_back({t, lane_seq_ + d, static_cast<std::uint32_t>(d)});
    }
    if (t <= cfg_.horizon) want_rest = std::min(want_rest, t);
  }
  const auto fail = [&](const std::string& what) {
    throw std::logic_error("Coordinator: lane refill before t=" +
                           std::to_string(limit) + " " + what);
  };
  if (got.size() != want.size()) {
    fail("appended " + std::to_string(got.size()) + " starts, a scan finds " +
         std::to_string(want.size()));
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (got[i].t != want[i].t || got[i].seq != want[i].seq ||
        got[i].dev != want[i].dev) {
      fail("entry " + std::to_string(i) + " is device " +
           std::to_string(got[i].dev) + ", a scan has device " +
           std::to_string(want[i].dev));
    }
  }
  if (want.empty() && rest != want_rest) {
    fail("returned " + std::to_string(rest) + " as the earliest start, a " +
         "scan finds " + std::to_string(want_rest));
  }
}

void Coordinator::on_session_start(std::uint32_t d) {
  session_end_[d] = next_end_[d];
  load_next_session(d);
  const SimTime t = next_start_[d];
  // A successor inside the lane's current chunk would be missed by the
  // next refill (which starts at the chunk end): it goes through the heap
  // under the device's reserved number instead. A later one is queued for
  // the next refill to file under its hour.
  auto& queue = engine_.queue();
  if (t <= cfg_.horizon) {
    if (t < queue.lane_end()) {
      queue.schedule_reserved(t, lane_seq_ + d, kSessionStart, d);
    } else {
      start_arrivals_.push_back(d);
    }
  }
  attempt_checkin(d);
}

bool Coordinator::external_checkin(std::size_t dev, double duration) {
  const SimTime now = engine_.now();
  if (dev >= hot_.size() || duration <= 0.0) return false;
  if (ext_session_end_.empty()) ext_session_end_.resize(hot_.size(), -1.0);
  if (active_session_end(dev, now) >= 0.0) return false;  // already online
  ext_session_end_[dev] = now + duration;
  attempt_checkin(dev);
  // The grant expires on its own clock: clear the slot and retire any pool
  // entry. attempt_checkin's park-time retire covers the pool, but the slot
  // itself needs this event.
  engine_.at(std::min(now + duration, cfg_.horizon), [this, dev] {
    if (ext_session_end_[dev] >= 0.0 && ext_session_end_[dev] <= engine_.now()) {
      ext_session_end_[dev] = -1.0;
      retire_idle(dev);
    }
  });
  return true;
}

bool Coordinator::external_checkout(std::size_t dev) {
  if (dev >= hot_.size()) return false;
  bool any = false;
  if (ext_sessions_live() && ext_session_end_[dev] > engine_.now()) {
    // End the grant now; the pending expiry event finds the slot cleared.
    ext_session_end_[dev] = -1.0;
    any = true;
  }
  if (hot_.idle_pos[dev] != 0) {
    retire_idle(dev);  // journals the check-out
    any = true;
  }
  return any;
}

JobId Coordinator::external_submit(trace::JobSpec spec) {
  spec.arrival = engine_.now();
  Job* job = create_job(std::move(spec));
  ++ext_submitted_;
  admit(job);
  return job->id();
}

bool Coordinator::external_admit() {
  // Needs the open-loop mix stream (and its deterministically seeded RNG,
  // initialized in setup alongside the arrival stream).
  if (cfg_.mix == nullptr || cfg_.arrival == nullptr) return false;
  admit_job();
  return true;
}

bool Coordinator::external_response(std::size_t dev) {
  if (dev >= hot_.size()) return false;
  // Find the device's in-flight computation, in job-creation order.
  for (std::size_t j = 0; j < inflight_.size(); ++j) {
    for (const InFlight& f : inflight_[j]) {
      if (f.dev != dev) continue;
      // Deliver now. on_response removes the in-flight entry; the
      // originally scheduled response/failure event then finds the
      // computation untracked and returns without double-counting.
      on_response(JobId(static_cast<std::int64_t>(j)), f.rid, dev, f.round,
                  engine_.now() - f.started);
      return true;
    }
  }
  return false;
}

void Coordinator::admit_job() {
  trace::JobSpec spec = cfg_.mix->sample(mix_rng_);
  spec.arrival = engine_.now();
  Job* job = create_job(std::move(spec));
  ++admitted_;
  admit(job);
}

Job* Coordinator::create_job(trace::JobSpec spec) {
  const JobId id(static_cast<std::int64_t>(jobs_.size()));
  jobs_.push_back(std::make_unique<Job>(id, std::move(spec)));
  inflight_.emplace_back();
  ++unfinished_jobs_;
  return jobs_.back().get();
}

Job* Coordinator::live_job(JobId id) const {
  Job* job = jobs_[static_cast<std::size_t>(id.value())].get();
  return job->completion_recorded() ? nullptr : job;
}

void Coordinator::admit(Job* job) {
  if (cfg_.journal != nullptr) {
    cfg_.journal->on_admission(engine_.now(), job->id(), job->spec());
  }
  manager_.register_job(job, solo_jct_estimate(job->spec()));
  submit_request(job);
}

SimTime Coordinator::active_session_end(std::size_t dev_idx,
                                        SimTime now) const {
  // External grants (live service mode) take precedence over the trace.
  // Empty unless external_checkin ever ran, so batch runs skip this.
  if (!ext_session_end_.empty() && ext_session_end_[dev_idx] > now) {
    return ext_session_end_[dev_idx];
  }
  // Before the next start, the session covering `now` can only be the
  // one whose start fired last. At the next start (the touching tie: a
  // session ending exactly where the next begins, probed before that
  // start's event has run) it is the pending one; the clock never passes
  // a start that has not fired.
  if (now < next_start_[dev_idx]) {
    return now < session_end_[dev_idx] ? session_end_[dev_idx] : -1.0;
  }
  return next_end_[dev_idx];
}

void Coordinator::schedule_job_arrival(std::size_t job_idx) {
  Job* job = jobs_[job_idx].get();
  engine_.at(job->spec().arrival, [this, job] {
    manager_.register_job(job, solo_jct_estimate(job->spec()));
    submit_request(job);
  });
}

void Coordinator::submit_request(Job* job) {
  const int demand = job->spec().demand;
  manager_.open_request(job->id(), engine_.now(), engine_.rng().uniform(),
                        protocol_->selection_target(demand),
                        protocol_->commit_threshold(demand));
  // A new request may be satisfiable from devices already idling.
  offer_idle_pool(engine_.now());
}

void Coordinator::offer_idle_pool(SimTime now) {
  // A round can complete synchronously mid-sweep (handle_outcome ->
  // maybe_complete -> submit_request lands back here when >= 80% of
  // responses arrived before full allocation). A nested sweep would read
  // the outer sweep's pool snapshot while idle_erase shrinks and reorders
  // idle_vec_ under it, and could re-offer devices the outer sweep already
  // assigned (their erases are deferred). Reentrant calls therefore only
  // flag a follow-up; the outermost call drains the flag after its own
  // sweep — and its deferred erases — have finished.
  if (sweeping_) {
    resweep_ = true;
    ++hstats_.resweeps;
    return;
  }
  sweeping_ = true;
  do {
    resweep_ = false;
    in_sweep_pass_ = true;
    sweep_idle_pool(now);
    in_sweep_pass_ = false;
    if (!deferred_releases_.empty()) {
      // Straggler releases that arrived mid-pass (external sync-style
      // protocols committing inside a sweep's allocating offer): the pool
      // is stable again — release for real, then sweep once more so the
      // refunded devices are immediately re-offerable.
      const std::vector<PendingRelease> pending =
          std::move(deferred_releases_);
      deferred_releases_.clear();
      std::size_t released = 0;
      for (const PendingRelease& p : pending) {
        released += release_stragglers(p.job, p.rid, now);
      }
      if (released > 0) resweep_ = true;
    }
  } while (resweep_);
  sweeping_ = false;
}

void Coordinator::sweep_idle_pool(SimTime now) {
  if (idle_vec_.empty()) return;
  ++hstats_.sweeps;
  // Sweep wall-time accounting for the bench's sweep-throughput metric.
  // One clock pair per sweep pass — sweeps are per-round-event, not
  // per-device, so this never lands on the per-visit hot path.
  const auto t0 = std::chrono::steady_clock::now();
  struct Timer {
    std::chrono::steady_clock::time_point start;
    double* acc;
    ~Timer() {
      *acc += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
    }
  } timer{t0, &sstats_.sweep_wall_s};
  // The sweep ends at the last possible match. An offer to a device whose
  // cached signature misses the wants mask is a no-op (empty candidate
  // set, no randomness consumed), so once no unvisited device matches a
  // wanted group, every remaining visit would be a skip. One linear pass
  // over the pool counts the idle devices per wanted group (signatures
  // only, no draw); each offered visit takes its device out of those
  // counts, and the loop stops when no wanted group has a device left.
  // The counts only ever overstate what is left (a skipped device keeps
  // its bits counted), so an exit never comes early. A group that joins
  // the wants mask mid-sweep (a synchronous resubmission) was never
  // counted, so such a sweep runs to its end (or until nothing is wanted).
  const std::uint64_t* const sig = index_->signatures();
  std::uint64_t wants = manager_.wants_mask();
  const std::uint64_t counted = wants;
  std::array<std::uint32_t, 64> left{};  // by group bit
  bool any_left = false;
  for (const std::size_t d : idle_vec_) {
    for (std::uint64_t g = sig[d] & counted; g != 0; g &= g - 1) {
      ++left[static_cast<std::size_t>(std::countr_zero(g))];
      any_left = true;
    }
  }
  bool exit_armed = true;
  const auto matches_left = [&] {
    if ((wants & ~counted) != 0) exit_armed = false;
    if (!exit_armed) return wants != 0;
    for (std::uint64_t g = wants; g != 0; g &= g - 1) {
      if (left[static_cast<std::size_t>(std::countr_zero(g))] != 0) {
        return true;
      }
    }
    return false;
  };
  if (!any_left) {
    // The stream of a sweep that draws nothing is never built, but its
    // counter value is still spent.
    ++sweep_counter_;
    if (check_sweep_exits_) check_sweep_exit(idle_vec_, wants);
    return;
  }
  // Sweep order is a uniformly random permutation of the pool, generated
  // lazily (Fisher-Yates position by position) from a per-sweep stream
  // derived from the scenario seed. Randomness therefore costs one draw per
  // device *visited*, and the early stop cannot perturb any other
  // subsystem: the engine stream never sees sweep draws.
  Rng sweep_rng(
      Rng::derive(Rng::derive(cfg_.seed, "idle-sweep"), sweep_counter_++));
  // The permutation is realized through SweepOrder: a sweep costs
  // O(devices visited), not O(pool), and the early exit keeps "visited"
  // short. idle_vec_ itself must not change mid-sweep for
  // the displaced positions to stay valid, so erases of assigned devices
  // are deferred to the end of the loop. The deferral is safe because
  // nothing else mutates the pool while the loop runs: session events are
  // queue-deferred, and the sweeping_ guard in offer_idle_pool converts
  // any synchronous resubmission (a round completing mid-sweep) into a
  // follow-up sweep instead of a nested one.
  SweepOrder order(idle_vec_, sweep_slots_, ++sweep_gen_);
  std::vector<std::size_t> assigned;
  const std::size_t n = idle_vec_.size();
  // The wants mask can only change inside manager_.offer / handle_outcome
  // — a skipped visit calls neither — so it is refreshed only after an
  // offer lands, and the skip test itself is one AND over the index's
  // contiguous signature column, whose entries the offer also passes down.
  for (std::size_t i = 0; i < n; ++i) {
    if (!any_left) {
      if (check_sweep_exits_) {
        std::vector<std::size_t> unvisited;
        for (std::size_t p = i; p < n; ++p) unvisited.push_back(order.at(p));
        check_sweep_exit(unvisited, wants);
      }
      break;
    }
    const std::size_t j = i + sweep_rng.index(n - i);
    const std::size_t d = order.draw(i, j);
    ++hstats_.sweep_visits;
    if ((sig[d] & wants) == 0) {
      ++hstats_.sweep_skips;
      continue;
    }
    ++hstats_.sweep_offers;
    for (std::uint64_t g = sig[d] & counted; g != 0; g &= g - 1) {
      --left[static_cast<std::size_t>(std::countr_zero(g))];
    }
    const auto outcome = manager_.offer(d, hot_.spec[d], sig[d], now);
    if (outcome) {
      assigned.push_back(d);
      handle_outcome(d, *outcome);
      wants = manager_.wants_mask();
    }
    any_left = matches_left();
  }
  for (const std::size_t d : assigned) idle_erase(d);
}

void Coordinator::check_sweep_exit(std::span<const std::size_t> unvisited,
                                   std::uint64_t wants) {
  ++sweep_exits_checked_;
  const std::uint64_t* const sig = index_->signatures();
  for (const std::size_t d : unvisited) {
    if ((sig[d] & wants) != 0) {
      throw std::logic_error("sweep exit with unvisited idle device " +
                             std::to_string(d) + " matching the wants mask");
    }
  }
}

void Coordinator::attempt_checkin(std::size_t dev_idx) {
  const SimTime now = engine_.now();

  const SimTime session_end = active_session_end(dev_idx, now);
  if (session_end < 0.0) return;  // no active session

  if (hot_.participated_on_day(dev_idx, day_of(now))) {
    // Budget spent: re-arm when it resets, if the session is still open.
    const SimTime next_day = (day_of(now) + 1) * kDay;
    if (next_day < session_end && next_day < cfg_.horizon) {
      post(next_day, kRearm, dev_idx);
    }
    return;
  }
  // Note a deliberate (pre-protocol, seed-era) modeling simplification the
  // sync byte-identity guarantee preserves: a device whose computation
  // spans midnight regains its budget at the boundary and may accept a
  // second task while the first is still running — the one-job-per-day
  // rule is a budget, not a mutex.

  const auto outcome = manager_.device_checkin(
      dev_idx, hot_.spec[dev_idx], index_->signatures()[dev_idx], now);
  if (cfg_.journal != nullptr) {
    cfg_.journal->on_checkin(now, dev_idx, outcome.has_value());
  }
  if (cfg_.topo.hier) {
    ++tstats_.per_region[regions_.region_of(dev_idx)].checkins;
  }
  if (outcome) {
    // The device may already be parked in the idle pool: a straggler
    // release re-parks a device that still has this day-boundary re-arm
    // pending. Assigning it must retire the pool entry, or a later sweep
    // would offer the busy device a second time.
    idle_erase(dev_idx);
    handle_outcome(dev_idx, *outcome);
    return;
  }
  // Park in the idle pool until the session ends.
  idle_insert(dev_idx);
  post(std::min(session_end, cfg_.horizon), kRetireIdle, dev_idx);
}

void Coordinator::handle_outcome(std::size_t dev_idx,
                                 const AssignOutcome& outcome) {
  const SimTime now = engine_.now();
  hot_.mark_participation(dev_idx, day_of(now));
  if (cfg_.journal != nullptr) {
    cfg_.journal->on_assignment(now, dev_idx, outcome.job, outcome.request,
                                outcome.round);
  }
  if (cfg_.topo.hier) {
    ++tstats_.per_region[regions_.region_of(dev_idx)].assignments;
  }

  // A device whose session outlasts today regains its participation budget
  // at the next day boundary.
  post((day_of(now) + 1) * kDay, kRearm, dev_idx);

  Job* job = live_job(outcome.job);
  if (job == nullptr) {
    throw std::logic_error("Coordinator: device assigned to finished job " +
                           std::to_string(outcome.job.value()));
  }
  const double exec =
      sample_exec_time(hot_.spec[dev_idx], job->spec().nominal_task_s,
                       job->spec().task_cv, engine_.rng());

  // The device's current session must outlast the computation, otherwise the
  // task fails when the device goes offline (ephemerality).
  SimTime session_end = active_session_end(dev_idx, now);
  if (session_end < 0.0) session_end = cfg_.horizon;

  const RequestId rid = outcome.request;
  const JobId jid = outcome.job;
  const int assigned_round = outcome.round;
  inflight_of(jid).push_back({rid, dev_idx, now, assigned_round});
  // Hierarchical topology: the result (or the end-of-session failure
  // report) is held by the device's regional coordinator for `uplink_`
  // seconds before the global coordinator sees it. The uplink rides the
  // SAME scheduling call sites as flat (uplink_ is 0.0 there, and
  // x + 0.0 == x for finite doubles), so zero-latency hier events land at
  // bit-identical times in identical seq order — the equivalence
  // contract. The success condition stays `now + exec <= session_end`:
  // the device finishes computing locally before its session ends; only
  // the report's delivery is delayed.
  if (cfg_.topo.hier) ++tstats_.uplink_reports;
  if (now + exec <= session_end) {
    // now + (exec + uplink_): the sum Engine::after formed.
    post(now + (exec + uplink_), kResponse, dev_idx,
         put_report({jid, rid, assigned_round, exec}));
  } else {
    post(session_end + uplink_, kFailure, dev_idx, put_report({jid, rid}));
  }

  if (outcome.fully_allocated) {
    // The round may already be completable if enough responses landed
    // while the tail of devices was acquired.
    maybe_complete(job);
  }
  if (protocol_->deadline_aborts() && job->request() &&
      job->request()->id == rid) {
    RoundRequest& req = job->mutable_request();
    // Arm the reporting deadline once. Sync arms at full allocation (the
    // paper's rule). A commit-while-pending protocol (over-selection) arms
    // as soon as a committable cohort is in flight: its inflated selection
    // target may exceed the eligible fleet and never fully allocate, and
    // without this the round would hang unaborted when responders die.
    const bool ready =
        outcome.fully_allocated ||
        (protocol_->commit_while_pending() &&
         req.assigned >= req.needed_responses());
    if (ready && !req.deadline_armed) {
      req.deadline_armed = true;
      post(now + outcome.deadline, kDeadline, 0, put_report({jid, rid}));
    }
  }
}

void Coordinator::on_response(JobId jid, RequestId rid, std::size_t dev_idx,
                              int assigned_round, double response_time) {
  const bool tracked = inflight_remove(jid, rid, dev_idx);
  Job* job = live_job(jid);
  if (job == nullptr || !job->request() || job->request()->id != rid ||
      job->request()->state == RequestState::kCompleted ||
      job->request()->state == RequestState::kAborted) {
    // The round this device computed for no longer exists (committed,
    // aborted, or the job finished): the result is discarded. Under sync
    // these are the >= 80% rule's ignored stragglers. A computation no
    // longer tracked was cut off by a straggler release — its waste was
    // charged then (the elapsed span) and the device stopped computing;
    // this phantom event must not charge it again.
    if (tracked) {
      ++pstats_.wasted_responses;
      pstats_.wasted_work_s += response_time;
    }
    return;
  }
  if (!tracked) {
    // The round is still live but this computation was already delivered
    // (an early external response): the original timer event is a phantom
    // and must not count the response twice. Unreachable in batch runs —
    // a live round's in-flight entry is only ever removed by its own
    // response/failure event or by external_response.
    return;
  }
  RoundRequest& req = job->mutable_request();
  ++req.responses;
  ++pstats_.responses;
  if (cfg_.topo.hier) {
    ++tstats_.per_region[regions_.region_of(dev_idx)].responses;
  }
  // Staleness: round commits between this device's assignment and its
  // response. Zero unless the protocol advances the round in place
  // (buffered aggregation).
  const int staleness = std::max(0, req.round - assigned_round);
  pstats_.staleness_sum += static_cast<std::uint64_t>(staleness);
  if (staleness > 0) ++pstats_.stale_responses;
  if (cfg_.journal != nullptr) {
    cfg_.journal->on_response(engine_.now(), jid, rid, dev_idx, staleness);
  }
  manager_.notify_response(jid, hot_.spec[dev_idx].capacity(), response_time,
                           engine_.now(), staleness);
  if (protocol_->continuous_admission()) {
    // The response frees its slot: the long-lived request re-opens one
    // unit of demand and the scheduler may admit another device.
    --req.assigned;
    req.state = RequestState::kPending;
    manager_.release_assignment(jid, engine_.now());
  }
  maybe_complete(job);
  if (protocol_->continuous_admission()) {
    offer_idle_pool(engine_.now());
  }
}

void Coordinator::maybe_complete(Job* job) {
  if (!job->request()) return;
  RoundRequest& req = job->mutable_request();
  if (req.state != RequestState::kAllocated &&
      !(protocol_->commit_while_pending() &&
        req.state == RequestState::kPending)) {
    return;
  }
  if (req.responses < req.needed_responses()) return;

  const SimTime now = engine_.now();
  const JobId jid = job->id();
  const RequestId rid = req.id;
  ++pstats_.commits;
  if (cfg_.journal != nullptr) {
    cfg_.journal->on_commit(now, jid, rid, req.round, req.responses);
    // Snapshot cadence rides the commit count — commits are the journal's
    // flush boundaries, so a snapshot always lands on durable ground.
    if (cfg_.snapshot_every != 0 &&
        pstats_.commits % cfg_.snapshot_every == 0) {
      cfg_.journal->on_snapshot(capture_snapshot());
    }
  }

  if (protocol_->keeps_request_open()) {
    // Buffered-aggregation commit: the request survives; in-flight devices
    // keep computing toward later commits (their responses arrive stale).
    const SimTime resp_time = now - job->buffer_epoch();
    manager_.notify_round_complete(jid, 0.0, resp_time, now);
    job->commit_round_buffered(now);
    if (job->finished()) {
      manager_.close_request(jid, now);
      finish_job(job);
    }
    return;
  }

  // An early cutoff (over-selection) can commit before the selection
  // target was ever fully assigned; the never-reached allocation instant
  // is the commit instant.
  if (req.fully_allocated < 0.0) req.fully_allocated = now;
  req.completed = now;
  const SimTime sched_delay = req.scheduling_delay();
  const SimTime resp_time = now - req.fully_allocated;

  manager_.notify_round_complete(jid, sched_delay, resp_time, now);
  job->complete_round(now);
  manager_.close_request(jid, now);

  std::size_t released = 0;
  if (protocol_->releases_stragglers()) {
    released = release_stragglers(job, rid, now);
  }
  if (job->finished()) {
    finish_job(job);
    // Released devices are re-offerable right away; without a next-round
    // submission, sweep for the other jobs explicitly.
    if (released > 0) offer_idle_pool(now);
  } else {
    submit_request(job);
  }
}

void Coordinator::on_failure(JobId jid, RequestId rid, std::size_t dev_idx) {
  // Untracked = the computation already resolved (straggler release or an
  // early external response); this timer is then a phantom.
  if (!inflight_remove(jid, rid, dev_idx)) return;
  Job* j = live_job(jid);
  if (j == nullptr || !j->request() || j->request()->id != rid) return;
  RoundRequest& req = j->mutable_request();
  if (req.state == RequestState::kCompleted ||
      req.state == RequestState::kAborted) {
    return;
  }
  ++req.failures;
  // A pre-allocation failure reopens one unit of demand; under continuous
  // admission an allocated slot frees the same way.
  if (req.state == RequestState::kPending ||
      (protocol_->continuous_admission() &&
       req.state == RequestState::kAllocated)) {
    --req.assigned;  // reopen one unit of demand
    req.state = RequestState::kPending;
    manager_.assignment_failed(jid, engine_.now());
    offer_idle_pool(engine_.now());
  }
}

void Coordinator::on_deadline(JobId jid, RequestId rid) {
  Job* job = live_job(jid);
  if (job == nullptr || !job->request() || job->request()->id != rid) return;
  RoundRequest& req = job->mutable_request();
  // Sync deadlines only fire on allocated rounds; commit-while-pending
  // protocols also abort a round still acquiring devices (their deadline
  // arms before full allocation — which may never come).
  if (req.state != RequestState::kAllocated &&
      !(protocol_->commit_while_pending() &&
        req.state == RequestState::kPending)) {
    return;  // completed already
  }

  VENN_DEBUG << "job " << jid << " round " << req.round << " aborted ("
             << req.responses << "/" << req.needed_responses() << ")";
  if (cfg_.journal != nullptr) {
    cfg_.journal->on_abort(engine_.now(), jid, rid, req.round, req.responses);
  }
  job->abort_request();
  manager_.close_request(jid, engine_.now());
  if (protocol_->releases_stragglers()) {
    // The aborted round's devices are still computing; release them before
    // the retry is submitted so its sweep can re-acquire them.
    release_stragglers(job, rid, engine_.now());
  }
  submit_request(job);
}

std::size_t Coordinator::release_stragglers(Job* job, RequestId rid,
                                            SimTime now) {
  if (in_sweep_pass_) {
    // A release inside an active sweep pass would insert into the pool the
    // sweep is iterating — and the just-assigned straggler's deferred
    // idle_erase would then silently drop it again. Defer to the
    // offer_idle_pool driver, which drains between passes.
    deferred_releases_.push_back({job, rid});
    return 0;
  }
  std::size_t released = 0;
  // Nothing below creates a job, so `entries` stays valid for the loop.
  auto& entries = inflight_of(job->id());
  for (std::size_t i = 0; i < entries.size();) {
    if (entries[i].rid != rid) {
      ++i;
      continue;
    }
    const InFlight entry = entries[i];
    entries[i] = entries.back();
    entries.pop_back();
    ++released;
    ++pstats_.stragglers_released;
    if (cfg_.topo.hier) {
      ++tstats_.per_region[regions_.region_of(entry.dev)].stragglers_released;
    }
    pstats_.wasted_work_s += now - entry.started;
    if (cfg_.journal != nullptr) {
      cfg_.journal->on_straggler_release(now, entry.dev, job->id());
    }
    // Refund the day budget charged at assignment; the already-scheduled
    // response/failure event for the cut-off computation fires into a
    // stale request id and is ignored.
    hot_.refund_participation(entry.dev, day_of(entry.started));
    const DeviceSpec& spec = hot_.spec[entry.dev];
    manager_.notify_straggler_released(
        {DeviceId(static_cast<std::int64_t>(entry.dev)), spec,
         manager_.signatures().signature_of(spec)},
        *job, now);
    const SimTime session_end = active_session_end(entry.dev, now);
    if (session_end >= 0.0 &&
        !hot_.participated_on_day(entry.dev, day_of(now))) {
      // The disjointness invariant — a computing straggler cannot already
      // be parked — holds only within the assignment's own day: the midnight-budget rule (see attempt_checkin) re-parks a
      // device whose computation spans a day boundary, so a release after
      // that boundary legitimately finds the pool entry already there,
      // with its retire timer armed by whoever parked it. Keep that entry.
      // Same-day, a pool entry can only mean this InFlight entry went
      // stale, and a silent no-op insert would hide it. Throw instead.
      if (hot_.idle_pos[entry.dev] != 0) {
        if (day_of(now) > day_of(entry.started)) continue;
        throw std::logic_error(
            "Coordinator: straggler release found device " +
            std::to_string(entry.dev) +
            " already parked (stale in-flight entry)");
      }
      idle_insert(entry.dev);
      // Mirror attempt_checkin's parking rule: the pool entry retires with
      // the session.
      post(std::min(session_end, cfg_.horizon), kRetireIdle, entry.dev);
    }
  }
  return released;
}

bool Coordinator::inflight_remove(JobId jid, RequestId rid, std::size_t dev) {
  auto& entries = inflight_of(jid);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].rid == rid && entries[i].dev == dev) {
      entries[i] = entries.back();
      entries.pop_back();
      return true;
    }
  }
  return false;
}

void Coordinator::finish_job(Job* job) {
  job->set_completion_time(engine_.now());
  if (cfg_.journal != nullptr) {
    cfg_.journal->on_job_finish(engine_.now(), job->id(),
                                engine_.now() - job->spec().arrival);
  }
  manager_.deregister_job(job->id());
  // inflight_ entries for the finished job stay: each drains when its
  // response/failure event fires, and keeping them classifies the final
  // round's stragglers as wasted responses (they were never released).
  if (unfinished_jobs_ > 0) --unfinished_jobs_;
}

journal::StateSnapshot Coordinator::capture_snapshot() {
  journal::StateSnapshot snap;
  snap.commits = pstats_.commits;
  snap.clock = engine_.now();
  auto add = [&snap](const char* name, journal::Encoder& e) {
    snap.sections.emplace_back(name, e.take());
  };

  {
    journal::Encoder e;
    e.f64(engine_.now());
    e.u64(engine_.events_executed());
    add("clock", e);
  }
  {
    // The Mersenne Twister's canonical text serialization — byte-exact and
    // portable, which is all the drift check needs.
    std::ostringstream os;
    os << engine_.rng().engine();
    journal::Encoder e;
    e.str(os.str());
    add("engine-rng", e);
  }
  {
    journal::Encoder e;
    e.u64(sweep_counter_);
    e.u64(static_cast<std::uint64_t>(admitted_));
    e.u64(sessions_streamed_);
    e.u64(static_cast<std::uint64_t>(unfinished_jobs_));
    add("coordinator", e);
  }
  {
    journal::Encoder e;
    e.u64(pstats_.commits);
    e.u64(pstats_.responses);
    e.u64(pstats_.wasted_responses);
    e.u64(pstats_.stragglers_released);
    e.f64(pstats_.wasted_work_s);
    e.u64(pstats_.staleness_sum);
    e.u64(pstats_.stale_responses);
    add("protocol", e);
  }
  {
    journal::Encoder e;
    e.u64(hstats_.sweeps);
    e.u64(hstats_.sweep_visits);
    e.u64(hstats_.sweep_offers);
    e.u64(hstats_.sweep_skips);
    e.u64(hstats_.supply_queries);
    e.u64(hstats_.resweeps);
    const auto& mh = manager_.hotpath_stats();
    e.u64(mh.offers);
    e.u64(mh.candidates_scanned);
    e.u64(mh.view_builds);
    add("hotpath", e);
  }
  {
    journal::Encoder e;
    e.u64(static_cast<std::uint64_t>(idle_vec_.size()));
    for (const std::size_t d : idle_vec_) e.u64(static_cast<std::uint64_t>(d));
    add("idle-pool", e);
  }
  {
    // Participation budgets: the hot store's dense column, in device order.
    journal::Encoder e;
    e.u64(static_cast<std::uint64_t>(hot_.size()));
    for (const std::int32_t day : hot_.participation_day) e.i32(day);
    add("devices", e);
  }
  {
    journal::Encoder e;
    e.u64(static_cast<std::uint64_t>(jobs_.size()));
    for (const auto& jp : jobs_) {
      const Job& j = *jp;
      e.i64(j.id().value());
      e.i32(j.completed_rounds());
      e.i32(j.pending_aborts());
      e.i32(j.total_aborts());
      e.f64(j.completion_time());
      e.f64(j.buffer_epoch());
      const auto& req = j.request();
      e.u8(req.has_value() ? 1 : 0);
      if (req) {
        e.i64(req->id.value());
        e.i32(req->round);
        e.i32(req->demand);
        e.i32(req->target_responses);
        e.i32(req->assigned);
        e.i32(req->responses);
        e.i32(req->failures);
        e.f64(req->submitted);
        e.f64(req->fully_allocated);
        e.f64(req->completed);
        e.f64(req->deadline);
        e.u8(req->deadline_armed ? 1 : 0);
        e.i32(static_cast<std::int32_t>(req->state));
      }
    }
    add("jobs", e);
  }
  {
    // In-flight computations of the jobs with any, in id order.
    journal::Encoder e;
    for (std::size_t j = 0; j < inflight_.size(); ++j) {
      if (inflight_[j].empty()) continue;
      e.i64(static_cast<std::int64_t>(j));
      e.u64(static_cast<std::uint64_t>(inflight_[j].size()));
      for (const InFlight& f : inflight_[j]) {
        e.i64(f.rid.value());
        e.u64(static_cast<std::uint64_t>(f.dev));
        e.f64(f.started);
        e.i32(f.round);
      }
    }
    add("inflight", e);
  }
  {
    journal::Encoder e;
    e.i64(manager_.next_request_id());
    add("manager", e);
  }
  if (streamed_) {
    // A streamed run's cursors: where each device's stream stands. A trace
    // run's cursors follow from the clock, so its snapshots carry none.
    journal::Encoder e;
    e.u64(static_cast<std::uint64_t>(streams_.size()));
    for (std::size_t d = 0; d < streams_.size(); ++d) {
      e.u8(streams_[d] != nullptr ? 1 : 0);
      e.f64(next_start_[d]);
      e.f64(next_end_[d]);
      e.f64(session_end_[d]);
    }
    add("streams", e);
  }
  if (cfg_.arrival != nullptr) {
    std::ostringstream os;
    os << mix_rng_.engine();
    journal::Encoder e;
    e.str(os.str());
    add("mix-rng", e);
  }
  if (cfg_.topo.hier) {
    // Hier runs carry their topology telemetry in the drift-check surface;
    // only present in hier mode, so flat snapshots (and every pre-topology
    // journal) are byte-unchanged. A journaled hier run replays hier
    // (to_kv carries the topology knobs), so the section appears in both
    // captures or neither.
    journal::Encoder e;
    e.u64(static_cast<std::uint64_t>(regions_.regions()));
    e.f64(cfg_.topo.sync_latency);
    e.f64(cfg_.topo.phase_spread_h);
    e.u64(tstats_.cross_region_supply_aggs);
    e.u64(tstats_.uplink_reports);
    for (const topology::RegionCounters& rc : tstats_.per_region) {
      e.u64(rc.checkins);
      e.u64(rc.assignments);
      e.u64(rc.responses);
      e.u64(rc.stragglers_released);
    }
    add("topology", e);
  }
  if (ext_sessions_live()) {
    // Only present once the live service granted a session, so batch
    // snapshots (and pre-service journals) are byte-unchanged. A replayed
    // command stream goes live at the same record, so the section appears
    // in both captures or neither.
    journal::Encoder e;
    e.u64(ext_submitted_);
    e.u64(static_cast<std::uint64_t>(ext_session_end_.size()));
    for (const SimTime t : ext_session_end_) e.f64(t);
    add("ext-sessions", e);
  }
  return snap;
}

}  // namespace venn
