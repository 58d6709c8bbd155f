#include "sim/event_queue.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace venn::sim {

namespace {
// Width of one lane refill. An hour of a diurnal trace fleet holds about
// one session start per 25 devices (some 850 on 20k devices): sorting that
// batch takes tens of microseconds, well under the slowest steps of a run.
// A wider chunk sorts a proportionally larger batch at once, a latency
// spike on whichever step refills; a narrower one repeats the source's
// O(devices) column scan more often for the same starts.
constexpr SimTime kLaneChunk = 3600.0;

bool lane_before(const LaneEvent& a, SimTime t, std::uint64_t seq) {
  return a.t < t || (a.t == t && a.seq < seq);
}
}  // namespace

void EventQueue::note_peak() {
  peak_pending_ = std::max(peak_pending_, pending());
}

void EventQueue::push(Entry e) {
  if (e.t < now_) {
    throw std::invalid_argument("EventQueue::schedule: time in the past");
  }
  heap_.push(std::move(e));
  note_peak();
}

void EventQueue::schedule(SimTime t, EventFn fn) {
  push({t, next_seq_, std::move(fn)});
  ++next_seq_;  // after push: a rejected time consumes no sequence number
}

std::uint64_t EventQueue::reserve_seqs(std::uint64_t n) {
  const std::uint64_t first = next_seq_;
  next_seq_ += n;
  return first;
}

void EventQueue::schedule_reserved(SimTime t, std::uint64_t seq, EventFn fn) {
  if (seq >= next_seq_) {
    throw std::invalid_argument(
        "EventQueue::schedule_reserved: sequence number not reserved");
  }
  push({t, seq, std::move(fn)});
}

void EventQueue::set_lane(LaneRefill refill, LaneFire fire) {
  if (lane_fire_) {
    throw std::logic_error("EventQueue::set_lane: lane already set");
  }
  lane_refill_ = std::move(refill);
  lane_fire_ = std::move(fire);
  lane_end_ = now_;
}

void EventQueue::settle_lane() {
  if (!lane_refill_ || lane_pos_ < lane_.size()) return;
  if (!heap_.empty() && heap_.top().t < lane_end_) return;
  lane_.clear();
  lane_pos_ = 0;
  SimTime end = lane_end_ + kLaneChunk;
  for (;;) {
    const SimTime rest = lane_refill_(end, lane_);
    lane_end_ = end;
    if (!lane_.empty()) break;
    if (rest == std::numeric_limits<SimTime>::infinity()) {
      lane_refill_ = nullptr;  // exhausted: nothing can refill it again
      return;
    }
    end = rest + kLaneChunk;  // skip a stretch with no events
  }
  for (const LaneEvent& e : lane_) {
    if (e.t < now_ || e.seq >= next_seq_) {
      throw std::invalid_argument(
          "EventQueue: lane event in the past or with an unreserved seq");
    }
  }
  std::sort(lane_.begin(), lane_.end(),
            [](const LaneEvent& a, const LaneEvent& b) {
              return lane_before(a, b.t, b.seq);
            });
  note_peak();
}

void EventQueue::schedule_after(SimTime delay, EventFn fn) {
  if (delay < 0.0) {
    throw std::invalid_argument("EventQueue::schedule_after: negative delay");
  }
  schedule(now_ + delay, std::move(fn));
}

bool EventQueue::step() {
  settle_lane();
  if (lane_pos_ < lane_.size() &&
      (heap_.empty() ||
       lane_before(lane_[lane_pos_], heap_.top().t, heap_.top().seq))) {
    const LaneEvent e = lane_[lane_pos_++];
    now_ = e.t;
    ++executed_;
    lane_fire_(e.dev);
    return true;
  }
  if (heap_.empty()) return false;
  // Move the entry out before running: the callback may schedule new events.
  // The const_cast+move is safe — the heap's ordering invariant only reads
  // t/seq, which moving leaves intact — and skips a std::function copy
  // (potentially a heap allocation) per event.
  Entry e = std::move(const_cast<Entry&>(heap_.top()));
  heap_.pop();
  now_ = e.t;
  ++executed_;
  e.fn();
  return true;
}

void EventQueue::run_until(SimTime t_max) {
  for (auto t = next_time(); t && *t <= t_max; t = next_time()) step();
}

void EventQueue::run() {
  while (step()) {
  }
}

std::optional<SimTime> EventQueue::next_time() {
  settle_lane();
  const bool lane = lane_pos_ < lane_.size();
  if (heap_.empty()) {
    if (!lane) return std::nullopt;
    return lane_[lane_pos_].t;
  }
  return lane ? std::min(lane_[lane_pos_].t, heap_.top().t) : heap_.top().t;
}

}  // namespace venn::sim
