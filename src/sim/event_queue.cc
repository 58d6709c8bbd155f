#include "sim/event_queue.h"

#include <algorithm>
#include <stdexcept>

namespace venn::sim {

void EventQueue::push(Entry e) {
  if (e.t < now_) {
    throw std::invalid_argument("EventQueue::schedule: time in the past");
  }
  queue_.push(std::move(e));
  peak_pending_ = std::max(peak_pending_, queue_.size());
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

void EventQueue::schedule_after(SimTime delay, EventFn fn) {
  if (delay < 0.0) {
    throw std::invalid_argument("EventQueue::schedule_after: negative delay");
  }
  schedule(now_ + delay, std::move(fn));
}

bool EventQueue::step() {
  if (queue_.empty()) return false;
  // Move the entry out before running: the callback may schedule new events.
  // The const_cast+move is safe — the heap's ordering invariant only reads
  // t/seq, which moving leaves intact — and skips a std::function copy
  // (potentially a heap allocation) per event.
  Entry e = std::move(const_cast<Entry&>(queue_.top()));
  queue_.pop();
  now_ = e.t;
  ++executed_;
  e.fn();
  return true;
}

void EventQueue::run_until(SimTime t_max) {
  while (!queue_.empty() && queue_.top().t <= t_max) step();
}

void EventQueue::run() {
  while (step()) {
  }
}

std::optional<SimTime> EventQueue::next_time() const {
  if (queue_.empty()) return std::nullopt;
  return queue_.top().t;
}

}  // namespace venn::sim
