#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

namespace venn::sim {

namespace {
// Width of one lane refill. An hour of a diurnal trace fleet holds about
// one session start per 25 devices (some 850 on 20k devices). The refill
// runs on one step in sixty of a minute-stepped run, so its cost is that
// step's latency: a comparison sort of the batch plus a scan folding a
// running minimum over every device once took a 78 µs median per refill
// on 20k devices, the refilling steps made up half the top 1% of
// `contention`'s steps, and the linear ordering below exists to keep it
// off that tail. A wider chunk orders a proportionally larger batch at
// once; a narrower one repeats the source's O(devices) column scan more
// often for the same starts.
constexpr SimTime kLaneChunk = 3600.0;

// A batch whose bins hold at most this many events each is finished by
// insertion; one with a larger bin (times clustered far below the bin
// width) is comparison-sorted instead, so it cannot go quadratic.
constexpr std::size_t kInsertionBin = 32;

bool lane_before(const LaneEvent& a, SimTime t, std::uint64_t seq) {
  return a.t < t || (a.t == t && a.seq < seq);
}
}  // namespace

void EventQueue::note_peak() {
  peak_pending_ = std::max(peak_pending_, pending());
}

void EventQueue::push(const Event& e) {
  heap_.push(e);
  note_peak();
}

void EventQueue::schedule(SimTime t, EventFn fn) {
  // Checked first: a rejected time takes no slab slot and consumes no
  // sequence number.
  if (t < now_) {
    throw std::invalid_argument("EventQueue::schedule: time in the past");
  }
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(closures_.size());
    closures_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    closures_[slot] = std::move(fn);
  }
  push({t, next_seq_++, 0, slot, kClosure});
}

void EventQueue::schedule(SimTime t, EventKind kind, std::uint32_t dev,
                          std::uint32_t payload) {
  need_handler();
  if (t < now_) {
    throw std::invalid_argument("EventQueue::schedule: time in the past");
  }
  push({t, next_seq_++, dev, payload, kind});
}

void EventQueue::set_handler(EventHandler* handler) {
  if (handler_ != nullptr) {
    throw std::logic_error("EventQueue::set_handler: handler already set");
  }
  handler_ = handler;
}

void EventQueue::need_handler() const {
  if (handler_ == nullptr) {
    throw std::logic_error("EventQueue: typed event before set_handler");
  }
}

std::uint64_t EventQueue::reserve_seqs(std::uint64_t n) {
  const std::uint64_t first = next_seq_;
  next_seq_ += n;
  return first;
}

void EventQueue::schedule_reserved(SimTime t, std::uint64_t seq,
                                   EventKind kind, std::uint32_t dev,
                                   std::uint32_t payload) {
  need_handler();
  if (seq >= next_seq_) {
    throw std::invalid_argument(
        "EventQueue::schedule_reserved: sequence number not reserved");
  }
  if (t < now_) {
    throw std::invalid_argument("EventQueue::schedule: time in the past");
  }
  push({t, seq, dev, payload, kind});
}

void EventQueue::set_lane(LaneRefill refill, EventKind kind) {
  if (lane_refill_ || lane_kind_ != kClosure) {
    throw std::logic_error("EventQueue::set_lane: lane already set");
  }
  need_handler();
  if (kind == kClosure) {
    throw std::invalid_argument("EventQueue::set_lane: closure kind");
  }
  lane_refill_ = std::move(refill);
  lane_kind_ = kind;
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
    if (rest < end) {  // skipping from there would refill it forever
      throw std::logic_error(
          "EventQueue: lane refill appended nothing but holds an event "
          "before the chunk end (LaneRefill contract)");
    }
    end = rest + kLaneChunk;  // skip a stretch with no events
  }
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < lane_.size(); ++i) {
    const LaneEvent& e = lane_[i];
    if (e.t < now_ || e.seq >= next_seq_) {
      throw std::invalid_argument(
          "EventQueue: lane event in the past or with an unreserved seq");
    }
    if (i > 0 && e.seq <= prev) {
      throw std::invalid_argument(
          "EventQueue: lane refill broke the LaneRefill contract (events "
          "must be appended in ascending seq)");
    }
    prev = e.seq;
  }
  sort_lane(end - kLaneChunk, end);
  note_peak();
}

void EventQueue::sort_lane(SimTime lo, SimTime end) {
  const std::size_t n = lane_.size();
  if (n < 2) return;
  // Counting pass: bin b of `bins` covers [lo + b w, lo + (b+1) w) with
  // w = (end - lo) / bins; times outside [lo, end) clamp to the edge bins.
  // The bin index is monotone in t, so the bins come out in time order,
  // and the scatter is stable, so each bin keeps the refill's ascending
  // seq.
  const std::size_t bins = std::bit_ceil(n);
  const double scale = static_cast<double>(bins) / (end - lo);
  lane_bins_.assign(bins + 1, 0);
  lane_bin_of_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = (lane_[i].t - lo) * scale;
    const auto b = static_cast<std::uint32_t>(
        x <= 0.0 ? 0 : std::min(static_cast<std::size_t>(x), bins - 1));
    lane_bin_of_[i] = b;
    ++lane_bins_[b + 1];
  }
  std::uint32_t largest = 0;
  for (std::size_t b = 1; b <= bins; ++b) {
    largest = std::max(largest, lane_bins_[b]);
    lane_bins_[b] += lane_bins_[b - 1];
  }
  lane_scratch_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    lane_scratch_[lane_bins_[lane_bin_of_[i]]++] = lane_[i];
  }
  lane_.swap(lane_scratch_);
  if (largest > kInsertionBin) {
    std::sort(lane_.begin(), lane_.end(),
              [](const LaneEvent& a, const LaneEvent& c) {
                return lane_before(a, c.t, c.seq);
              });
    return;
  }
  // Out-of-order pairs now lie only within a bin, so one insertion pass
  // costs O(n + those pairs). It orders by t alone: the strict compare
  // keeps equal times in the ascending seq they arrived in, which is
  // (t, seq) order.
  for (std::size_t i = 1; i < n; ++i) {
    const LaneEvent e = lane_[i];
    std::size_t j = i;
    for (; j > 0 && e.t < lane_[j - 1].t; --j) lane_[j] = lane_[j - 1];
    lane_[j] = e;
  }
}

bool EventQueue::step() {
  settle_lane();
  if (lane_pos_ < lane_.size() &&
      (heap_.empty() ||
       lane_before(lane_[lane_pos_], heap_.top().t, heap_.top().seq))) {
    const LaneEvent e = lane_[lane_pos_++];
    now_ = e.t;
    ++executed_;
    handler_->on_event(lane_kind_, e.dev, 0);
    return true;
  }
  if (heap_.empty()) return false;
  const Event e = heap_.top();
  heap_.pop();
  now_ = e.t;
  ++executed_;
  if (e.kind != kClosure) {
    handler_->on_event(e.kind, e.dev, e.payload);
    return true;
  }
  // Move the closure out and free its slot before running: the callback
  // may schedule new closures, which may take that slot.
  EventFn fn = std::move(closures_[e.payload]);
  closures_[e.payload] = nullptr;
  free_slots_.push_back(e.payload);
  fn();
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
