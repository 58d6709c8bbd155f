// Discrete-event simulation primitives: a priority event queue.
//
// The paper's evaluation is driven by "a high-fidelity simulator that replays
// client and job traces" (§5.1); this queue is its beating heart. Events are
// (time, sequence, payload) triples — the sequence number makes ties
// deterministic (FIFO among same-time events) so every simulation run is
// exactly reproducible for a given seed.
//
// An event is a trivially copyable 32-byte Event: its (t, seq) key, a kind,
// a device index and a 32-bit payload. Kind kClosure runs a std::function
// kept in a side slab (the payload is its slot); every other kind goes to
// the one EventHandler installed with set_handler, which reads the device
// and payload however that kind defines them. The heap therefore moves
// plain 32-byte records, and the frequent events (a fleet's session
// starts, its device responses) allocate nothing.
//
// Two stores feed one (t, seq) order:
//
//   heap — events scheduled at any time from anywhere;
//   lane — one presorted vector of plain {t, seq, dev} events from a
//          single source whose keys were fixed up front (a fleet's
//          session starts, under seqs from reserve_seqs), dispatched to
//          the handler under one kind.
//          step() and next_time() merge the lane's front with the heap's
//          top by (t, seq), so an event runs at exactly the position eager
//          scheduling would have given it.
//
// The lane is refilled lazily, one chunk of simulated time at a time: when
// it is consumed and no heap entry lies before the chunk end, the source
// appends its events before the next chunk end, in ascending seq, and the
// queue orders that batch with a stable counting pass over time bins and
// an insertion sort inside each bin (linear in the batch for spread-out
// times). The source contract (see set_lane) keeps at most one pending
// event per source key (a device), so heap plus lane never hold more than
// one pending start per device and each refill batch stays small.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <type_traits>
#include <vector>

#include "util/ids.h"

namespace venn::sim {

using EventFn = std::function<void()>;

// What an event does when it runs. kClosure is the queue's own kind; the
// installed handler defines every other value.
using EventKind = std::uint8_t;
inline constexpr EventKind kClosure = 0;

// One heap entry.
struct Event {
  SimTime t;
  std::uint64_t seq;
  std::uint32_t dev;
  std::uint32_t payload;  // kClosure: the closure's slab slot
  EventKind kind;
};
static_assert(std::is_trivially_copyable_v<Event> && sizeof(Event) <= 32,
              "heap entries must stay plain 32-byte records");

// Runs every event whose kind is not kClosure.
class EventHandler {
 public:
  virtual void on_event(EventKind kind, std::uint32_t dev,
                        std::uint32_t payload) = 0;

 protected:
  ~EventHandler() = default;
};

// One lane event: the handler runs the lane's kind with `dev` at (t, seq).
struct LaneEvent {
  SimTime t;
  std::uint64_t seq;
  std::uint32_t dev;
};

// Appends to `out`, in ascending seq, the source's events with t < `end`,
// and returns the earliest t among the events it still holds (+infinity
// when it holds none). The return value is read only when nothing was
// appended, so a source may skip computing it otherwise.
using LaneRefill =
    std::function<SimTime(SimTime end, std::vector<LaneEvent>& out)>;

class EventQueue {
 public:
  // Schedule `fn` at absolute time `t` (must be >= now()). Events are
  // fire-and-forget: a scheduled event always runs.
  void schedule(SimTime t, EventFn fn);
  // Schedule a typed event for the handler at `t` (must be >= now()).
  void schedule(SimTime t, EventKind kind, std::uint32_t dev,
                std::uint32_t payload = 0);

  // Installs the handler of every kind but kClosure (at most once per
  // queue). It must outlive the queue's stepping.
  void set_handler(EventHandler* handler);

  // Reserves `n` consecutive sequence numbers and returns the first. An
  // event later scheduled with schedule_reserved(t, first + i, ...) orders
  // exactly as if schedule(t, ...) had been called at reservation time: a
  // source with many known future events (a device's trace sessions) keeps
  // only its next one pending yet replays the eager order bit for bit.
  std::uint64_t reserve_seqs(std::uint64_t n);

  // Schedules a typed event at `t` under a sequence number from
  // reserve_seqs. Events sharing a number must never share a time (a
  // device's successive session starts, say), and for an order identical
  // to eager scheduling each must be scheduled before any event with a
  // larger (t, seq) key runs. Throws if `t` is in the past or `seq` was
  // never reserved.
  void schedule_reserved(SimTime t, std::uint64_t seq, EventKind kind,
                         std::uint32_t dev, std::uint32_t payload = 0);

  // Installs the lane's source (at most once per queue); its events run
  // as `kind` through the handler. They must carry reserved seqs, times
  // >= now() and ascending seqs within one refill (a refill throws
  // otherwise). The contract that keeps the merged order identical to
  // eager scheduling: once lane_end() has passed an event's time, the
  // source must no longer hold it — it was appended by a refill, or the
  // source scheduled it into the heap with schedule_reserved when its
  // predecessor fired (the in-chunk successor case).
  void set_lane(LaneRefill refill, EventKind kind);
  // Exclusive end of the simulated time the lane has been filled up to.
  [[nodiscard]] SimTime lane_end() const { return lane_end_; }

  // Convenience: schedule at now() + delay.
  void schedule_after(SimTime delay, EventFn fn);

  // Pop and run the earliest pending event; returns false if none remain.
  bool step();

  // Run until the queue drains or now() would exceed `t_max`.
  void run_until(SimTime t_max);

  // Run until the queue drains.
  void run();

  [[nodiscard]] SimTime now() const { return now_; }
  // Timestamp of the earliest pending event, if any. Not const: it may
  // refill the lane first.
  [[nodiscard]] std::optional<SimTime> next_time();
  [[nodiscard]] bool empty() { return !next_time().has_value(); }
  // Heap entries plus unconsumed lane entries. Events the lane's source
  // still holds for later refills are not counted.
  [[nodiscard]] std::size_t pending() const {
    return heap_.size() + (lane_.size() - lane_pos_);
  }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }
  // Largest pending() seen at once: the queue's memory high-water mark.
  [[nodiscard]] std::size_t peak_pending() const { return peak_pending_; }
  // Slots of the closure slab, in use or free: its high-water mark, since
  // a fired closure's slot is reused by the next one scheduled.
  [[nodiscard]] std::size_t closure_slots() const { return closures_.size(); }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  void push(const Event& e);
  // Throws unless set_handler ran: typed events have nowhere else to go.
  void need_handler() const;
  // Refills the lane when it is consumed and no heap entry precedes its
  // end: only then has every source event before lane_end_ run.
  void settle_lane();
  // Orders the refilled batch, spanning about [lo, end), by (t, seq).
  void sort_lane(SimTime lo, SimTime end);
  void note_peak();

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  EventHandler* handler_ = nullptr;
  std::vector<EventFn> closures_;           // slab of pending closures
  std::vector<std::uint32_t> free_slots_;   // free closures_ slots
  std::vector<LaneEvent> lane_;  // sorted by (t, seq); consumed from lane_pos_
  std::size_t lane_pos_ = 0;
  SimTime lane_end_ = 0.0;
  LaneRefill lane_refill_;  // empty once the source is exhausted
  EventKind lane_kind_ = kClosure;
  std::vector<LaneEvent> lane_scratch_;  // sort_lane's buffers, reused
  std::vector<std::uint32_t> lane_bins_;
  std::vector<std::uint32_t> lane_bin_of_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t peak_pending_ = 0;
};

}  // namespace venn::sim
