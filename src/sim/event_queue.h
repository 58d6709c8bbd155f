// Discrete-event simulation primitives: a priority event queue.
//
// The paper's evaluation is driven by "a high-fidelity simulator that replays
// client and job traces" (§5.1); this queue is its beating heart. Events are
// (time, sequence, callback) triples — the sequence number makes ties
// deterministic (FIFO among same-time events) so every simulation run is
// exactly reproducible for a given seed.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "util/ids.h"

namespace venn::sim {

using EventFn = std::function<void()>;

class EventQueue {
 public:
  // Schedule `fn` at absolute time `t` (must be >= now()). Events are
  // fire-and-forget: a scheduled event always runs.
  void schedule(SimTime t, EventFn fn);

  // Reserves `n` consecutive sequence numbers and returns the first. An
  // event later scheduled with schedule_reserved(t, first + i, fn) orders
  // exactly as if schedule(t, fn) had been called at reservation time: a
  // source with many known future events (a device's trace sessions) keeps
  // only its next one in the heap yet replays the eager order bit for bit.
  std::uint64_t reserve_seqs(std::uint64_t n);

  // Schedules `fn` at `t` under a sequence number from reserve_seqs. Each
  // reserved number must be used at most once, and for an order identical
  // to eager scheduling, before any event with a larger (t, seq) key runs.
  // Throws if `t` is in the past or `seq` was never reserved.
  void schedule_reserved(SimTime t, std::uint64_t seq, EventFn fn);

  // Convenience: schedule at now() + delay.
  void schedule_after(SimTime delay, EventFn fn);

  // Pop and run the earliest pending event; returns false if none remain.
  bool step();

  // Run until the queue drains or now() would exceed `t_max`.
  void run_until(SimTime t_max);

  // Run until the queue drains.
  void run();

  [[nodiscard]] SimTime now() const { return now_; }
  // Timestamp of the earliest pending event, if any.
  [[nodiscard]] std::optional<SimTime> next_time() const;
  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }
  // Largest number of heap entries held at once: the queue's memory
  // high-water mark.
  [[nodiscard]] std::size_t peak_pending() const { return peak_pending_; }

 private:
  struct Entry {
    SimTime t;
    std::uint64_t seq;
    EventFn fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  void push(Entry e);

  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t peak_pending_ = 0;
};

}  // namespace venn::sim
