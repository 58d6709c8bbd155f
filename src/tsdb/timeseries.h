// Append-only time-series store with windowed aggregate queries.
//
// Paper §4.4 ("Dynamic resource supply"): "Venn continuously records each
// device eligibility through a time-series database. This database is then
// queried for resource eligibility distribution from the past time window ...
// Venn averages eligibility over 24 hours for robust scheduling."
//
// This module is that database. Each key (here: an eligibility-signature
// atom) owns an ordered sequence of (timestamp, value) points; the store
// answers count / sum / rate queries over trailing windows in O(log n).
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/ids.h"

namespace venn::tsdb {

// One series of monotonically non-decreasing timestamps.
class Series {
 public:
  // Appends a point. Timestamps must be non-decreasing; violations throw.
  void append(SimTime t, double value = 1.0);

  [[nodiscard]] std::size_t size() const { return points_.size(); }
  [[nodiscard]] bool empty() const { return points_.empty(); }

  // Number of points with timestamp in (now - window, now].
  [[nodiscard]] std::size_t count_in_window(SimTime now, SimTime window) const;

  // Sum of values with timestamp in (now - window, now].
  [[nodiscard]] double sum_in_window(SimTime now, SimTime window) const;

  // Events per unit time over the window (count / window). If the series is
  // younger than `window`, the elapsed series age is used as the denominator
  // instead so early estimates are not biased low; nullopt if empty.
  // Amortized O(points that left the window) for a caller whose `now`
  // never decreases under one window, as the scheduler's; O(log n) else.
  [[nodiscard]] std::optional<double> rate_in_window(SimTime now,
                                                     SimTime window) const;

  // Drop points older than `horizon` before `now`. Keeps memory bounded on
  // multi-day simulations.
  void compact(SimTime now, SimTime horizon);

  [[nodiscard]] SimTime first_timestamp() const;
  [[nodiscard]] SimTime last_timestamp() const;

  // Materialized copy of the raw points, in append order. Byte-identity
  // tests (topology and replay differential walls) compare recorded streams
  // point-for-point through this.
  [[nodiscard]] std::vector<std::pair<SimTime, double>> snapshot() const;

 private:
  struct Point {
    SimTime t;
    double value;
  };
  // Index of first point with timestamp strictly greater than t.
  [[nodiscard]] std::size_t upper_bound(SimTime t) const;

  std::deque<Point> points_;
  // rate_in_window's cursor: the window's first point, found by the last
  // call for (cursor_now_, cursor_window_). Every point before it is at or
  // before cursor_now_ - cursor_window_, so a call with the same window
  // and a `now` no earlier advances from it; any other call searches. NaN
  // matches no window: the first call searches.
  mutable SimTime cursor_now_ = 0.0;
  mutable SimTime cursor_window_ = std::numeric_limits<SimTime>::quiet_NaN();
  mutable std::size_t cursor_lo_ = 0;
};

// Keyed collection of series. Keys are opaque 64-bit values (the scheduler
// uses eligibility-signature bitmasks).
class TimeSeriesStore {
 public:
  void record(std::uint64_t key, SimTime t, double value = 1.0);

  [[nodiscard]] const Series* find(std::uint64_t key) const;

  // Rate (events / time) for `key` over the trailing window; 0 if unseen.
  [[nodiscard]] double rate(std::uint64_t key, SimTime now,
                            SimTime window) const;

  // Every key recorded so far, ascending. Kept sorted as record() creates
  // series (compaction never removes one), so reading it allocates nothing.
  [[nodiscard]] const std::vector<std::uint64_t>& keys() const {
    return keys_;
  }

  void compact_all(SimTime now, SimTime horizon);

  [[nodiscard]] std::size_t total_points() const;

 private:
  std::unordered_map<std::uint64_t, Series> series_;
  std::vector<std::uint64_t> keys_;  // the keys of series_, ascending
};

}  // namespace venn::tsdb
