#include "tsdb/timeseries.h"

#include <algorithm>
#include <stdexcept>

namespace venn::tsdb {

void Series::append(SimTime t, double value) {
  if (!points_.empty() && t < points_.back().t) {
    throw std::invalid_argument("Series::append: timestamps must not regress");
  }
  points_.push_back({t, value});
}

std::size_t Series::upper_bound(SimTime t) const {
  return static_cast<std::size_t>(
      std::upper_bound(points_.begin(), points_.end(), t,
                       [](SimTime v, const Point& p) { return v < p.t; }) -
      points_.begin());
}

std::size_t Series::count_in_window(SimTime now, SimTime window) const {
  if (points_.empty()) return 0;
  const std::size_t hi = upper_bound(now);
  const std::size_t lo = upper_bound(now - window);
  return hi - lo;
}

double Series::sum_in_window(SimTime now, SimTime window) const {
  if (points_.empty()) return 0.0;
  const std::size_t hi = upper_bound(now);
  const std::size_t lo = upper_bound(now - window);
  double acc = 0.0;
  for (std::size_t i = lo; i < hi; ++i) acc += points_[i].value;
  return acc;
}

std::optional<double> Series::rate_in_window(SimTime now,
                                             SimTime window) const {
  if (points_.empty()) return std::nullopt;
  const double age = now - points_.front().t;
  const double denom = std::max(1e-9, std::min(window, age));
  // count_in_window's two bounds: lo = upper_bound(now - window), from the
  // cursor when it holds, and hi = upper_bound(now), which is the end when
  // the last point is at or before `now`.
  const SimTime from = now - window;
  std::size_t lo = 0;
  if (window == cursor_window_ && now >= cursor_now_) {
    lo = cursor_lo_;
    while (lo < points_.size() && !(from < points_[lo].t)) ++lo;
  } else {
    lo = upper_bound(from);
  }
  cursor_now_ = now;
  cursor_window_ = window;
  cursor_lo_ = lo;
  const std::size_t hi =
      points_.back().t <= now ? points_.size() : upper_bound(now);
  return static_cast<double>(hi - lo) / denom;
}

void Series::compact(SimTime now, SimTime horizon) {
  const SimTime cutoff = now - horizon;
  std::size_t dropped = 0;
  while (!points_.empty() && points_.front().t < cutoff) {
    points_.pop_front();
    ++dropped;
  }
  cursor_lo_ -= std::min(cursor_lo_, dropped);
}

SimTime Series::first_timestamp() const {
  if (points_.empty()) throw std::logic_error("empty series");
  return points_.front().t;
}

SimTime Series::last_timestamp() const {
  if (points_.empty()) throw std::logic_error("empty series");
  return points_.back().t;
}

std::vector<std::pair<SimTime, double>> Series::snapshot() const {
  std::vector<std::pair<SimTime, double>> out;
  out.reserve(points_.size());
  for (const Point& p : points_) out.emplace_back(p.t, p.value);
  return out;
}

void TimeSeriesStore::record(std::uint64_t key, SimTime t, double value) {
  const auto [it, created] = series_.try_emplace(key);
  if (created) {
    keys_.insert(std::upper_bound(keys_.begin(), keys_.end(), key), key);
  }
  it->second.append(t, value);
}

const Series* TimeSeriesStore::find(std::uint64_t key) const {
  auto it = series_.find(key);
  return it == series_.end() ? nullptr : &it->second;
}

double TimeSeriesStore::rate(std::uint64_t key, SimTime now,
                             SimTime window) const {
  const Series* s = find(key);
  if (s == nullptr) return 0.0;
  return s->rate_in_window(now, window).value_or(0.0);
}

void TimeSeriesStore::compact_all(SimTime now, SimTime horizon) {
  for (auto& [_, s] : series_) s.compact(now, horizon);
}

std::size_t TimeSeriesStore::total_points() const {
  std::size_t n = 0;
  for (const auto& [_, s] : series_) n += s.size();
  return n;
}

}  // namespace venn::tsdb
