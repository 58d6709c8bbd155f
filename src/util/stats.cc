#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>

namespace venn {

Summary::Summary(std::span<const double> samples)
    : samples_(samples.begin(), samples.end()), sorted_(false) {}

Summary::Summary(const Summary& other) {
  std::lock_guard<std::mutex> lk(other.sort_mutex_);
  samples_ = other.samples_;
  sorted_.store(other.sorted_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
}

Summary& Summary::operator=(const Summary& other) {
  if (this == &other) return *this;
  // scoped_lock's deadlock-avoidance covers cross-assignment between two
  // shared summaries.
  std::scoped_lock lk(sort_mutex_, other.sort_mutex_);
  samples_ = other.samples_;
  sorted_.store(other.sorted_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  return *this;
}

Summary::Summary(Summary&& other) noexcept {
  std::lock_guard<std::mutex> lk(other.sort_mutex_);
  samples_ = std::move(other.samples_);
  sorted_.store(other.sorted_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  other.sorted_.store(true, std::memory_order_relaxed);
}

Summary& Summary::operator=(Summary&& other) noexcept {
  if (this == &other) return *this;
  std::scoped_lock lk(sort_mutex_, other.sort_mutex_);
  samples_ = std::move(other.samples_);
  sorted_.store(other.sorted_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  other.sorted_.store(true, std::memory_order_relaxed);
  return *this;
}

void Summary::add(double x) {
  samples_.push_back(x);
  sorted_.store(false, std::memory_order_release);
}

void Summary::merge(const Summary& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  sorted_.store(false, std::memory_order_release);
}

double Summary::sum() const {
  return std::accumulate(samples_.begin(), samples_.end(), 0.0);
}

double Summary::mean() const {
  if (samples_.empty()) throw std::logic_error("mean of empty Summary");
  return sum() / static_cast<double>(samples_.size());
}

double Summary::variance() const {
  if (samples_.empty()) throw std::logic_error("variance of empty Summary");
  const double m = mean();
  double acc = 0.0;
  for (double x : samples_) acc += (x - m) * (x - m);
  return acc / static_cast<double>(samples_.size());
}

double Summary::stddev() const { return std::sqrt(variance()); }

double Summary::min() const {
  if (samples_.empty()) throw std::logic_error("min of empty Summary");
  return *std::min_element(samples_.begin(), samples_.end());
}

double Summary::max() const {
  if (samples_.empty()) throw std::logic_error("max of empty Summary");
  return *std::max_element(samples_.begin(), samples_.end());
}

void Summary::ensure_sorted() const {
  // Double-checked lazy sort: the acquire fast path makes already-sorted
  // queries lock-free, and the mutex serializes the one sorting thread
  // against other concurrent readers (the const_cast-with-plain-flag
  // predecessor was a data race exactly there).
  if (sorted_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lk(sort_mutex_);
  if (sorted_.load(std::memory_order_relaxed)) return;
  std::sort(samples_.begin(), samples_.end());
  sorted_.store(true, std::memory_order_release);
}

PercentileRank percentile_rank(double p, std::size_t n) {
  if (n == 0) throw std::logic_error("percentile of empty Summary");
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile range");
  const double rank = (p / 100.0) * static_cast<double>(n - 1);
  PercentileRank r;
  r.lo = static_cast<std::size_t>(std::floor(rank));
  r.hi = static_cast<std::size_t>(std::ceil(rank));
  r.frac = rank - static_cast<double>(r.lo);
  return r;
}

double Summary::percentile(double p) const {
  const PercentileRank r = percentile_rank(p, samples_.size());
  ensure_sorted();
  if (samples_.size() == 1) return samples_.front();
  return r.interpolate(samples_[r.lo], samples_[r.hi]);
}

double percentile_select(std::span<double> values, double p) {
  const PercentileRank r = percentile_rank(p, values.size());
  if (values.size() == 1) return values.front();
  const auto lo = values.begin() + static_cast<std::ptrdiff_t>(r.lo);
  std::nth_element(values.begin(), lo, values.end());
  // hi is lo or lo + 1; the (lo+1)-th order statistic is the minimum of
  // the partition above lo.
  const double hi =
      r.hi == r.lo ? *lo : *std::min_element(lo + 1, values.end());
  return r.interpolate(*lo, hi);
}

std::vector<CdfPoint> empirical_cdf(std::span<const double> samples,
                                    std::size_t points) {
  std::vector<CdfPoint> out;
  if (samples.empty() || points == 0) return out;
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  out.reserve(points);
  for (std::size_t i = 1; i <= points; ++i) {
    const double frac = static_cast<double>(i) / static_cast<double>(points);
    const auto idx = static_cast<std::size_t>(
        std::min<double>(std::ceil(frac * static_cast<double>(sorted.size())),
                         static_cast<double>(sorted.size())) -
        1.0);
    out.push_back({sorted[idx], frac});
  }
  return out;
}

namespace {
double entropy_term(double x) { return x > 0.0 ? -x * std::log2(x) : 0.0; }
}  // namespace

double js_divergence(std::span<const double> p, std::span<const double> q) {
  if (p.size() != q.size()) {
    throw std::invalid_argument("js_divergence: dimension mismatch");
  }
  double h_m = 0.0, h_p = 0.0, h_q = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double m = 0.5 * (p[i] + q[i]);
    h_m += entropy_term(m);
    h_p += entropy_term(p[i]);
    h_q += entropy_term(q[i]);
  }
  const double js = h_m - 0.5 * (h_p + h_q);
  return std::clamp(js, 0.0, 1.0);
}

std::string format_ratio(double ratio, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*fx", decimals, ratio);
  return buf;
}

}  // namespace venn
