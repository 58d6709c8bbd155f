#include "device/tiering.h"

#include <algorithm>
#include <stdexcept>

#include "util/stats.h"

namespace venn {

TierProfile::TierProfile(std::size_t num_tiers, double tail_percentile)
    : num_tiers_(num_tiers), tail_percentile_(tail_percentile) {
  if (num_tiers_ == 0) throw std::invalid_argument("num_tiers must be >= 1");
  if (tail_percentile_ <= 0.0 || tail_percentile_ > 100.0) {
    throw std::invalid_argument("tail_percentile out of range");
  }
}

void TierProfile::observe(double capacity, double response_time) {
  obs_.push_back({response_time, capacity});
}

void TierProfile::merge_new() const {
  if (sorted_ == obs_.size()) return;
  const auto by_response = [](const Observation& a, const Observation& b) {
    return a.response < b.response;
  };
  const auto mid = obs_.begin() + static_cast<std::ptrdiff_t>(sorted_);
  std::sort(mid, obs_.end(), by_response);
  std::inplace_merge(obs_.begin(), mid, obs_.end(), by_response);
  sorted_ = obs_.size();
}

bool TierProfile::ready() const {
  // Require ~5 samples per tier before trusting quantile thresholds.
  return obs_.size() >= 5 * num_tiers_;
}

void TierProfile::set_external_thresholds(std::span<const double> thresholds) {
  if (thresholds.size() != num_tiers_ + 1) {
    throw std::invalid_argument("need num_tiers + 1 thresholds");
  }
  for (std::size_t i = 1; i < thresholds.size(); ++i) {
    if (thresholds[i] < thresholds[i - 1]) {
      throw std::invalid_argument("thresholds must be ascending");
    }
  }
  external_thresholds_.assign(thresholds.begin(), thresholds.end());
}

std::vector<double> TierProfile::thresholds() const {
  std::vector<double> local;
  const std::span<const double> th = active_thresholds(local);
  return {th.begin(), th.end()};
}

std::span<const double> TierProfile::active_thresholds(
    std::vector<double>& local) const {
  if (!external_thresholds_.empty()) return external_thresholds_;
  if (!ready()) throw std::logic_error("TierProfile not ready");
  std::vector<double> cap;
  cap.reserve(obs_.size());
  for (const Observation& o : obs_) cap.push_back(o.capacity);
  local.clear();
  local.push_back(0.0);
  for (std::size_t v = 1; v < num_tiers_; ++v) {
    local.push_back(percentile_select(
        cap, 100.0 * static_cast<double>(v) / static_cast<double>(num_tiers_)));
  }
  local.push_back(1.0 + 1e-12);
  return local;
}

std::size_t TierProfile::tier_of(double capacity) const {
  // Pinned thresholds are read in place: this runs on every accepts().
  std::vector<double> local;
  const std::span<const double> th = active_thresholds(local);
  for (std::size_t v = num_tiers_; v-- > 0;) {
    if (capacity >= th[v]) return v;
  }
  return 0;
}

double TierProfile::speedup(std::size_t tier) const {
  if (tier >= num_tiers_) throw std::out_of_range("tier index");
  std::vector<double> local;
  const std::span<const double> th = active_thresholds(local);
  const double lo = th[tier];
  const double hi = th[tier + 1];
  merge_new();
  const std::size_t n = obs_.size();
  std::size_t members = 0;
  for (const Observation& o : obs_) {
    members += (o.capacity >= lo) & (o.capacity < hi);
  }
  if (members == 0) return 1.0;
  // percentile_select's value: one order statistic for a single sample,
  // else the interpolation between ranks r.lo and r.hi. The tier's ranks
  // count its members only; walking down from the slowest observation
  // meets rank r.hi, then r.lo (r.lo <= r.hi), near the tail.
  const PercentileRank r = percentile_rank(tail_percentile_, members);
  double x_lo = 0.0;
  double x_hi = 0.0;
  std::size_t rank = members;
  for (std::size_t i = n; i-- > 0;) {
    const Observation& o = obs_[i];
    if (!(o.capacity >= lo && o.capacity < hi)) continue;
    --rank;
    if (rank == r.hi) x_hi = o.response;
    if (rank == r.lo) {
      x_lo = o.response;
      break;
    }
  }
  const double tail = members == 1 ? x_lo : r.interpolate(x_lo, x_hi);
  const PercentileRank r0 = percentile_rank(tail_percentile_, n);
  const double t0 =
      n == 1 ? obs_[0].response
             : r0.interpolate(obs_[r0.lo].response, obs_[r0.hi].response);
  if (t0 <= 0.0) return 1.0;
  return tail / t0;
}

bool tiering_beneficial(std::size_t num_tiers, double g_u, double c) {
  // V + g_u * c < 1 + c  (Algorithm 2 line 7). With V = 1 tiering is a
  // no-op and the condition reduces to g_u < 1 exactly when c > 0.
  return static_cast<double>(num_tiers) + g_u * c < 1.0 + c;
}

}  // namespace venn
