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
  capacities_.push_back(capacity);
  response_times_.push_back(response_time);
}

bool TierProfile::ready() const {
  // Require ~5 samples per tier before trusting quantile thresholds.
  return capacities_.size() >= 5 * num_tiers_;
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
  std::vector<double> cap = capacities_;
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

double TierProfile::speedup(std::size_t tier,
                            std::vector<double>& scratch) const {
  if (tier >= num_tiers_) throw std::out_of_range("tier index");
  std::vector<double> local;
  const std::span<const double> th = active_thresholds(local);
  // One copy of the response times: the tier's own at the front, the rest
  // at the back. Selecting the tier's tail reorders only the front, so the
  // whole buffer is still the full sample for t0 afterwards.
  const std::size_t n = response_times_.size();
  scratch.resize(n);
  std::size_t front = 0;
  std::size_t back = n;
  for (std::size_t i = 0; i < n; ++i) {
    const bool in = capacities_[i] >= th[tier] && capacities_[i] < th[tier + 1];
    scratch[in ? front++ : --back] = response_times_[i];
  }
  if (front == 0) return 1.0;
  const std::span<double> all(scratch.data(), n);
  const double tail = percentile_select(all.first(front), tail_percentile_);
  const double t0 = percentile_select(all, tail_percentile_);
  if (t0 <= 0.0) return 1.0;
  return tail / t0;
}

bool tiering_beneficial(std::size_t num_tiers, double g_u, double c) {
  // V + g_u * c < 1 + c  (Algorithm 2 line 7). With V = 1 tiering is a
  // no-op and the condition reduces to g_u < 1 exactly when c > 0.
  return static_cast<double>(num_tiers) + g_u * c < 1.0 + c;
}

}  // namespace venn
