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

void TierProfile::set_external_thresholds(std::vector<double> thresholds) {
  if (thresholds.size() != num_tiers_ + 1) {
    throw std::invalid_argument("need num_tiers + 1 thresholds");
  }
  for (std::size_t i = 1; i < thresholds.size(); ++i) {
    if (thresholds[i] < thresholds[i - 1]) {
      throw std::invalid_argument("thresholds must be ascending");
    }
  }
  external_thresholds_ = std::move(thresholds);
}

std::vector<double> TierProfile::thresholds() const {
  if (!external_thresholds_.empty()) return external_thresholds_;
  return quantile_thresholds();
}

std::vector<double> TierProfile::quantile_thresholds() const {
  if (!ready()) throw std::logic_error("TierProfile not ready");
  std::vector<double> cap = capacities_;
  std::vector<double> th;
  th.reserve(num_tiers_ + 1);
  th.push_back(0.0);
  for (std::size_t v = 1; v < num_tiers_; ++v) {
    th.push_back(percentile_select(cap, 100.0 * static_cast<double>(v) /
                                            static_cast<double>(num_tiers_)));
  }
  th.push_back(1.0 + 1e-12);
  return th;
}

std::size_t TierProfile::tier_of(double capacity) const {
  // Pinned thresholds are read in place: this runs on every accepts().
  if (external_thresholds_.empty()) {
    return tier_in(quantile_thresholds(), capacity);
  }
  return tier_in(external_thresholds_, capacity);
}

std::size_t TierProfile::tier_in(const std::vector<double>& th,
                                 double capacity) const {
  for (std::size_t v = num_tiers_; v-- > 0;) {
    if (capacity >= th[v]) return v;
  }
  return 0;
}

double TierProfile::speedup(std::size_t tier) const {
  if (tier >= num_tiers_) throw std::out_of_range("tier index");
  const auto th = thresholds();
  std::vector<double> in_tier;
  for (std::size_t i = 0; i < capacities_.size(); ++i) {
    if (capacities_[i] >= th[tier] && capacities_[i] < th[tier + 1]) {
      in_tier.push_back(response_times_[i]);
    }
  }
  if (in_tier.empty() || response_times_.empty()) return 1.0;
  std::vector<double> all = response_times_;
  const double t0 = percentile_select(all, tail_percentile_);
  if (t0 <= 0.0) return 1.0;
  return percentile_select(in_tier, tail_percentile_) / t0;
}

std::optional<double> TierProfile::tail_response_time() const {
  if (response_times_.empty()) return std::nullopt;
  Summary s{std::span<const double>(response_times_)};
  return s.percentile(tail_percentile_);
}

bool tiering_beneficial(std::size_t num_tiers, double g_u, double c) {
  // V + g_u * c < 1 + c  (Algorithm 2 line 7). With V = 1 tiering is a
  // no-op and the condition reduces to g_u < 1 exactly when c > 0.
  return static_cast<double>(num_tiers) + g_u * c < 1.0 + c;
}

}  // namespace venn
