#include "scheduler/matching.h"

namespace venn {

JobMatcher::JobMatcher(const MatcherConfig& cfg, Rng rng)
    : cfg_(cfg), profile_(cfg.num_tiers, cfg.tail_percentile),
      rng_(std::move(rng)) {}

void JobMatcher::observe_response(double capacity, double response_time) {
  profile_.observe(capacity, response_time);
}

void JobMatcher::set_thresholds(std::span<const double> thresholds) {
  profile_.set_external_thresholds(thresholds);
}

void JobMatcher::observe_round(SimTime sched_delay, SimTime response_time) {
  auto update = [this](double& ewma, double x) {
    ewma = (ewma < 0.0) ? x : (1.0 - cfg_.ewma_alpha) * ewma +
                              cfg_.ewma_alpha * x;
  };
  update(ewma_sched_, sched_delay);
  update(ewma_resp_, response_time);
}

std::optional<double> JobMatcher::c_estimate() const {
  if (ewma_resp_ < 0.0) return std::nullopt;
  // A near-zero scheduling delay means response time dominates JCT: c -> inf,
  // making tiering maximally attractive. Floor the denominator to keep the
  // ratio finite.
  const double sched = std::max(ewma_sched_, 1e-3);
  return ewma_resp_ / sched;
}

void JobMatcher::begin_request(RequestId id, SimTime /*now*/) {
  current_request_ = id;
  tier_choice_.reset();
  if (cfg_.num_tiers <= 1) return;  // V = 1: tiering is a no-op
  if (!profile_.ready()) return;    // first rounds: profile only (§4.3)
  const auto c = c_estimate();
  if (!c) return;

  // Algorithm 2 line 6: pick a tier uniformly at random, then activate only
  // if the JCT trade-off favours it (line 7).
  const auto u = static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(cfg_.num_tiers) - 1));
  const double g_u = profile_.speedup(u);
  if (tiering_beneficial(cfg_.num_tiers, g_u, *c)) {
    tier_choice_ = u;
  }
}

bool JobMatcher::accepts(double capacity) const {
  if (!tier_choice_) return true;
  return profile_.tier_of(capacity) == *tier_choice_;
}

}  // namespace venn
