// Resource-aware device-to-job matching — paper §4.3, Algorithm 2.
//
// Response collection time is set by the last reporting participant, so a
// job served from a single hardware tier avoids mixing fast and slow devices
// and shrinks its tail. Restricting to one of V tiers, however, slows device
// acquisition by up to V (only ~1/V of arrivals match), so matching is only
// activated when it wins on JCT:  V + g_u * c_i < 1 + c_i  (Fig. 7), where
// c_i is the job's response-time : scheduling-delay ratio and
// g_u = t_u / t_0 the profiled tier speed-up.
//
// JobMatcher holds one job's state: its TierProfile (capacity + response
// observations from prior rounds, §4.3 "Venn adaptively sets the tier
// partition thresholds based on ... devices that participated in earlier
// rounds"), EWMA estimates of scheduling delay and response collection time,
// and the tier choice for the request in flight ("For each served job
// request, Venn randomly selects a device tier" — randomized so each job
// sees a diverse device population across rounds).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "device/tiering.h"
#include "util/ids.h"
#include "util/rng.h"

namespace venn {

struct MatcherConfig {
  std::size_t num_tiers = 3;     // V (Fig. 13 sweeps 1..4)
  double tail_percentile = 95.0; // statistical tail latency (§4.3)
  double ewma_alpha = 0.3;       // smoothing for sched-delay / response-time
};

class JobMatcher {
 public:
  JobMatcher(const MatcherConfig& cfg, Rng rng);

  // --- profiling inputs -------------------------------------------------
  void observe_response(double capacity, double response_time);
  void observe_round(SimTime sched_delay, SimTime response_time);

  // Pin the tier capacity thresholds to the eligible-population partition
  // computed by the resource manager (see TierProfile::
  // set_external_thresholds). Response-time speedups g_v still come from
  // this job's own response observations.
  void set_thresholds(std::span<const double> thresholds);

  // --- per-request tier selection ----------------------------------------
  // Called when a new resource request opens. Decides whether tier-based
  // matching is active for this request and which tier it pins.
  void begin_request(RequestId id, SimTime now);

  // The request of the last begin_request; invalid before the first.
  [[nodiscard]] RequestId current_request() const { return current_request_; }

  // True iff the matcher (for the currently served request) accepts a device
  // of the given capacity. Always true when matching is inactive.
  [[nodiscard]] bool accepts(double capacity) const;

  // Active tier for the current request, if any.
  [[nodiscard]] std::optional<std::size_t> active_tier() const {
    return tier_choice_;
  }

  // c_i estimate (response collection time / scheduling delay). nullopt
  // until both EWMAs have at least one sample.
  [[nodiscard]] std::optional<double> c_estimate() const;

  [[nodiscard]] const TierProfile& profile() const { return profile_; }
  [[nodiscard]] bool profile_ready() const { return profile_.ready(); }

 private:
  MatcherConfig cfg_;
  TierProfile profile_;
  Rng rng_;
  double ewma_sched_ = -1.0;
  double ewma_resp_ = -1.0;
  std::optional<std::size_t> tier_choice_;
  RequestId current_request_;
};

}  // namespace venn
