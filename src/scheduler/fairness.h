// Starvation prevention — paper §4.4 ("Starvation prevention").
//
// IRS prefers small jobs, so large jobs can starve. The paper bounds each
// job's slowdown by its fair share T_i = M * sd_i (M simultaneous jobs,
// sd_i = contention-free JCT) and steers the heuristic with a knob ε:
//   d'_i = d_i * (t_i / T_i)^ε          (intra-group demand adjustment)
//   q'_j = q_j * (Σ T_i / Σ t_i)^ε      (inter-group queue-length adjustment)
// where t_i is the *service usage* of job i so far. A job (or group) that
// has consumed little of its fair share keeps a small adjusted demand (high
// intra-group priority) and inflates its group's queue (high inter-group
// priority). ε = 0 disables the adjustment; ε → ∞ makes relative usage
// dominate, i.e. maximum fairness.
//
// We measure service usage in fair-share-normalized time: a job that has
// completed fraction p of its rounds has used t_i = p * sd_i of its solo
// JCT, so t_i / T_i = p * sd_i / (M * sd_i). To keep early-arrival jobs from
// dominating forever, usage is taken relative to the time the job has had:
// the implementation uses t_i / T_i = p / max(elapsed / T_i, δ) * (1 / M)
// collapsed into the single relative-usage ratio r_i below. See
// bench/fig14_fairness.cc (Fig. 14) for the observed knob behaviour.
#pragma once

#include <span>

#include "util/ids.h"

namespace venn {

struct JobFairnessInput {
  double progress = 0.0;        // completed_rounds / total_rounds, in [0,1]
  SimTime elapsed = 0.0;        // now - job arrival
  double fair_jct = 1.0;        // T_i = M * sd_i
};

// Relative usage r_i: achieved progress over the progress fair sharing would
// have delivered by now (elapsed / T_i, capped at 1). r < 1 — the job is
// behind its fair share; r > 1 — ahead. Both terms are Laplace-smoothed by
// kUsageSmoothing so a job that just arrived (zero progress, zero elapsed)
// reads as neutral (r ≈ 1) rather than maximally starved, and the boost
// grows continuously as the job falls behind. Clamped to
// [kMinUsage, kMaxUsage].
inline constexpr double kUsageSmoothing = 0.05;
inline constexpr double kMinUsage = 1e-2;
inline constexpr double kMaxUsage = 1e2;
// Knob normalization: the user-facing ε sweeps the paper's 0..6 range; the
// internal exponent is ε * kEpsilonScale. The scale is calibrated so the
// performance/fairness trade-off unfolds smoothly across that range rather
// than collapsing into lag-ordered scheduling within the first unit.
inline constexpr double kEpsilonScale = 0.25;
[[nodiscard]] double relative_usage(const JobFairnessInput& in);

// d'_i = d_i * r_i^ε — jobs behind fair share sort earlier within a group.
[[nodiscard]] double adjusted_demand(double demand, double relative_usage,
                                     double epsilon);

// q'_j = q_j * (1 / r̄_j)^ε — groups behind fair share look longer to the
// inter-group ratio test and attract more resources.
[[nodiscard]] double adjusted_queue_len(double queue_len,
                                        double group_relative_usage,
                                        double epsilon);

// Fair-share-weighted aggregate usage of a group: Σ(p_i·T_i) / Σ(e_i·…),
// i.e. the paper's Σt_i / ΣT_i with the same normalization as
// relative_usage. Returns 1.0 for an empty span.
[[nodiscard]] double group_relative_usage(
    std::span<const JobFairnessInput> jobs);

}  // namespace venn
